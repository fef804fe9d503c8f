"""SimBackend: the uncore write and its modeled switch latency.

MAGUS actuates through one register write, MSR ``0x620`` on Intel or the
HSMP fabric P-state on AMD (§6.6). :class:`SimBackend` makes that write
through the hub's devices, looked up *at call time* so a
:class:`~repro.faults.injector.FaultInjector` armed on the hub intercepts
it, and adds the one cost the devices do not model: a switch latency from
its :class:`~repro.backends.latency.LatencyModel`. The latency defers the
clock-domain transition (register shadows still update at once, as on
hardware) and is charged to the caller's meter as invocation time. With
the zero model, the default, an actuation is exactly the device write,
which the golden-trace suite pins bit-for-bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.backends.latency import LatencyModel
from repro.telemetry.sampling import AccessMeter

if TYPE_CHECKING:  # typing-only: the hub builds its backend, so a runtime
    # import here would be circular.
    from repro.telemetry.hub import TelemetryHub

__all__ = ["SimBackend"]


class SimBackend:
    """Uncore actuation with modeled switch latency, for one hub.

    Parameters
    ----------
    hub:
        The hub whose devices the backend writes; it builds the backend
        with itself.
    latency:
        Switch-latency model; omitted means the zero model (every switch
        is instantaneous and charges nothing).
    """

    def __init__(self, hub: "TelemetryHub", latency: Optional[LatencyModel] = None) -> None:
        self._hub = hub
        self._latency = latency if latency is not None else LatencyModel.zero()
        #: Actuations that reached the device and returned.
        self.switch_count = 0
        #: Total modeled switch latency charged to cycle meters, seconds.
        self.latency_charged_s = 0.0
        #: Each non-zero switch latency charged, in order, seconds.
        self.switch_delays_s: List[float] = []
        #: Ticks observed with some frequency transition still settling.
        self.settling_ticks = 0

    def set_uncore_max_ghz(self, freq_ghz: float, meter: Optional[AccessMeter] = None) -> None:
        """Program the uncore/fabric ceiling on every socket.

        One switch latency is sampled per call: the node's clock domains
        settle together, so a dual-socket actuation is one transition, not
        two. The latency is charged only after the device write succeeds —
        an injected write failure costs the failed transaction, not a
        settling window that never began.
        """
        delay_s = self._latency.sample_switch_s()
        hub = self._hub
        if hub.hsmp is not None:
            hub.hsmp.set_fabric_clock_ghz(freq_ghz, meter, delay_s=delay_s)
        else:
            hub.msr.set_uncore_max_ghz(freq_ghz, meter, delay_s=delay_s)
        self.switch_count += 1
        if delay_s <= 0.0:
            return
        if meter is not None:
            meter.charge("actuation_latency", delay_s, 0.0)
        self.latency_charged_s += delay_s
        self.switch_delays_s.append(delay_s)

    def on_tick(self, dt_s: float) -> None:
        """Count ticks spent settling (latency window or slew ramp).

        Counts every tick of the node's latest step. A step of several ticks
        holds the uncore settled throughout, so its last tick speaks for all
        of them. Purely observational: nothing here feeds back into
        simulated state, so the zero-latency path stays bit-identical.
        """
        node = self._hub.node
        for _, unc in node.sockets:
            if unc.in_transition:
                state = node.last_state
                self.settling_ticks += state.ticks if state is not None else 1
                return
