"""SimBackend: today's simulated devices behind the property interface.

Wraps the hub's :class:`~repro.telemetry.msr.MSRDevice` /
:class:`~repro.telemetry.hsmp.HSMPDevice` /
:class:`~repro.telemetry.nvml.NVMLDevice` without changing a single charge:
with the zero :class:`~repro.backends.latency.LatencyModel` (the default)
every actuation produces exactly the device-call sequence the hub made
before this layer existed, which the golden-trace suite pins bit-for-bit.

Devices are looked up on the hub *at call time* — never captured at
construction — so a :class:`~repro.faults.injector.FaultInjector` armed on
the hub keeps intercepting every backend-routed read and write.

With a nonzero latency model, each :meth:`SimBackend.set_uncore_max_ghz`
samples one switch latency, defers the clock-domain transition by it
(register shadows still update immediately, as on hardware) and charges
the latency to the caller's meter as invocation time — fast-cycling
governors now pay for every transition they request.
"""

from __future__ import annotations

from typing import Optional

from repro.backends.base import ControlBackend
from repro.backends.latency import LatencyModel
from repro.errors import BackendError
from repro.telemetry.hsmp import _MAILBOX_ENERGY_J, _MAILBOX_TIME_S
from repro.telemetry.msr import MSR_UNCORE_RATIO_LIMIT, decode_uncore_ratio_limit
from repro.telemetry.sampling import AccessMeter
from repro.units import ghz_to_uncore_ratio, uncore_ratio_to_ghz

__all__ = ["SimBackend"]


class SimBackend(ControlBackend):
    """Property access over the hub's simulated devices.

    Parameters
    ----------
    latency:
        Switch-latency model; omitted means the zero model (bit-identical
        to the pre-backend actuation path).
    """

    name = "sim"

    def __init__(self, latency: Optional[LatencyModel] = None) -> None:
        super().__init__()
        self._latency = latency if latency is not None else LatencyModel.zero()

    @property
    def latency_model(self) -> LatencyModel:
        """The backend's switch-latency model."""
        return self._latency

    # ------------------------------------------------------------------
    # Property reads
    # ------------------------------------------------------------------
    def read(self, prop: str, domain: int = 0, meter: Optional[AccessMeter] = None) -> float:
        """Read one property on one domain, charging the mechanism's cost.

        Socket-scoped reads go through the vendor's mechanism (MSR shadow
        on Intel, HSMP mailbox on AMD); ``gpu.sm_clock`` through NVML.
        ``uncore.freq_ghz`` exposes in-flight transitions: during settling
        it returns the ramping effective frequency, not the target.
        """
        spec = self.spec(prop)
        hub = self.hub
        if spec.scope == "gpu":
            return hub.nvml.sm_clock_ghz(domain, meter)
        self._check_socket(domain)
        if prop == "uncore.max_ratio":
            if hub.hsmp is not None:
                return float(ghz_to_uncore_ratio(hub.hsmp.read_fabric_clock_ghz(domain, meter)))
            value = hub.msr.read(domain, MSR_UNCORE_RATIO_LIMIT, meter)
            return float(decode_uncore_ratio_limit(value)[0])
        if prop == "uncore.min_ratio":
            if hub.hsmp is not None:
                if meter is not None:
                    meter.charge("hsmp_mailbox", _MAILBOX_TIME_S, _MAILBOX_ENERGY_J)
                return float(ghz_to_uncore_ratio(hub.node.uncore(domain).min_ghz))
            value = hub.msr.read(domain, MSR_UNCORE_RATIO_LIMIT, meter)
            return float(decode_uncore_ratio_limit(value)[1])
        if prop == "uncore.freq_ghz":
            self._charge_status_read(meter)
            return hub.node.uncore(domain).effective_ghz
        if prop == "core.pstate":
            self._charge_status_read(meter)
            mean_ghz = float(hub.node.cpu(domain).core_freqs_ghz.mean())
            return float(ghz_to_uncore_ratio(mean_ghz))
        raise BackendError(f"property {prop!r} has no sim read path")  # pragma: no cover

    # ------------------------------------------------------------------
    # Property writes
    # ------------------------------------------------------------------
    def write(
        self, prop: str, value: float, domain: int = 0, meter: Optional[AccessMeter] = None
    ) -> None:
        """Write one property on one domain through the vendor mechanism."""
        self.spec(prop, write=True)
        self._check_socket(domain)
        freq_ghz = uncore_ratio_to_ghz(int(value))
        delay_s = self._latency.sample_switch_s()
        hub = self.hub
        if hub.hsmp is not None:
            hub.hsmp.set_fabric_clock_ghz(freq_ghz, meter, delay_s=delay_s, socket=domain)
        else:
            hub.msr.set_uncore_max_ghz(freq_ghz, meter, delay_s=delay_s, socket=domain)
        self._account_switch(delay_s, meter)

    def set_uncore_max_ghz(self, freq_ghz: float, meter: Optional[AccessMeter] = None) -> None:
        """Program the uncore/fabric ceiling on every socket.

        One switch latency is sampled per call: the node's clock domains
        settle together, so a dual-socket actuation is one transition, not
        two. The latency is charged only after the device write succeeds —
        an injected write failure costs the failed transaction, not a
        settling window that never began.
        """
        delay_s = self._latency.sample_switch_s()
        hub = self.hub
        if hub.hsmp is not None:
            hub.hsmp.set_fabric_clock_ghz(freq_ghz, meter, delay_s=delay_s)
        else:
            hub.msr.set_uncore_max_ghz(freq_ghz, meter, delay_s=delay_s)
        self._account_switch(delay_s, meter)

    # ------------------------------------------------------------------
    # Transition state
    # ------------------------------------------------------------------
    @property
    def actuation_pending(self) -> bool:
        """True while some socket's programmed target awaits adoption."""
        node = self.hub.node
        return any(
            node.uncore(s).pending_target_ghz is not None for s in range(node.n_sockets)
        )

    def on_tick(self, dt_s: float) -> None:
        """Count ticks spent settling (latency window or slew ramp).

        Purely observational: nothing here feeds back into simulated
        state, so the zero-latency path stays bit-identical.
        """
        if any(unc.in_transition for _, unc in self.hub.node.sockets):
            self.settling_ticks += 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _account_switch(self, delay_s: float, meter: Optional[AccessMeter]) -> None:
        self.switch_count += 1
        if delay_s <= 0.0:
            return
        if meter is not None:
            meter.charge("actuation_latency", delay_s, 0.0)
        self.latency_charged_s += delay_s
        self.switch_delays_s.append(delay_s)

    def _charge_status_read(self, meter: Optional[AccessMeter]) -> None:
        # Status reads cost one access of the vendor's status mechanism:
        # an MSR read on Intel, a mailbox transaction on AMD.
        if meter is None:
            return
        if self.hub.hsmp is not None:
            meter.charge("hsmp_mailbox", _MAILBOX_TIME_S, _MAILBOX_ENERGY_J)
        else:
            costs = self.hub.costs
            meter.charge("msr_read", costs.msr_read_time_s, costs.msr_read_energy_j)

    def _check_socket(self, domain: int) -> None:
        n = self.hub.node.n_sockets
        if not (0 <= domain < n):
            raise BackendError(f"no such socket domain {domain!r} (node has {n})")
