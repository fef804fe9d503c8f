"""TelemetryHub: one object bundling every telemetry device for a node.

The simulation engine advances the hub once per node step, by every tick
the step spanned; runtimes receive the hub and use whichever interfaces
their design calls for (MAGUS: PCM + the uncore control path; UPS: per-core
MSR reads + RAPL + control path; the vendor default: RAPL only).

The hub also provides the **vendor-neutral actuation path**: on Intel the
uncore limit is programmed through MSR ``0x620``, on AMD through HSMP
fabric P-state requests (§6.6). Governors never need to know which — the
daemon calls :meth:`TelemetryHub.set_uncore_max_ghz`, which delegates to
the hub's :class:`~repro.backends.sim.SimBackend` (zero switch latency
unless the run models one).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.backends.latency import LatencyModel
from repro.backends.sim import SimBackend
from repro.errors import TelemetryError
from repro.hw.node import HeterogeneousNode
from repro.hw.presets import TelemetryCosts
from repro.telemetry.hsmp import HSMPDevice
from repro.telemetry.msr import MSRDevice
from repro.telemetry.nvml import NVMLDevice
from repro.telemetry.pcm import PCMCounters
from repro.telemetry.rapl import RAPLCounters
from repro.telemetry.sampling import AccessMeter

if TYPE_CHECKING:  # typing-only: faults builds its proxies *around* the
    # hub, so a runtime import here would be circular (likewise the guard,
    # which sits above the proxies).
    from repro.faults.injector import FaultInjector
    from repro.guard.core import TelemetryGuard

__all__ = ["TelemetryHub"]


class TelemetryHub:
    """All telemetry devices of one node, advanced together.

    Parameters
    ----------
    node:
        The node being observed/actuated.
    costs:
        The preset's per-access cost model.
    vendor:
        ``"intel"`` (MSR actuation; HSMP absent) or ``"amd"`` (HSMP
        actuation; the MSR uncore-limit register absent, per-core counters
        still available for completeness).
    latency:
        Switch-latency model of the hub's
        :class:`~repro.backends.sim.SimBackend`; omitted means the zero
        model (instantaneous transitions).
    """

    def __init__(
        self,
        node: HeterogeneousNode,
        costs: TelemetryCosts,
        vendor: str = "intel",
        *,
        latency: Optional[LatencyModel] = None,
    ):
        if vendor not in ("intel", "amd"):
            raise TelemetryError(f"unknown vendor {vendor!r}; expected 'intel' or 'amd'")
        self.node = node
        self.vendor = vendor
        self.msr = MSRDevice(node, costs)
        self.pcm = PCMCounters(node, costs)
        self.rapl = RAPLCounters(node, costs)
        self.nvml = NVMLDevice(node)
        self.hsmp: Optional[HSMPDevice] = HSMPDevice(node) if vendor == "amd" else None
        #: The actuation path every uncore write routes through.
        self.backend = SimBackend(self, latency)
        #: Installed fault injector, if any (see :meth:`install_fault_injector`).
        self.fault_injector: Optional["FaultInjector"] = None
        #: Installed telemetry guard, if any (see :meth:`install_guard`).
        self.guard: Optional["TelemetryGuard"] = None
        #: Calls to :meth:`set_uncore_max_ghz` that returned.
        self.actuation_count = 0

    def install_fault_injector(self, injector: "FaultInjector") -> None:
        """Wrap every device behind ``injector``'s fault proxies.

        This is the injectable seam the robustness experiments use: after
        installation, ``hub.msr``/``hub.pcm``/``hub.rapl`` (and ``hub.hsmp``
        on AMD) are proxies that realise the injector's
        :class:`~repro.faults.plan.FaultPlan` while preserving per-access
        meter charging.  A hub accepts at most one injector for its
        lifetime.
        """
        if self.fault_injector is not None:
            raise TelemetryError("hub already has a fault injector installed")
        injector.arm(self)
        self.fault_injector = injector

    def install_guard(self, guard: "TelemetryGuard") -> None:
        """Put ``guard`` between this hub's devices and the governors.

        The guard looks devices up on the hub at call time, so it always
        sees whatever the fault injector installed — the trust chain is
        devices → injector proxies → guard → governor regardless of
        installation order.  A hub accepts at most one guard.
        """
        if self.guard is not None:
            raise TelemetryError("hub already has a guard installed")
        guard.bind(self)
        self.guard = guard

    def quiet_ticks(self, dt_s: float, limit: int) -> int:
        """How many of the next ``limit`` ticks of ``dt_s`` the hub can take
        as one step: the fault injector's bound, else ``limit``. Every other
        fault and every guard check happens inside a runtime firing, and a
        firing tick steps alone."""
        injector = self.fault_injector
        return limit if injector is None else injector.quiet_ticks(dt_s, limit)

    def on_tick(self, dt_s: float) -> None:
        """Advance every device's accumulators by the node's latest step:
        each device folds every tick of it (``node.last_state.ticks``)."""
        if self.fault_injector is not None:
            # Point faults due at this tick fire first, so a wrap shifts the
            # counters before the tick folds into them.
            self.fault_injector.on_tick()
        self.msr.on_tick(dt_s)
        self.pcm.on_tick(dt_s)
        self.rapl.on_tick(dt_s)
        self.nvml.on_tick(dt_s)
        # The backend ticks last: its settling accounting reads the state
        # the devices (and node step) just established.
        self.backend.on_tick(dt_s)

    def on_finish(self) -> None:
        """Settle the devices at run end: the MSR device folds its queued
        ticks into its counters and lets go of the node's arrays."""
        self.msr.flush()

    def set_uncore_max_ghz(self, freq_ghz: float, meter: Optional[AccessMeter] = None) -> None:
        """Program the uncore/fabric ceiling through the backend.

        The backend picks the vendor mechanism (MSR ``0x620`` on Intel, HSMP
        mailbox on AMD), samples any modeled switch latency and charges it
        to ``meter``.  With a guard installed, the write is verified
        against its register read-back (see
        :meth:`repro.guard.core.TelemetryGuard.actuate_uncore_max_ghz`).
        """
        if self.guard is not None:
            self.guard.actuate_uncore_max_ghz(freq_ghz, meter)
        else:
            self.backend.set_uncore_max_ghz(freq_ghz, meter)
        self.actuation_count += 1
