"""TelemetryHub: one object bundling every telemetry device for a node.

The simulation engine advances the hub once per tick; runtimes receive the
hub and use whichever interfaces their design calls for (MAGUS: PCM + the
uncore control path; UPS: per-core MSR reads + RAPL + control path; the
vendor default: RAPL only).

The hub also provides the **vendor-neutral actuation path**: on Intel the
uncore limit is programmed through MSR ``0x620``, on AMD through HSMP
fabric P-state requests (§6.6). Governors never need to know which — the
daemon calls :meth:`TelemetryHub.set_uncore_max_ghz`, which delegates to
the hub's :class:`~repro.backends.base.ControlBackend` (a zero-latency
:class:`~repro.backends.sim.SimBackend` by default, bit-identical to the
pre-backend dispatch).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.backends.base import ControlBackend
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
    backend:
        A pre-built :class:`~repro.backends.base.ControlBackend` to route
        actuation through; omitted, the hub builds a
        :class:`~repro.backends.sim.SimBackend` over its own devices.
        Mutually exclusive with ``latency``.
    latency:
        Switch-latency model for the default backend; omitted means the
        zero model (instantaneous transitions, the pre-backend behaviour).
    """

    def __init__(
        self,
        node: HeterogeneousNode,
        costs: TelemetryCosts,
        vendor: str = "intel",
        *,
        backend: Optional[ControlBackend] = None,
        latency: Optional[LatencyModel] = None,
    ):
        if vendor not in ("intel", "amd"):
            raise TelemetryError(f"unknown vendor {vendor!r}; expected 'intel' or 'amd'")
        if backend is not None and latency is not None:
            raise TelemetryError(
                "pass either a pre-built backend or a latency model, not both "
                "(a latency model parameterises the default SimBackend)"
            )
        self.node = node
        self.costs = costs
        self.vendor = vendor
        self.msr = MSRDevice(node, costs)
        self.pcm = PCMCounters(node, costs)
        self.rapl = RAPLCounters(node, costs)
        self.nvml = NVMLDevice(node)
        self.hsmp: Optional[HSMPDevice] = HSMPDevice(node, costs) if vendor == "amd" else None
        #: The control backend every actuation routes through.
        self.backend: ControlBackend = backend if backend is not None else SimBackend(latency)
        self.backend.bind(self)
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

    def on_tick(self, dt_s: float) -> None:
        """Advance every device's accumulators by one tick."""
        if self.fault_injector is not None:
            # Campaign time advances first so faults scheduled at this
            # tick's boundary are active for the accesses that follow.
            self.fault_injector.on_tick(dt_s)
        if self.guard is not None:
            # The guard's clock mirrors campaign time (breaker probe
            # schedules live on the sim clock, not wall time).
            self.guard.on_tick(dt_s)
        self.msr.on_tick(dt_s)
        self.pcm.on_tick(dt_s)
        self.rapl.on_tick(dt_s)
        self.nvml.on_tick(dt_s)
        if self.hsmp is not None:
            self.hsmp.on_tick(dt_s)
        # The backend ticks last: its settling accounting reads the state
        # the devices (and node step) just established.
        self.backend.on_tick(dt_s)

    def set_uncore_max_ghz(self, freq_ghz: float, meter: Optional[AccessMeter] = None) -> None:
        """Program the uncore/fabric ceiling through the control backend.

        Kept under its historical name — callers need no migration. The
        backend picks the vendor mechanism (MSR ``0x620`` on Intel, HSMP
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

    @property
    def actuation_pending(self) -> bool:
        """True while a backend-programmed transition is still in flight."""
        return self.backend.actuation_pending
