"""The heterogeneous compute node: sockets + memory + GPUs assembled.

:class:`HeterogeneousNode` is the object everything else touches: the
simulation engine steps it, telemetry devices read it, and governors actuate
it (through the MSR layer).  It owns no policy — the uncore target is
whatever was last written, exactly like real hardware.

A node steps a span of ticks at a time, a single tick being the span of
one; its sockets' cores step as one stack. The span's first tick is
settled first (:meth:`HeterogeneousNode.settle`): the uncore slew, then
the tick's scalar physics, reused from the last recomputed tick while the
inputs repeat (:class:`_TickPhysics`). A node whose sockets are all
settled may span; one with a slewing socket or a pending switch steps a
tick at a time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import HardwareError
from repro.hw.cpu import CoreBlock, CPUCoreModel, step_cores
from repro.hw.gpu import GPUGroup
from repro.hw.memory import MemoryServiceResult, MemorySubsystem
from repro.hw.power import PowerBreakdown
from repro.hw.uncore import UncoreModel
from repro.units import require_finite

if TYPE_CHECKING:  # imported for typing only; avoids an hw <-> workloads cycle
    from repro.workloads.base import Segment

__all__ = ["NodeTickState", "HeterogeneousNode"]


class NodeTickState(NamedTuple):
    """Everything observable about the node after one step.

    A step spans ``ticks`` ticks under one set of inputs (a single tick is
    the span of one). The unprefixed fields describe the span's last tick,
    so a reader that only looks at them sees the latest tick. The ``tick_``
    fields hold one value per tick of the span, the last equal to the
    unprefixed field; everything else is the same on every tick of a span.

    A named tuple rather than a frozen dataclass: a node builds one per
    step, and a tuple is built several times faster.
    """

    time_s: float
    demand_gbps: float
    delivered_gbps: float
    stretch: float
    power: PowerBreakdown
    uncore_target_ghz: float
    uncore_effective_ghz: float
    mean_ipc: float
    mean_core_freq_ghz: float
    gpu_sm_clock_ghz: float
    served_fraction: float
    ticks: int
    tick_time_s: Sequence[float]
    tick_core_w: Sequence[float]
    tick_package_w: Sequence[float]
    tick_mean_ipc: Sequence[float]
    tick_mean_core_freq_ghz: Sequence[float]


class _TickPhysics(NamedTuple):
    """A node tick's scalar physics and the inputs it was derived from.

    The inputs are the segment (matched by identity, so a ``-0.0`` field
    never matches ``0.0``) and each socket's effective and target uncore
    frequency after the slew; everything else these values read is fixed
    for the node's lifetime. While a tick's inputs equal these, the node
    reuses the values instead of calling the memory, uncore-power and GPU
    models (DESIGN.md §6p).
    """

    segment: Optional["Segment"]
    effective_ghz: List[float]
    target_ghz: List[float]
    uncore_effective_ghz: float
    uncore_target_ghz: float
    demand_gbps: float
    cpu_util: float
    service: MemoryServiceResult
    stall: float
    uncore_ratio: float
    uncore_w: float
    dram_w: float
    gpu_w: float
    gpu_sm_clock_ghz: float


class HeterogeneousNode:
    """A CPU-GPU node assembled from component models.

    Parameters
    ----------
    sockets:
        ``(cpu, uncore)`` pairs, one per socket. All core complexes must be
        the same part (as in every system the paper evaluates): they step
        together as the rows of one array.
    memory:
        The node-level memory subsystem.
    gpus:
        The GPU group.
    tdp_w_per_socket:
        Thermal design power of each socket; the vendor-default governor
        keys on package power approaching this.
    cpu_mem_coupling:
        Fraction of a phase's unmet memory demand that shows up as CPU
        core stalls (depressing IPC). Low for GPU-dominant workloads,
        whose memory-bound path is DMA/staging rather than CPU loads.
    name:
        Preset name, carried into reports.
    """

    def __init__(
        self,
        sockets: Sequence[Tuple[CPUCoreModel, UncoreModel]],
        memory: MemorySubsystem,
        gpus: GPUGroup,
        *,
        tdp_w_per_socket: float = 270.0,
        cpu_mem_coupling: float = 0.2,
        name: str = "node",
    ):
        if not sockets:
            raise HardwareError("node needs at least one socket")
        if tdp_w_per_socket <= 0:
            raise HardwareError(f"TDP must be positive, got {tdp_w_per_socket!r}")
        if not (0.0 <= cpu_mem_coupling <= 1.0):
            raise HardwareError(f"cpu_mem_coupling must be in [0, 1], got {cpu_mem_coupling!r}")
        self.cpu_mem_coupling = float(cpu_mem_coupling)
        self.sockets: List[Tuple[CPUCoreModel, UncoreModel]] = list(sockets)
        cpus = tuple(cpu for cpu, _ in self.sockets)
        _check_identical_parts(cpus)
        self._block = CoreBlock(cpus)
        # Per-core state in global core order, one row per tick of the
        # latest step; each step replaces these.
        self._tick_utils = np.concatenate([cpu.core_utils for cpu in cpus])[None]
        self._tick_freqs_ghz = np.concatenate([cpu.core_freqs_ghz for cpu in cpus])[None]
        self._tick_ipc = np.concatenate([cpu.core_ipc for cpu in cpus])[None]
        self.memory = memory
        self.gpus = gpus
        self.tdp_w_per_socket = float(tdp_w_per_socket)
        self.name = name
        #: Average power of the monitoring runtime, set by the active daemon
        #: each decision cycle (energy of its counter reads amortised over
        #: the cycle). Charged to the package domain.
        self.monitor_power_w = 0.0
        #: True while a supervising runtime has failed-safe: the governor
        #: is down and the uncore sits pinned at the vendor-default
        #: ceiling. Cleared on successful re-arm. Schedulers treat degraded
        #: nodes as serving-but-unmanaged (power waste, not an outage).
        self.degraded = False
        self._last_state: Optional[NodeTickState] = None
        self._time_s = 0.0
        # The last recomputed tick's physics.
        self._physics: Optional[_TickPhysics] = None
        # The settled first tick of the next step: its dt, segment and
        # whether the node is steady (see settle).
        self._settled: Optional[Tuple[float, Optional["Segment"], bool]] = None

    # ------------------------------------------------------------------
    # Uncore control surface (what MSR 0x620 writes reach)
    # ------------------------------------------------------------------
    @property
    def n_sockets(self) -> int:
        """Number of sockets."""
        return len(self.sockets)

    @property
    def n_cores(self) -> int:
        """Total core count across sockets."""
        return sum(cpu.n_cores for cpu, _ in self.sockets)

    def uncore(self, socket: int = 0) -> UncoreModel:
        """The uncore model of one socket."""
        if not (0 <= socket < len(self.sockets)):
            raise HardwareError(f"no such socket {socket!r} (node has {len(self.sockets)})")
        return self.sockets[socket][1]

    def cpu(self, socket: int = 0) -> CPUCoreModel:
        """The core-complex model of one socket."""
        if not (0 <= socket < len(self.sockets)):
            raise HardwareError(f"no such socket {socket!r} (node has {len(self.sockets)})")
        return self.sockets[socket][0]

    def set_uncore_target_all(self, freq_ghz: float) -> float:
        """Set every socket's uncore target; returns the snapped value."""
        snapped = freq_ghz
        for _, unc in self.sockets:
            snapped = unc.set_target(freq_ghz)
        return snapped

    def force_uncore_all(self, freq_ghz: float) -> None:
        """Instantly pin every socket's uncore (initial conditions only)."""
        for _, unc in self.sockets:
            unc.force(freq_ghz)

    @property
    def uncore_min_ghz(self) -> float:
        """Lower bound of the uncore range (socket 0; sockets are identical)."""
        return self.sockets[0][1].min_ghz

    @property
    def uncore_max_ghz(self) -> float:
        """Upper bound of the uncore range."""
        return self.sockets[0][1].max_ghz

    # ------------------------------------------------------------------
    # Per-core state, node-wide (cores numbered across sockets in order)
    # ------------------------------------------------------------------
    @property
    def core_utils(self) -> np.ndarray:
        """Every core's utilisation after the latest step, ``(n_cores,)``.

        Each step replaces the array: a reference taken before a step keeps
        that tick's values.
        """
        return self._tick_utils[-1]

    @property
    def core_freqs_ghz(self) -> np.ndarray:
        """Every core's frequency after the latest step, ``(n_cores,)``."""
        return self._tick_freqs_ghz[-1]

    @property
    def core_ipc(self) -> np.ndarray:
        """Every core's IPC after the latest step, ``(n_cores,)``."""
        return self._tick_ipc[-1]

    @property
    def tick_core_utils(self) -> np.ndarray:
        """Every core's utilisation on each tick of the latest step,
        ``(ticks, n_cores)``; never written."""
        return self._tick_utils

    @property
    def tick_core_freqs_ghz(self) -> np.ndarray:
        """Every core's frequency on each tick of the latest step."""
        return self._tick_freqs_ghz

    @property
    def tick_core_ipc(self) -> np.ndarray:
        """Every core's IPC on each tick of the latest step."""
        return self._tick_ipc

    @property
    def max_span_ticks(self) -> int:
        """The most ticks one step of this node can span: its core block's
        length."""
        return self._block.ticks

    # ------------------------------------------------------------------
    # Simulation step
    # ------------------------------------------------------------------
    def settle(self, dt_s: float, segment: Optional["Segment"]) -> Tuple[float, bool]:
        """Settle the first tick of the node's next step of ``dt_s`` under
        ``segment``: slew every socket's uncore, then reuse the last
        recomputed tick's scalar physics while the segment and the sockets'
        uncore frequencies repeat (DESIGN.md §6p), or derive them.

        Returns the tick's roofline stretch and whether the node is steady:
        every socket settled, its effective uncore frequency equal to its
        target and no target pending. A steady node's later ticks repeat
        this tick's inputs, so its next step may span them (DESIGN.md §6q).
        The next :meth:`step` must take the same ``dt_s`` and segment.
        """
        # NaN passes the comparison below; an infinite dt makes every time
        # infinite or NaN.
        require_finite(dt_s, error=_non_finite_dt)
        if dt_s <= 0:
            raise HardwareError(f"dt must be positive, got {dt_s!r}")
        if self._settled is not None:
            raise HardwareError("the node's next step is already settled")
        # Each socket's slew returns its new effective frequency. A settled
        # socket with nothing pending keeps it: the slew of a span's first
        # tick is the slew of all of them.
        sockets = self.sockets
        effective = [unc.step(dt_s) for _, unc in sockets]
        target = [unc.target_ghz for _, unc in sockets]
        physics = self._physics
        if (
            physics is None
            or physics.segment is not segment
            or physics.effective_ghz != effective
            or physics.target_ghz != target
        ):
            physics = self._physics = self._derive_physics(segment, effective, target)
        # A switch latency still running changes the target later.
        steady = effective == target and all(
            unc.pending_target_ghz is None for _, unc in sockets
        )
        self._settled = (dt_s, segment, steady)
        return physics.service.stretch, steady

    def step(self, dt_s: float, segment: Optional["Segment"], ticks: int = 1) -> NodeTickState:
        """Advance the node by a span of ticks of ``dt_s`` under the given
        workload segment.

        Passing ``segment=None`` models an idle node (no application), used
        by the Table 2 overhead experiments. The span's first tick is the
        one :meth:`settle` settled; a step without a prior settle settles
        itself, and one whose ``dt_s`` or segment is not the settle's
        raises. The sockets' cores then step as one
        :func:`~repro.hw.cpu.step_cores` stack, their jitter-driven state
        derived a :class:`~repro.hw.cpu.CoreBlock` of ticks at a time; then
        come the per-tick power, means and times, the power breakdown and
        the state.

        A span of more than one tick needs a steady node (:meth:`settle`),
        whose later ticks repeat the first's inputs; a span over a node that
        is not steady raises. The span is cut short where the core block
        ends (DESIGN.md §6q); the state's ``ticks`` says how many it took.
        """
        settled = self._settled
        if settled is None:
            self.settle(dt_s, segment)
            settled = self._settled
        self._settled = None
        settled_dt_s, settled_segment, steady = settled
        if settled_dt_s != dt_s or settled_segment is not segment:
            raise HardwareError(
                f"a step of {dt_s!r} s under {segment!r} after a settle of "
                f"{settled_dt_s!r} s under {settled_segment!r}"
            )
        if ticks > 1 and not steady:
            raise HardwareError(f"a {ticks}-tick span needs every socket settled")
        physics = self._physics
        cores = step_cores(
            self._block, physics.cpu_util, physics.stall, physics.uncore_ratio, ticks
        )
        tick_power_w = cores.tick_power_w
        ticks = len(tick_power_w)
        self._tick_utils = cores.tick_utils.reshape(ticks, -1)
        self._tick_freqs_ghz = cores.tick_freqs_ghz.reshape(ticks, -1)
        self._tick_ipc = cores.tick_ipc.reshape(ticks, -1)
        uncore_w = physics.uncore_w
        monitor_w = self.monitor_power_w
        time_s = self._time_s
        # One (time, core, package, mean IPC, mean frequency) per tick.
        per_tick = []
        for power_w, mean_ipc, mean_freq in zip(
            tick_power_w, cores.tick_mean_ipc, cores.tick_mean_freq_ghz
        ):
            time_s += dt_s
            core_w = 0.0
            for socket_w in power_w:
                core_w += socket_w
            per_tick.append(
                (
                    time_s,
                    core_w,
                    # PowerBreakdown.package_w's sum, in its order.
                    core_w + uncore_w + monitor_w,
                    _socket_mean(mean_ipc),
                    _socket_mean(mean_freq),
                )
            )
        self._time_s = time_s
        times, core_ws, packages, ipcs, freqs = zip(*per_tick)
        svc = physics.service
        # Positional: a named tuple binds keywords several times slower.
        state = self._last_state = NodeTickState(
            time_s,
            physics.demand_gbps,
            svc.delivered_gbps,
            svc.stretch,
            PowerBreakdown(core_w, uncore_w, physics.dram_w, physics.gpu_w, monitor_w),
            physics.uncore_target_ghz,
            physics.uncore_effective_ghz,
            ipcs[-1],
            freqs[-1],
            physics.gpu_sm_clock_ghz,
            svc.served_fraction,
            ticks,
            times,
            core_ws,
            packages,
            ipcs,
            freqs,
        )
        return state

    def _derive_physics(
        self,
        segment: Optional["Segment"],
        effective_ghz: List[float],
        target_ghz: List[float],
    ) -> _TickPhysics:
        """This tick's scalar physics from its inputs; steps the GPUs."""
        eff_unc = _socket_mean(effective_ghz)
        if segment is None:
            demand, mem_intensity, cpu_util, gpu_util = 0.0, 0.0, 0.0, 0.0
        else:
            demand = segment.mem_bw_gbps
            mem_intensity = segment.mem_intensity
            cpu_util = segment.cpu_util
            gpu_util = segment.gpu_util
        svc = self.memory.service(demand, mem_intensity, eff_unc)
        uncore_w = 0.0
        for _, unc in self.sockets:
            uncore_w += unc.power_w(svc.traffic_util)
        self.gpus.step(gpu_util)
        return _TickPhysics(
            segment,
            effective_ghz,
            target_ghz,
            eff_unc,
            _socket_mean(target_ghz),
            demand,
            cpu_util,
            svc,
            # IPC stall factor. In GPU-dominant phases most of the
            # memory-bound critical path is DMA/staging traffic, not CPU
            # load-stalls, so CPU IPC reflects only a weakly coupled share
            # of unmet demand. This asymmetry is why an IPC-guarded policy
            # (UPS) misjudges GPU workloads while throughput-guided MAGUS
            # does not (§2 challenge 2).
            1.0 - self.cpu_mem_coupling * mem_intensity * (1.0 - svc.served_fraction),
            eff_unc / self.uncore_max_ghz,
            uncore_w,
            self.memory.dram_power_w(svc.delivered_gbps),
            self.gpus.power_w(),
            self.gpus.mean_sm_clock_ghz(),
        )

    @property
    def last_state(self) -> Optional[NodeTickState]:
        """The most recent tick state (``None`` before the first step)."""
        return self._last_state

    @property
    def time_s(self) -> float:
        """The node's running time: its latest tick's ``time_s``, 0.0 before
        its first step."""
        return self._time_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeterogeneousNode({self.name!r}, sockets={len(self.sockets)}, "
            f"cores={self.n_cores}, gpus={len(self.gpus)})"
        )


def _non_finite_dt(dt_s: float) -> HardwareError:
    return HardwareError(f"dt must be finite, got {dt_s!r}")


def _check_identical_parts(cpus: Sequence[CPUCoreModel]) -> None:
    """Raise unless every core complex is the same part as the first."""
    part = cpus[0]
    for s, cpu in enumerate(cpus[1:], start=1):
        for field, mine, theirs in (
            ("core count", cpu.n_cores, part.n_cores),
            ("core DVFS range", (cpu.min_ghz, cpu.max_ghz), (part.min_ghz, part.max_ghz)),
            ("peak_ipc", cpu.peak_ipc, part.peak_ipc),
            ("CPUPowerParams", cpu.power_params, part.power_params),
        ):
            if mine != theirs:
                raise HardwareError(
                    f"socket {s} differs from socket 0 in {field}: {mine!r} vs {theirs!r}"
                )


def _socket_mean(values: Sequence[float]) -> float:
    """``float(np.mean(values))`` for a few per-socket floats, without NumPy.

    Below eight terms NumPy's pairwise sum adds in order from 0.0, so the
    ordered sum of :func:`~repro.units.ordered_sum`, inlined here (a node
    step takes two means a tick), gives the same double.
    """
    n = len(values)
    if n >= 8:
        return float(np.mean(values))
    total = 0.0
    for value in values:
        total = total + value
    return total / n
