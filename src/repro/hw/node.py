"""The heterogeneous compute node: sockets + memory + GPUs assembled.

:class:`HeterogeneousNode` is the object everything else touches: the
simulation engine steps it, telemetry devices read it, and governors actuate
it (through the MSR layer).  It owns no policy — the uncore target is
whatever was last written, exactly like real hardware.

:class:`NodeBatch` steps several nodes of one part together: their scalar
physics one node at a time, their cores as one stack. A node stepped alone
is a batch of one. A node whose inputs repeat its last recomputed tick's
reuses that tick's scalar physics (:class:`_TickPhysics`).
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

if TYPE_CHECKING:  # imported for typing only; avoids an hw <-> workloads cycle
    from repro.workloads.base import Segment

__all__ = ["NodeTickState", "HeterogeneousNode", "NodeBatch"]


class NodeTickState(NamedTuple):
    """Everything observable about the node after one step.

    A step spans ``ticks`` ticks under one set of inputs (a single tick is
    the span of one). The unprefixed fields describe the span's last tick,
    so a reader that only looks at them sees the latest tick. The ``tick_``
    fields hold one value per tick of the span, the last equal to the
    unprefixed field; everything else is the same on every tick of a span.

    A named tuple rather than a frozen dataclass: a batch builds one per
    node per step, and a tuple is built several times faster.
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
    for the node's lifetime. While a tick's inputs equal these, the batch
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
        self._cpus = tuple(cpu for cpu, _ in self.sockets)
        # The node steps as a batch of one, which rejects sockets that are
        # not all one part.
        self._alone = NodeBatch((self,))
        # Per-core state in global core order, one row per tick of the
        # latest step; each step replaces these.
        self._tick_utils = np.concatenate([cpu.core_utils for cpu in self._cpus])[None]
        self._tick_freqs_ghz = np.concatenate([cpu.core_freqs_ghz for cpu in self._cpus])[None]
        self._tick_ipc = np.concatenate([cpu.core_ipc for cpu in self._cpus])[None]
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
        # The last recomputed tick's physics; it outlives the node's batches.
        self._physics: Optional[_TickPhysics] = None

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
        length when stepped alone (a batch's block is no longer)."""
        return self._alone._block.ticks

    # ------------------------------------------------------------------
    # Simulation step
    # ------------------------------------------------------------------
    def step(self, dt_s: float, segment: Optional["Segment"]) -> NodeTickState:
        """Advance the node by one tick of ``dt_s`` under the given workload
        segment.

        Passing ``segment=None`` models an idle node (no application), used
        by the Table 2 overhead experiments. The node steps as a
        :class:`NodeBatch` of one, for a span of one tick.
        """
        return self._alone.step(dt_s, (segment,))[0]

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

    @staticmethod
    def batch(nodes: Sequence["HeterogeneousNode"]) -> "NodeBatch":
        """``nodes`` as one :class:`NodeBatch`.

        For layers that import this module for typing only (the engine).
        """
        return NodeBatch(nodes)

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


class NodeBatch:
    """Nodes of one part, stepped together a span of ticks at a time.

    Each step runs every node's scalar physics in node order: the uncore
    slew, then memory service, stall factor, uncore ratio, uncore, DRAM and
    GPU power, which it reuses from the node's last recomputed tick while the
    segment and the sockets' uncore frequencies repeat; after the cores, the
    per-tick power, means and times, the power breakdown and the state. The
    cores of all nodes step in one :func:`~repro.hw.cpu.step_cores` call
    over the ``(Σ sockets, n_cores)`` stack, node after node, so the batch
    pays each NumPy call once per step rather than once per node, and
    derives their jitter-driven state a :class:`~repro.hw.cpu.CoreBlock` of
    ticks at a time. A step spans several ticks only while every node's
    inputs repeat (DESIGN.md §6q). Each socket draws from its own stream,
    and every reduction runs along one socket's row, so each node ends every
    tick bit-identical to the same node stepped alone (DESIGN.md §6n, §6o).

    Parameters
    ----------
    nodes:
        Distinct nodes whose sockets are all one part (see
        :class:`HeterogeneousNode`) and that have the same socket count.
    """

    def __init__(self, nodes: Sequence[HeterogeneousNode]) -> None:
        if not nodes:
            raise HardwareError("a node batch needs at least one node")
        if len({id(node) for node in nodes}) != len(nodes):
            raise HardwareError("a node batch cannot hold the same node twice")
        per_node = len(nodes[0].sockets)
        for node in nodes:
            if len(node.sockets) != per_node:
                raise HardwareError(
                    f"node {node.name!r} has {len(node.sockets)} sockets, "
                    f"the batch's first node {per_node}"
                )
        self.nodes: Tuple[HeterogeneousNode, ...] = tuple(nodes)
        self._per_node = per_node
        self._cpus = tuple(cpu for node in self.nodes for cpu in node._cpus)
        _check_identical_parts(self._cpus)
        self._block = CoreBlock(self._cpus)

    def step(
        self, dt_s: float, segments: Sequence[Optional["Segment"]], ticks: int = 1
    ) -> List[NodeTickState]:
        """Advance every node by a span of ticks of ``dt_s``; ``segments[i]``
        drives node ``i``.

        The span is ``ticks`` ticks when every node's tick reuses its last
        recomputed physics (which a slewing socket never does) and no socket
        has a pending target, so its later ticks repeat the first's inputs;
        it is cut short where the core block ends, and is one tick
        otherwise. Each state's ``ticks`` says how many. A ``None``
        segment idles its node. Returns the nodes' states in node order.
        """
        if dt_s <= 0:
            raise HardwareError(f"dt must be positive, got {dt_s!r}")
        if len(segments) != len(self.nodes):
            raise HardwareError(
                f"{len(segments)} segments for a batch of {len(self.nodes)} nodes"
            )
        utils: List[float] = []
        stalls: List[float] = []
        ratios: List[float] = []
        spans: List[_TickPhysics] = []
        for node, segment in zip(self.nodes, segments):
            # Each socket's slew returns its new effective frequency. A
            # slewing socket moves it every tick, so its tick never matches
            # the last recomputed one; a matching socket is settled and,
            # with nothing pending, keeps its frequency: the slew of a
            # span's first tick is the slew of all of them.
            effective = [unc.step(dt_s) for _, unc in node.sockets]
            target = [unc.target_ghz for _, unc in node.sockets]
            physics = node._physics
            if (
                physics is None
                or physics.segment is not segment
                or physics.effective_ghz != effective
                or physics.target_ghz != target
            ):
                physics = node._physics = node._derive_physics(segment, effective, target)
                ticks = 1
            elif ticks > 1 and any(unc.pending_target_ghz is not None for _, unc in node.sockets):
                # A switch latency still running changes the target later.
                ticks = 1
            utils.append(physics.cpu_util)
            stalls.append(physics.stall)
            ratios.append(physics.uncore_ratio)
            spans.append(physics)

        cores = step_cores(self._block, utils, stalls, ratios, ticks)
        tick_power_w = cores.tick_power_w
        ticks = len(tick_power_w)
        n_nodes = len(self.nodes)
        node_utils = cores.tick_utils.reshape(ticks, n_nodes, -1)
        node_freqs = cores.tick_freqs_ghz.reshape(ticks, n_nodes, -1)
        node_ipc = cores.tick_ipc.reshape(ticks, n_nodes, -1)
        per_node = self._per_node
        states: List[NodeTickState] = []
        for i, (node, physics) in enumerate(zip(self.nodes, spans)):
            node._tick_utils = node_utils[:, i]
            node._tick_freqs_ghz = node_freqs[:, i]
            node._tick_ipc = node_ipc[:, i]
            first = i * per_node
            last = first + per_node
            uncore_w = physics.uncore_w
            monitor_w = node.monitor_power_w
            time_s = node._time_s
            # One (time, core, package, mean IPC, mean frequency) per tick.
            per_tick = []
            for power_w, mean_ipc, mean_freq in zip(
                tick_power_w, cores.tick_mean_ipc, cores.tick_mean_freq_ghz
            ):
                time_s += dt_s
                core_w = 0.0
                for socket_w in power_w[first:last]:
                    core_w += socket_w
                per_tick.append(
                    (
                        time_s,
                        core_w,
                        # PowerBreakdown.package_w's sum, in its order.
                        core_w + uncore_w + monitor_w,
                        _socket_mean(mean_ipc[first:last]),
                        _socket_mean(mean_freq[first:last]),
                    )
                )
            node._time_s = time_s
            times, core_ws, packages, ipcs, freqs = zip(*per_tick)
            svc = physics.service
            # Positional: a named tuple binds keywords several times slower.
            state = NodeTickState(
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
            node._last_state = state
            states.append(state)
        return states


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
