"""The heterogeneous compute node: sockets + memory + GPUs assembled.

:class:`HeterogeneousNode` is the object everything else touches: the
simulation engine steps it, telemetry devices read it, and governors actuate
it (through the MSR layer).  It owns no policy — the uncore target is
whatever was last written, exactly like real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import HardwareError
from repro.hw.cpu import CPUCoreModel, step_cores
from repro.hw.gpu import GPUGroup
from repro.hw.memory import MemorySubsystem
from repro.hw.power import PowerBreakdown
from repro.hw.uncore import UncoreModel

if TYPE_CHECKING:  # imported for typing only; avoids an hw <-> workloads cycle
    from repro.workloads.base import Segment

__all__ = ["NodeTickState", "HeterogeneousNode"]


@dataclass(frozen=True)
class NodeTickState:
    """Everything observable about the node after one tick."""

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
        _check_identical_parts(self._cpus)
        # Per-core state in global core order; each step replaces these.
        self._core_utils = np.concatenate([cpu.core_utils for cpu in self._cpus])
        self._core_freqs_ghz = np.concatenate([cpu.core_freqs_ghz for cpu in self._cpus])
        self._core_ipc = np.concatenate([cpu.core_ipc for cpu in self._cpus])
        self._jitter = np.empty((len(self._cpus), self._cpus[0].n_cores))
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

    def uncore_effective_ghz(self) -> float:
        """Mean effective uncore frequency across sockets."""
        return _socket_mean([unc.effective_ghz for _, unc in self.sockets])

    def uncore_target_ghz(self) -> float:
        """Mean target uncore frequency across sockets."""
        return _socket_mean([unc.target_ghz for _, unc in self.sockets])

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
        return self._core_utils

    @property
    def core_freqs_ghz(self) -> np.ndarray:
        """Every core's frequency after the latest step, ``(n_cores,)``."""
        return self._core_freqs_ghz

    @property
    def core_ipc(self) -> np.ndarray:
        """Every core's IPC after the latest step, ``(n_cores,)``."""
        return self._core_ipc

    # ------------------------------------------------------------------
    # Simulation step
    # ------------------------------------------------------------------
    def step(self, dt_s: float, segment: Optional["Segment"]) -> NodeTickState:
        """Advance the node by ``dt_s`` under the given workload segment.

        Passing ``segment=None`` models an idle node (no application), used
        by the Table 2 overhead experiments.
        """
        if dt_s <= 0:
            raise HardwareError(f"dt must be positive, got {dt_s!r}")
        self._time_s += dt_s

        for _, unc in self.sockets:
            unc.step(dt_s)
        eff_unc = self.uncore_effective_ghz()
        unc_ratio = eff_unc / self.uncore_max_ghz

        if segment is None:
            demand, mem_intensity, cpu_util, gpu_util = 0.0, 0.0, 0.0, 0.0
        else:
            demand = segment.mem_bw_gbps
            mem_intensity = segment.mem_intensity
            cpu_util = segment.cpu_util
            gpu_util = segment.gpu_util

        svc = self.memory.service(demand, mem_intensity, eff_unc)
        # IPC stall factor. In GPU-dominant phases most of the memory-bound
        # critical path is DMA/staging traffic, not CPU load-stalls, so CPU
        # IPC reflects only a weakly coupled share of unmet demand. This
        # asymmetry is why an IPC-guarded policy (UPS) misjudges GPU
        # workloads while throughput-guided MAGUS does not (§2 challenge 2).
        stall_factor = 1.0 - self.cpu_mem_coupling * mem_intensity * (1.0 - svc.served_fraction)

        cores = step_cores(self._cpus, cpu_util, stall_factor, unc_ratio, self._jitter)
        self._core_utils = cores.utils.reshape(-1)
        self._core_freqs_ghz = cores.freqs_ghz.reshape(-1)
        self._core_ipc = cores.ipc.reshape(-1)
        core_w = 0.0
        uncore_w = 0.0
        for socket_w, (_, unc) in zip(cores.power_w, self.sockets):
            core_w += socket_w
            uncore_w += unc.power_w(svc.traffic_util)

        self.gpus.step(gpu_util)

        power = PowerBreakdown(
            core_w=core_w,
            uncore_w=uncore_w,
            dram_w=self.memory.dram_power_w(svc.delivered_gbps),
            gpu_w=self.gpus.power_w(),
            monitor_w=self.monitor_power_w,
        )
        state = NodeTickState(
            time_s=self._time_s,
            demand_gbps=demand,
            delivered_gbps=svc.delivered_gbps,
            stretch=svc.stretch,
            power=power,
            uncore_target_ghz=self.uncore_target_ghz(),
            uncore_effective_ghz=eff_unc,
            mean_ipc=_socket_mean(cores.mean_ipc),
            mean_core_freq_ghz=_socket_mean(cores.mean_freq_ghz),
            gpu_sm_clock_ghz=self.gpus.mean_sm_clock_ghz(),
            served_fraction=svc.served_fraction,
        )
        self._last_state = state
        return state

    @property
    def last_state(self) -> Optional[NodeTickState]:
        """The most recent tick state (``None`` before the first step)."""
        return self._last_state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeterogeneousNode({self.name!r}, sockets={len(self.sockets)}, "
            f"cores={self.n_cores}, gpus={len(self.gpus)})"
        )


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

    Below eight terms NumPy's pairwise sum adds in order from 0.0, so an
    in-order float loop gives the same double. (The builtin ``sum`` does
    not: from Python 3.12 it compensates float sums.)
    """
    n = len(values)
    if n >= 8:
        return float(np.mean(values))
    total = 0.0
    for value in values:
        total += value
    return total / n
