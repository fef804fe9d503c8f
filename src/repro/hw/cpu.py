"""CPU core complex model: per-core DVFS, power, and IPC.

One :class:`CPUCoreModel` represents the *core* side of one socket (the
uncore lives in :mod:`repro.hw.uncore`).  Three behaviours matter for the
reproduction:

* **Per-core DVFS (paper Fig. 1a).** Core frequencies follow per-core
  utilisation — the vendor-default behaviour the paper contrasts with the
  stuck-at-max uncore. A fixed weight profile concentrates utilisation on
  low-index cores (data-loader / driver threads of GPU workloads), so the
  plotted cores show realistic spread.
* **Power.** ``P = static + Σ_i (idle_core + peak_core * util_i *
  (0.3 + 0.7 (f_i/f_max)^2))`` — calibrated so a dual-socket Xeon 8380 node
  running a GPU-dominant workload draws far below TDP, which is precisely
  why the vendor-default uncore governor never downscales.
* **IPC.** UPS (the baseline runtime) reads per-core instructions/cycles
  MSRs and reacts to IPC loss. IPC here degrades when memory demand is
  unmet and, mildly, with uncore frequency itself (higher LLC latency).

:func:`step_cores` advances a stack of identical sockets at once: socket
``s`` is row ``s`` of ``(n_sockets, n_cores)`` arrays, so a node (or a
:class:`~repro.hw.node.NodeBatch` of nodes) pays each NumPy call once per
tick rather than once per socket. :meth:`CPUCoreModel.step` is the same
function on a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Union

import numpy as np

from repro.errors import PowerModelError
from repro.units import clamp

__all__ = ["CPUPowerParams", "CPUCoreModel", "CoreStep", "step_cores"]


@dataclass(frozen=True)
class CPUPowerParams:
    """Coefficients of the per-socket core-domain power model."""

    static_w: float = 20.0
    idle_core_w: float = 0.30
    peak_core_w: float = 3.5

    def __post_init__(self) -> None:
        if min(self.static_w, self.idle_core_w, self.peak_core_w) < 0:
            raise PowerModelError("CPU power coefficients must be non-negative")


class CPUCoreModel:
    """The core complex of one socket.

    Parameters
    ----------
    n_cores:
        Physical core count of the socket.
    min_ghz / max_ghz:
        Core DVFS range (max includes turbo headroom).
    power:
        Power model coefficients.
    peak_ipc:
        Per-core IPC when fully fed (no memory stalls, max uncore).
    rng:
        Generator for per-core utilisation jitter. Deterministic runs pass
        a stream from :class:`~repro.sim.rng.RngStreams`.
    """

    def __init__(
        self,
        n_cores: int = 40,
        *,
        min_ghz: float = 0.8,
        max_ghz: float = 3.4,
        power: CPUPowerParams = CPUPowerParams(),
        peak_ipc: float = 2.0,
        rng: np.random.Generator | None = None,
    ):
        if n_cores < 1:
            raise PowerModelError(f"need at least one core, got {n_cores!r}")
        if not (0 < min_ghz < max_ghz):
            raise PowerModelError(f"invalid core DVFS range [{min_ghz}, {max_ghz}]")
        self.n_cores = int(n_cores)
        self.min_ghz = float(min_ghz)
        self.max_ghz = float(max_ghz)
        self.power_params = power
        self.peak_ipc = float(peak_ipc)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        # Fixed per-core weight profile: a handful of hot cores (GPU driver,
        # data-loader workers) and a long cold tail. Normalised to mean 1.
        ranks = np.arange(self.n_cores, dtype=float)
        weights = 1.0 / (1.0 + 0.35 * ranks)
        self._weights = weights * (self.n_cores / weights.sum())
        self._utils = np.zeros(self.n_cores)
        self._freqs = np.full(self.n_cores, self.min_ghz)
        self._ipc = np.zeros(self.n_cores)
        self._jitter = np.empty((1, self.n_cores))
        self._mean_ipc = 0.0
        self._power_w = float(_socket_power_w(self, self._utils, self._freqs))

    # ------------------------------------------------------------------
    # State update
    # ------------------------------------------------------------------
    def step(self, socket_util: float, mem_stall_factor: float, uncore_ratio: float) -> None:
        """Advance one tick: :func:`step_cores` on a stack of one socket."""
        step_cores((self,), (socket_util,), (mem_stall_factor,), (uncore_ratio,), self._jitter)

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------
    @property
    def core_utils(self) -> np.ndarray:
        """Per-core utilisation after the latest :meth:`step` (read-only view)."""
        return self._utils

    @property
    def core_freqs_ghz(self) -> np.ndarray:
        """Per-core frequencies after the latest :meth:`step`."""
        return self._freqs

    @property
    def core_ipc(self) -> np.ndarray:
        """Per-core IPC after the latest :meth:`step`."""
        return self._ipc

    def mean_ipc(self) -> float:
        """Socket-average IPC over *active* cores (0 if all idle), as of the
        latest step."""
        return self._mean_ipc

    def power_w(self) -> float:
        """Core-domain power of the socket, as of the latest step."""
        return self._power_w

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CPUCoreModel(n_cores={self.n_cores}, util={self._utils.mean():.2f})"


class CoreStep(NamedTuple):
    """What :func:`step_cores` computed: per-core arrays with one row per
    socket, and per-socket reductions in socket order."""

    utils: np.ndarray
    freqs_ghz: np.ndarray
    ipc: np.ndarray
    mean_ipc: List[float]
    power_w: List[float]
    mean_freq_ghz: List[float]


def _socket_power_w(cpu: CPUCoreModel, utils: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Core-domain power per socket (over the last axis) of ``cpu``'s part."""
    p = cpu.power_params
    f_ratio_sq = (freqs / cpu.max_ghz) ** 2
    per_core = p.idle_core_w + p.peak_core_w * utils * (0.3 + 0.7 * f_ratio_sq)
    return p.static_w + np.add.reduce(per_core, axis=-1)


def step_cores(
    cpus: Sequence[CPUCoreModel],
    socket_util: Sequence[float],
    mem_stall_factor: Sequence[float],
    uncore_ratio: Sequence[float],
    jitter: np.ndarray,
) -> CoreStep:
    """Advance a stack of identical sockets by one tick.

    The stack holds the sockets of one or more nodes, node after node, each
    node with the same number of sockets; the three operating-point
    arguments carry one value per node. Each socket draws its jitter from
    its own stream, in stack order, into its row of ``jitter`` (an
    ``(len(cpus), n_cores)`` scratch buffer the caller owns). Everything
    after the draws runs once over the whole stack, and every reduction
    runs along one socket's row. Every socket's model is left holding its
    row of the new arrays and its reductions, so its observables read as
    if it had stepped alone. The arrays are fresh each call; earlier ones
    are never mutated.

    Parameters
    ----------
    cpus:
        The sockets, all of one part (core count, DVFS range, peak IPC and
        power coefficients); the first one's parameters serve the stack.
    socket_util:
        Per node: average utilisation demanded of each of its sockets, in
        [0, 1].
    mem_stall_factor:
        Per node: 1.0 when memory demand is fully served, < 1 proportional
        to the served fraction otherwise — stalls depress IPC.
    uncore_ratio:
        Per node: effective uncore frequency over max; low uncore adds
        LLC/mesh latency that mildly depresses IPC even when bandwidth
        suffices.
    jitter:
        Scratch buffer for the draws, overwritten.
    """
    for util in socket_util:
        if not (0.0 <= util <= 1.0):
            raise PowerModelError(f"socket_util must be in [0, 1], got {util!r}")
    part = cpus[0]
    n = part.n_cores
    for s, cpu in enumerate(cpus):
        jitter[s] = cpu._rng.normal(1.0, 0.06, n)
    # Each node's IPC level for its active cores, in Python floats.
    levels = [
        part.peak_ipc * clamp(stall, 0.05, 1.0) * (0.88 + 0.12 * clamp(ratio, 0.0, 1.0))
        for stall, ratio in zip(mem_stall_factor, uncore_ratio)
    ]
    if len(levels) == 1:
        # One node: its values broadcast over every row as Python floats.
        util_rows: Union[float, np.ndarray] = socket_util[0]
        level_rows: Union[float, np.ndarray] = levels[0]
    else:
        # One column entry per socket, repeated across its node's sockets.
        per_node = len(cpus) // len(levels)
        util_rows = np.repeat(socket_util, per_node)[:, None]
        level_rows = np.repeat(levels, per_node)[:, None]
    # ``ndarray.clip`` is the ufunc ``np.clip`` dispatches to, called directly.
    utils = (util_rows * part._weights * jitter).clip(0.0, 1.0)
    # DVFS: frequency tracks utilisation with a mild floor; a lightly
    # loaded core sits near min frequency, a saturated core turbos.
    span = part.max_ghz - part.min_ghz
    freqs = (part.min_ghz + span * np.minimum(utils * 1.3, 1.0)).clip(part.min_ghz, part.max_ghz)
    # Active cores retire instructions and count toward the mean IPC.
    active = utils > 1e-3
    ipc = np.where(active, level_rows, 0.0)

    power_w = _socket_power_w(part, utils, freqs).tolist()
    ipc_sums = np.add.reduce(ipc, axis=1).tolist()
    mean_freq_ghz = [total / n for total in np.add.reduce(freqs, axis=1).tolist()]
    n_active = np.add.reduce(active, axis=1, dtype=np.intp).tolist()
    mean_ipc: List[float] = []
    for s, cpu in enumerate(cpus):
        k = n_active[s]
        if k == n:
            socket_ipc = ipc_sums[s] / n
        elif k:
            # Zeros in the row would regroup the pairwise sum: reduce over
            # the active cores alone, as a socket stepped alone does.
            socket_ipc = float(ipc[s][active[s]].mean())
        else:
            socket_ipc = 0.0
        mean_ipc.append(socket_ipc)
        cpu._utils = utils[s]
        cpu._freqs = freqs[s]
        cpu._ipc = ipc[s]
        cpu._mean_ipc = socket_ipc
        cpu._power_w = power_w[s]
    return CoreStep(utils, freqs, ipc, mean_ipc, power_w, mean_freq_ghz)
