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
tick rather than once per socket. What depends only on utilisation and the
jitter (utilisation, frequency, activity and power per core) is derived a
:class:`CoreBlock` of ticks at a time, and so is the IPC under each IPC
level, which carries the memory stalls and the uncore ratio; only the mean
IPC of a partially active socket is per tick. One call steps a span of
ticks under one operating point, a single tick being the span of one.
:meth:`CPUCoreModel.step` is the same function on a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import PowerModelError

__all__ = ["CPUPowerParams", "CPUCoreModel", "CoreBlock", "CoreStep", "step_cores", "BLOCK_ROWS"]

#: Socket rows a :class:`CoreBlock` spans: 64 ticks of a 2-socket node, 4
#: of a 16-node batch, one tick from 128 sockets up.
BLOCK_ROWS = 128


@dataclass(frozen=True)
class CPUPowerParams:
    """Coefficients of the per-socket core-domain power model."""

    static_w: float = 20.0
    idle_core_w: float = 0.30
    peak_core_w: float = 3.5

    def __post_init__(self) -> None:
        if min(self.static_w, self.idle_core_w, self.peak_core_w) < 0:
            raise PowerModelError("CPU power coefficients must be non-negative")


class CoreStep(NamedTuple):
    """What :func:`step_cores` computed over its span of ticks.

    The ``tick_`` fields hold one entry per tick: per-core arrays shaped
    ``(ticks, sockets, n_cores)`` and per-socket reductions as one list per
    tick, in socket order. The unprefixed properties are the span's last
    tick. The arrays and lists may be shared with other ticks of the block
    and must not be written.
    """

    tick_utils: np.ndarray
    tick_freqs_ghz: np.ndarray
    tick_ipc: np.ndarray
    tick_mean_ipc: List[List[float]]
    tick_power_w: List[List[float]]
    tick_mean_freq_ghz: List[List[float]]

    @property
    def utils(self) -> np.ndarray:
        """The last tick's per-core utilisation, one row per socket."""
        return self.tick_utils[-1]

    @property
    def freqs_ghz(self) -> np.ndarray:
        """The last tick's per-core frequencies, one row per socket."""
        return self.tick_freqs_ghz[-1]

    @property
    def ipc(self) -> np.ndarray:
        """The last tick's per-core IPC, one row per socket."""
        return self.tick_ipc[-1]

    @property
    def mean_ipc(self) -> List[float]:
        """The last tick's per-socket mean IPC over active cores."""
        return self.tick_mean_ipc[-1]

    @property
    def power_w(self) -> List[float]:
        """The last tick's per-socket core-domain power."""
        return self.tick_power_w[-1]

    @property
    def mean_freq_ghz(self) -> List[float]:
        """The last tick's per-socket mean core frequency."""
        return self.tick_mean_freq_ghz[-1]


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
        utils = np.zeros((1, 1, self.n_cores))
        freqs = np.full((1, 1, self.n_cores), self.min_ghz)
        power_w = float(_socket_power_w(self, utils[0, 0], freqs[0, 0]))
        #: The latest step of the stack this socket is row ``_row`` of; the
        #: observables read its last tick.
        self._step = CoreStep(utils, freqs, np.zeros_like(utils), [[0.0]], [[power_w]], [[self.min_ghz]])
        self._row = 0
        #: Jitter rows drawn but not yet stepped through: ``_rows[0]`` is row
        #: ``_rows_at`` of the stream, and ``_pos`` counts the rows stepped
        #: through since construction (the socket's stream position).
        self._rows = np.empty((0, self.n_cores))
        self._rows_at = 0
        self._pos = 0
        self._lone: Optional[CoreBlock] = None

    # ------------------------------------------------------------------
    # State update
    # ------------------------------------------------------------------
    def step(self, socket_util: float, mem_stall_factor: float, uncore_ratio: float) -> None:
        """Advance one tick: :func:`step_cores` on a stack of one socket."""
        if self._lone is None:
            self._lone = CoreBlock((self,))
        step_cores(self._lone, (socket_util,), (mem_stall_factor,), (uncore_ratio,))

    def _jitter_rows(self, k: int) -> np.ndarray:
        """The next ``k`` jitter rows of the stream, ``(k, n_cores)``, read-only.

        Peeking steps through nothing: the rows go to whichever block steps
        the socket next. Rows not drawn yet are drawn in one
        ``normal(1.0, 0.06, (missing, n_cores))`` call, which equals that
        many one-row draws byte for byte.
        """
        first = self._pos - self._rows_at
        missing = first + k - len(self._rows)
        if missing > 0:
            fresh = self._rng.normal(1.0, 0.06, (missing, self.n_cores))
            self._rows = np.concatenate((self._rows[first:], fresh))
            self._rows_at = self._pos
            first = 0
        return self._rows[first : first + k]

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------
    @property
    def core_utils(self) -> np.ndarray:
        """Per-core utilisation after the latest :meth:`step` (read-only view)."""
        return self._step.tick_utils[-1, self._row]

    @property
    def core_freqs_ghz(self) -> np.ndarray:
        """Per-core frequencies after the latest :meth:`step`."""
        return self._step.tick_freqs_ghz[-1, self._row]

    @property
    def core_ipc(self) -> np.ndarray:
        """Per-core IPC after the latest :meth:`step`."""
        return self._step.tick_ipc[-1, self._row]

    def mean_ipc(self) -> float:
        """Socket-average IPC over *active* cores (0 if all idle), as of the
        latest step."""
        return self._step.tick_mean_ipc[-1][self._row]

    def power_w(self) -> float:
        """Core-domain power of the socket, as of the latest step."""
        return self._step.tick_power_w[-1][self._row]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CPUCoreModel(n_cores={self.n_cores}, util={self.core_utils.mean():.2f})"


class _Rows(NamedTuple):
    """Derived core state of a socket stack under one utilisation vector:
    ``(ticks, sockets, n_cores)`` arrays, and the per-socket reductions as
    one list per tick."""

    utils: np.ndarray
    freqs_ghz: np.ndarray
    active: np.ndarray
    power_w: list
    mean_freq_ghz: list
    n_active: list


class CoreBlock:
    """A socket stack's jitter-driven core state, a block of ticks at a time.

    The stack holds the sockets of one or more nodes, node after node, each
    node with the same number of sockets, all of one part (core count, DVFS
    range, peak IPC and power coefficients). A block spans ``ticks =
    max(1, BLOCK_ROWS // sockets)`` ticks. It starts by taking each
    socket's next ``ticks`` jitter rows (drawing any the socket has not
    drawn yet) into a ``(ticks, sockets, n_cores)`` stack. Each tick steps
    every socket one row through its stream.

    Rows are derived per utilisation vector (one value per node): the first
    time a vector is used in a block, :func:`step_cores` derives the current
    tick's row alone; the second time, every remaining row of the block at
    once, which later ticks with that vector only index. A span of several
    ticks derives the remaining rows on any use. IPC rows and their sums
    follow the same rule per utilisation vector and IPC levels (one level
    per node). The vector and levels of a block's last tick count as used
    once in the next block. A fresh vector every tick therefore costs one
    row per tick, as a block of one tick would. A span never runs past the
    block's last tick. Derived arrays are never written, so each tick's
    views stay valid after the block moves on.

    A block is keyed on each socket's stream position at its start. When a
    socket has been stepped by another block since (another batch, or the
    socket stepped alone), the block starts over from the positions the
    sockets have reached, so rows pre-drawn by one batch pass to the next
    in stream order.
    """

    __slots__ = ("cpus", "ticks", "_jitter", "_marks", "_t", "_memo", "_ipc", "_last")

    def __init__(self, cpus: Sequence[CPUCoreModel]) -> None:
        self.cpus: Tuple[CPUCoreModel, ...] = tuple(cpus)
        self.ticks = max(1, BLOCK_ROWS // len(self.cpus))
        self._jitter = np.empty((0, len(self.cpus), self.cpus[0].n_cores))
        self._marks: List[int] = []
        # The next tick's index in the block; ``ticks`` before the first.
        self._t = self.ticks
        # Per utilisation vector: the block tick its rows start at and the
        # rows from there on, or None once used a first time.
        self._memo: Dict[tuple, Optional[Tuple[int, _Rows]]] = {}
        # The same per (utilisation vector, IPC levels): the IPC rows and
        # their per-socket sums.
        self._ipc: Dict[Tuple[tuple, tuple], Optional[Tuple[int, np.ndarray, list]]] = {}
        # The last tick's (utilisation vector, IPC levels).
        self._last: Optional[Tuple[tuple, tuple]] = None

    def _tick(self) -> int:
        """This tick's index in the block, starting a new block when the
        current one is spent or some socket has moved on without it."""
        t = self._t
        if t < self.ticks:
            for cpu, mark in zip(self.cpus, self._marks):
                if cpu._pos != mark + t:
                    break
            else:
                return t
        ticks = self.ticks
        self._marks = [cpu._pos for cpu in self.cpus]
        self._jitter = np.stack([cpu._jitter_rows(ticks) for cpu in self.cpus], axis=1)
        last = self._last
        self._memo = {} if last is None else {last[0]: None}
        self._ipc = {} if last is None else {last: None}
        return 0


def _socket_power_w(cpu: CPUCoreModel, utils: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Core-domain power per socket (over the last axis) of ``cpu``'s part:
    ``static + Σ (idle + peak · util · (0.3 + 0.7 (f / f_max)²))``.

    The in-place steps reuse buffers without changing an operation:
    ``x *= c`` and ``x += c`` are the IEEE products and sums ``c * x`` and
    ``c + x``.
    """
    p = cpu.power_params
    shape = freqs / cpu.max_ghz
    np.square(shape, out=shape)
    shape *= 0.7
    shape += 0.3
    per_core = p.peak_core_w * utils
    per_core *= shape
    per_core += p.idle_core_w
    return p.static_w + np.add.reduce(per_core, axis=-1)


def _rows_view(values: Sequence[float], per_node: int) -> Union[float, np.ndarray]:
    """Per-node values as the stack's rows take them.

    One node's value broadcasts over every row as a Python float; several
    nodes' become a column with one entry per socket, each node's value
    repeated across its sockets. Multiplying by a column entry is the same
    IEEE product as multiplying by the float.
    """
    if len(values) == 1:
        return values[0]
    return np.repeat(values, per_node)[:, None]


def _derive(part: CPUCoreModel, util_rows: Union[float, np.ndarray], jitter: np.ndarray) -> _Rows:
    """Utilisation, frequency, activity and power of ``jitter``'s rows under
    one utilisation vector, reduced over the last (core) axis. In-place
    steps as in :func:`_socket_power_w`."""
    # ``ndarray.clip`` is the ufunc ``np.clip`` dispatches to, called directly.
    utils = util_rows * part._weights * jitter
    utils.clip(0.0, 1.0, out=utils)
    # DVFS: frequency tracks utilisation with a mild floor; a lightly
    # loaded core sits near min frequency, a saturated core turbos:
    # ``min + span · min(1.3 util, 1)``, clipped to the range.
    freqs = utils * 1.3
    np.minimum(freqs, 1.0, out=freqs)
    freqs *= part.max_ghz - part.min_ghz
    freqs += part.min_ghz
    freqs.clip(part.min_ghz, part.max_ghz, out=freqs)
    # Active cores retire instructions and count toward the mean IPC.
    active = utils > 1e-3
    return _Rows(
        utils,
        freqs,
        active,
        _socket_power_w(part, utils, freqs).tolist(),
        (np.add.reduce(freqs, axis=-1) / part.n_cores).tolist(),
        np.add.reduce(active, axis=-1, dtype=np.intp).tolist(),
    )


def step_cores(
    block: CoreBlock,
    socket_util: Sequence[float],
    mem_stall_factor: Sequence[float],
    uncore_ratio: Sequence[float],
    ticks: int = 1,
) -> CoreStep:
    """Advance a block's stack of identical sockets by a span of ticks.

    The span holds ``ticks`` ticks under one operating point, or as many as
    the block has left if that is fewer; the returned :class:`CoreStep`
    has one ``tick_`` entry per tick stepped. The three operating-point
    arguments carry one value per node of the stack. Utilisation,
    frequency, activity and power come from the block's rows for this
    utilisation vector, and the IPC from its rows for this vector and these
    IPC levels (see :class:`CoreBlock`); a span of more than one tick takes
    both from the rows derived for the rest of the block. Every reduction
    runs along one socket's row, and the mean IPC of a partially active
    socket is reduced per row. Every socket's model is left holding the
    step, and reads its row of the span's last tick and its reductions, so
    its observables read as if it had stepped alone. Earlier arrays are
    never mutated.

    Parameters
    ----------
    block:
        The stack's :class:`CoreBlock`.
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
    ticks:
        The most ticks to step; at least 1.
    """
    for util in socket_util:
        if not (0.0 <= util <= 1.0):
            raise PowerModelError(f"socket_util must be in [0, 1], got {util!r}")
    cpus = block.cpus
    part = cpus[0]
    n = part.n_cores
    t = block._tick()
    ticks = min(ticks, block.ticks - t)
    per_node = len(cpus) // len(socket_util)
    key = tuple(socket_util)
    if 0.0 in key:
        # -0.0 == 0.0 as a key, but a -0.0 demand keeps its sign in the rows.
        key += tuple(copysign(1.0, util) for util in key)
    memo = block._memo
    found = memo.get(key)
    if found is None and key not in memo and ticks == 1:
        # First use in this block, for one tick: this tick's row alone.
        memo[key] = None
        rows = _derive(part, _rows_view(socket_util, per_node), block._jitter[t : t + 1])
        row = 0
    else:
        if found is None:
            # Second use, or a span: every remaining row of the block at once.
            found = memo[key] = (t, _derive(part, _rows_view(socket_util, per_node), block._jitter[t:]))
        start, rows = found
        row = t - start
    end = row + ticks
    active = rows.active[row:end]
    block._t = t + ticks

    # Each node's IPC level for its active cores, in Python floats; the
    # clamps are :func:`~repro.units.clamp`'s ``max(lo, min(hi, x))``.
    peak = part.peak_ipc
    levels = [
        peak * max(0.05, min(1.0, stall)) * (0.88 + 0.12 * max(0.0, min(1.0, ratio)))
        for stall, ratio in zip(mem_stall_factor, uncore_ratio)
    ]
    pair = block._last = (key, tuple(levels))
    ipc_memo = block._ipc
    held = ipc_memo.get(pair)
    if held is None and pair not in ipc_memo and ticks == 1:
        ipc_memo[pair] = None
        ipc = np.where(active, _rows_view(levels, per_node), 0.0)
        ipc_sums = np.add.reduce(ipc, axis=-1).tolist()
    else:
        if held is None:
            # A span derived the vector's rows above; otherwise each use of
            # the pair used the vector, so its rows exist.
            assert found is not None
            start, rows_from = found
            ipc_rows = np.where(rows_from.active[t - start :], _rows_view(levels, per_node), 0.0)
            held = ipc_memo[pair] = (t, ipc_rows, np.add.reduce(ipc_rows, axis=-1).tolist())
        start, ipc_rows, sums = held
        ipc, ipc_sums = ipc_rows[t - start : t - start + ticks], sums[t - start : t - start + ticks]
    mean_ipc: List[List[float]] = []
    for j, tick_n_active in enumerate(rows.n_active[row:end]):
        tick_sums = ipc_sums[j]
        means: List[float] = []
        for s, k in enumerate(tick_n_active):
            if k == n:
                means.append(tick_sums[s] / n)
            elif k:
                # Zeros in the row would regroup the pairwise sum: reduce over
                # the active cores alone, as a socket stepped alone does.
                means.append(float(ipc[j, s][active[j, s]].mean()))
            else:
                means.append(0.0)
        mean_ipc.append(means)
    step = CoreStep(
        rows.utils[row:end],
        rows.freqs_ghz[row:end],
        ipc,
        mean_ipc,
        rows.power_w[row:end],
        rows.mean_freq_ghz[row:end],
    )
    for s, cpu in enumerate(cpus):
        cpu._step = step
        cpu._row = s
        cpu._pos += ticks
    return step
