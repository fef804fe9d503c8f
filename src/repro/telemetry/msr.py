"""Model-specific registers: the actuation path and the expensive counters.

Two register families matter here:

* ``MSR_UNCORE_RATIO_LIMIT`` (``0x620``) — per-socket read/write register
  holding the uncore min/max ratio limits in 100 MHz units
  (bits [6:0] = max ratio, bits [14:8] = min ratio). Writing the max-ratio
  bits is how both MAGUS and UPS actuate the uncore; per the paper, MAGUS
  "modifies the maximum frequency bits … while leaving the minimum
  frequency bits unchanged", and this device enforces exactly that
  semantics.
* ``IA32_FIXED_CTR0/1`` (instructions retired / unhalted core cycles) —
  per-core free-running counters. Computing IPC the way UPS does requires
  reading *both* counters on *every* core each cycle; each read is charged
  to the caller's :class:`~repro.telemetry.sampling.AccessMeter`, which is
  what makes the UPS monitoring sweep expensive on high-core-count nodes.

Counters are 48-bit and wrap, like the hardware; readers are expected to
compute deltas modulo 2^48 (:func:`counter_delta` does this correctly).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import CounterOverflowError, MSRAccessError
from repro.hw.node import HeterogeneousNode
from repro.hw.presets import TelemetryCosts
from repro.telemetry.sampling import AccessMeter
from repro.units import uncore_ratio_to_ghz, ghz_to_uncore_ratio

__all__ = [
    "MSR_UNCORE_RATIO_LIMIT",
    "IA32_FIXED_CTR0",
    "IA32_FIXED_CTR1",
    "COUNTER_WIDTH_BITS",
    "encode_uncore_ratio_limit",
    "decode_uncore_ratio_limit",
    "counter_delta",
    "counter_delta_array",
    "MSRDevice",
]

#: Uncore ratio-limit register (per socket).
MSR_UNCORE_RATIO_LIMIT = 0x620
#: Fixed-function counter 0: instructions retired (per core).
IA32_FIXED_CTR0 = 0x309
#: Fixed-function counter 1: unhalted core cycles (per core).
IA32_FIXED_CTR1 = 0x30A

#: Fixed counters are 48 bits wide on the parts modelled here.
COUNTER_WIDTH_BITS = 48
_COUNTER_MOD = 1 << COUNTER_WIDTH_BITS
_COUNTER_MASK = np.uint64(_COUNTER_MOD - 1)

_MAX_RATIO_MASK = 0x7F
_MIN_RATIO_SHIFT = 8

#: Ticks :meth:`MSRDevice.on_tick` queues before folding them into the
#: counters unasked.
_FOLD_TICKS = 16


def encode_uncore_ratio_limit(max_ratio: int, min_ratio: int) -> int:
    """Pack (max, min) uncore ratios into an ``0x620`` register value.

    >>> hex(encode_uncore_ratio_limit(22, 8))
    '0x816'
    """
    if not (0 <= max_ratio <= _MAX_RATIO_MASK and 0 <= min_ratio <= _MAX_RATIO_MASK):
        raise MSRAccessError(MSR_UNCORE_RATIO_LIMIT, f"ratio out of 7-bit range: max={max_ratio}, min={min_ratio}")
    return (min_ratio << _MIN_RATIO_SHIFT) | max_ratio


def decode_uncore_ratio_limit(value: int) -> Tuple[int, int]:
    """Unpack an ``0x620`` register value into ``(max_ratio, min_ratio)``.

    >>> decode_uncore_ratio_limit(0x816)
    (22, 8)
    """
    if value < 0:
        raise MSRAccessError(MSR_UNCORE_RATIO_LIMIT, f"negative register value {value!r}")
    return value & _MAX_RATIO_MASK, (value >> _MIN_RATIO_SHIFT) & _MAX_RATIO_MASK


def counter_delta(later: int, earlier: int) -> int:
    """Difference of two wrapping 48-bit counter reads (handles one wrap).

    >>> counter_delta(5, (1 << 48) - 10)
    15

    Raises
    ------
    CounterOverflowError
        If either read is outside the counter's 48-bit range — such a value
        cannot have come from the register, so the delta is unrecoverable.
    """
    if not (0 <= later < _COUNTER_MOD and 0 <= earlier < _COUNTER_MOD):
        raise CounterOverflowError(
            f"counter reads outside 48-bit range: later={later!r}, earlier={earlier!r}"
        )
    return (later - earlier) % _COUNTER_MOD


def counter_delta_array(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Vectorised :func:`counter_delta` over per-core counter sweeps.

    Both arrays are validated against the 48-bit range and differenced
    modulo 2^48, so one wrap between sweeps (a busy core wraps IA32_FIXED_*
    roughly every day; a campaign-injected wrap, much sooner) yields the
    true advance rather than a ~2^48 garbage delta.
    """
    later = np.asarray(later, dtype=np.uint64)
    earlier = np.asarray(earlier, dtype=np.uint64)
    if bool((later >= _COUNTER_MOD).any()) or bool((earlier >= _COUNTER_MOD).any()):
        raise CounterOverflowError("counter sweep contains values outside the 48-bit range")
    # 2^64 is a multiple of 2^48, so uint64 wraparound followed by mod 2^48
    # is exact for one counter wrap.
    return (later - earlier) % np.uint64(_COUNTER_MOD)


class MSRDevice:
    """The node's MSR interface: per-socket 0x620, per-core fixed counters.

    Parameters
    ----------
    node:
        The hardware node whose state backs the registers.
    costs:
        The per-access cost model of the preset.

    Notes
    -----
    The fixed counters advance by every tick passed to :meth:`on_tick`,
    which the simulation engine calls every tick: instructions accumulate
    at ``ipc × core_freq``, cycles at ``core_freq`` (unhalted, so idle cores
    barely advance). A tick is queued and folded into the counters when
    something needs them (:meth:`flush`), so every read sees exactly the
    values a per-tick advance would have left.
    """

    def __init__(self, node: HeterogeneousNode, costs: TelemetryCosts):
        self.node = node
        self.costs = costs
        n = node.n_cores
        self._instructions = np.zeros(n, dtype=np.uint64)
        self._cycles = np.zeros(n, dtype=np.uint64)
        # Ticks not yet folded into the counters: each tick's (frequency,
        # utilisation, IPC) arrays, which the node never writes again, all
        # of width ``_queued_dt``.
        self._queue: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._queued_dt = 0.0
        # Shadow values of 0x620 per socket, so reads return exactly what
        # was last written (including min-ratio bits nobody touched).
        self._ratio_limit_shadow: Dict[int, int] = {}
        for s in range(node.n_sockets):
            unc = node.uncore(s)
            self._ratio_limit_shadow[s] = encode_uncore_ratio_limit(
                ghz_to_uncore_ratio(unc.target_ghz), ghz_to_uncore_ratio(unc.min_ghz)
            )

    # ------------------------------------------------------------------
    # Engine-facing
    # ------------------------------------------------------------------
    def on_tick(self, dt_s: float) -> None:
        """Advance every core's fixed counters by one tick of the node's
        latest state.

        The tick is queued; :meth:`flush` folds it in once 16 ticks are
        queued, before a tick of another width, and whenever the counters
        are read or shifted.
        """
        if dt_s != self._queued_dt:
            self.flush()
            self._queued_dt = dt_s
        node = self.node
        queue = self._queue
        queue.append((node.core_freqs_ghz, node.core_utils, node.core_ipc))
        if len(queue) >= _FOLD_TICKS:
            self.flush()

    def flush(self) -> None:
        """Fold every queued tick into the counters, in place.

        Each tick's advance is the same float products, truncated to uint64,
        as one tick folded alone. The advances add in uint64, which wraps
        modulo 2^64, a multiple of 2^48, so masking the sum to 48 bits is
        the counters' own modulo-2^48 wrap: the fold is exact. Run ends
        flush (:meth:`~repro.telemetry.hub.TelemetryHub.on_finish`), so an
        ended run's device holds no queued arrays.
        """
        queue = self._queue
        if not queue:
            return
        freqs, utils, ipc = (np.array(column) for column in zip(*queue))
        self._queue = []
        dt_s = self._queued_dt
        freq_hz = freqs * 1e9
        # Unhalted cycles: idle cores are mostly in C-states.
        active = np.maximum(utils, 0.02)
        cyc = (freq_hz * active * dt_s).astype(np.uint64)
        ins = (ipc * freq_hz * active * dt_s).astype(np.uint64)
        np.add(self._cycles, np.add.reduce(cyc, axis=0), out=self._cycles)
        np.bitwise_and(self._cycles, _COUNTER_MASK, out=self._cycles)
        np.add(self._instructions, np.add.reduce(ins, axis=0), out=self._instructions)
        np.bitwise_and(self._instructions, _COUNTER_MASK, out=self._instructions)

    # ------------------------------------------------------------------
    # Register access
    # ------------------------------------------------------------------
    def read(self, socket: int, address: int, meter: Optional[AccessMeter] = None, core: int = 0) -> int:
        """Read one register.

        Parameters
        ----------
        socket:
            Socket index for socket-scoped registers (``0x620``).
        address:
            Register address.
        meter:
            Meter to charge the access to (``None`` reads free — used only
            by tests).
        core:
            Node-wide core index for per-core counters.
        """
        if meter is not None:
            meter.charge("msr_read", self.costs.msr_read_time_s, self.costs.msr_read_energy_j)
        if address == MSR_UNCORE_RATIO_LIMIT:
            if socket not in self._ratio_limit_shadow:
                raise MSRAccessError(address, f"no such socket {socket!r}")
            return self._ratio_limit_shadow[socket]
        if address == IA32_FIXED_CTR0:
            self._check_core(core)
            self.flush()
            return int(self._instructions[core])
        if address == IA32_FIXED_CTR1:
            self._check_core(core)
            self.flush()
            return int(self._cycles[core])
        raise MSRAccessError(address, "unsupported register")

    def write(
        self,
        socket: int,
        address: int,
        value: int,
        meter: Optional[AccessMeter] = None,
        *,
        delay_s: float = 0.0,
    ) -> None:
        """Write one register (only ``0x620`` is writable).

        Writing ``0x620`` reprograms the socket's uncore *max* ratio; the
        min-ratio bits are stored but (as on real parts with min == hardware
        floor) do not raise the floor above the part's minimum.

        ``delay_s`` is a modeled switch latency sampled by the control
        backend: the register (shadow) updates immediately, as on hardware,
        but the clock domain adopts the new target only after the delay
        elapses (:meth:`~repro.hw.uncore.UncoreModel.request_target`).
        """
        if meter is not None:
            meter.charge("msr_write", self.costs.msr_write_time_s, self.costs.msr_write_energy_j)
        if address != MSR_UNCORE_RATIO_LIMIT:
            raise MSRAccessError(address, "register is read-only or unsupported for writes")
        if socket not in self._ratio_limit_shadow:
            raise MSRAccessError(address, f"no such socket {socket!r}")
        max_ratio, _min_ratio = decode_uncore_ratio_limit(value)
        freq_ghz = uncore_ratio_to_ghz(max_ratio)
        unc = self.node.uncore(socket)
        if not (unc.min_ghz - 1e-9 <= freq_ghz <= unc.max_ghz + 1e-9):
            raise MSRAccessError(
                address,
                f"ratio {max_ratio} ({freq_ghz:.1f} GHz) outside supported "
                f"range [{unc.min_ghz:.1f}, {unc.max_ghz:.1f}] GHz",
            )
        unc.request_target(freq_ghz, delay_s=delay_s)
        self._ratio_limit_shadow[socket] = value

    def set_uncore_max_ghz(
        self,
        freq_ghz: float,
        meter: Optional[AccessMeter] = None,
        *,
        delay_s: float = 0.0,
    ) -> None:
        """Convenience: write the max-ratio bits of every socket's ``0x620``.

        This is the exact actuation sequence of the paper's runtimes: read
        nothing, rewrite only the max-frequency bits, leave min bits as-is.
        """
        for s in range(self.node.n_sockets):
            current = self._ratio_limit_shadow[s]
            _max_r, min_r = decode_uncore_ratio_limit(current)
            snapped = self.node.uncore(s).snap(freq_ghz)
            value = encode_uncore_ratio_limit(ghz_to_uncore_ratio(snapped), min_r)
            self.write(s, MSR_UNCORE_RATIO_LIMIT, value, meter, delay_s=delay_s)

    def read_all_core_counters(self, meter: Optional[AccessMeter] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Read (instructions, cycles) for every core — the UPS sweep.

        Charges ``2 × n_cores`` MSR reads to the meter; on an 80-core node
        with the Ice Lake cost model that is ~0.29 s of invocation time,
        matching Table 2's UPS column. Per-read energy scales with mean
        core utilisation (``msr_busy_energy_slope`` of the cost model):
        interrupting busy cores is dearer than sweeping an idle machine.
        """
        if meter is not None:
            mean_util = float(
                np.mean([self.node.cpu(s).core_utils.mean() for s in range(self.node.n_sockets)])
            )
            energy = self.costs.msr_read_energy_j * (
                1.0 + self.costs.msr_busy_energy_slope * mean_util
            )
            meter.charge(
                "msr_read",
                self.costs.msr_read_time_s,
                energy,
                n=2 * self.node.n_cores,
            )
        self.flush()
        return self._instructions.copy(), self._cycles.copy()

    def jump_counters(self, offset: int) -> None:
        """Shift every fixed counter by ``offset`` modulo 2^48.

        The test/fault seam behind counter-wrap injection: a *uniform*
        shift parks the counters wherever a campaign wants (just below the
        wrap boundary, typically) while modular readers keep seeing exact
        deltas for every window that does not span the shift itself.
        """
        self.flush()
        off = np.uint64(offset % _COUNTER_MOD)
        mod = np.uint64(_COUNTER_MOD)
        self._instructions = (self._instructions + off) % mod
        self._cycles = (self._cycles + off) % mod

    def _check_core(self, core: int) -> None:
        if not (0 <= core < self.node.n_cores):
            raise MSRAccessError(IA32_FIXED_CTR0, f"no such core {core!r} (node has {self.node.n_cores})")
