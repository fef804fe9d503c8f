"""PCM-style system memory throughput counter — MAGUS's single metric.

Intel's Performance Counter Monitor exposes system memory traffic as a
cumulative byte counter per integrated memory controller; a client samples
it at the two ends of a short aggregation window (~0.1 s for a stable
reading) and divides by the elapsed time.  That window *is* the dominant
cost of a MAGUS invocation, and it is independent of core count — the
crucial contrast with UPS's per-core MSR sweep.

The aggregation window also matters behaviourally: it is short enough that
millisecond-scale demand oscillation (the SRAD high-frequency pattern)
*aliases* into large swings between consecutive readings, which is exactly
the signal MAGUS's high-frequency detector keys on.  A longer window (e.g.
averaging over the whole 0.5 s UPS decision period, as UPS's RAPL-delta
measurements do) smooths those oscillations away — one reason UPS cannot
see them.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.errors import TelemetryError
from repro.hw.node import HeterogeneousNode
from repro.hw.presets import TelemetryCosts
from repro.telemetry.sampling import AccessMeter

__all__ = ["PCMCounters"]

_BYTES_PER_GB = 1e9
#: Retain this much cumulative-counter history for windowed reads.
_HISTORY_SPAN_S = 2.0


class PCMCounters:
    """Cumulative memory-traffic counter with windowed throughput reads.

    Parameters
    ----------
    node:
        The hardware node whose delivered traffic backs the counter.
    costs:
        Per-access cost model; ``pcm_read_time_s`` doubles as the default
        aggregation window.
    """

    def __init__(self, node: HeterogeneousNode, costs: TelemetryCosts):
        self.node = node
        self.costs = costs
        self._bytes_total = 0.0
        self._time_s = 0.0
        #: (time, cumulative bytes) snapshots, one per tick, pruned to the
        #: last :data:`_HISTORY_SPAN_S` seconds.
        self._history: Deque[Tuple[float, float]] = deque()
        self._history.append((0.0, 0.0))

    def on_tick(self, dt_s: float) -> None:
        """Integrate the node's delivered traffic over each tick of its
        latest step, one history snapshot per tick."""
        if dt_s <= 0:
            raise TelemetryError(f"dt must be positive, got {dt_s!r}")
        state = self.node.last_state
        # Delivery is the same on every tick of a step: so is each tick's
        # increment, and the running sums add it tick by tick.
        if state is None:  # before the node's first step: one tick of nothing
            increment, ticks = 0.0, (dt_s,)
        else:
            increment, ticks = state.delivered_gbps * _BYTES_PER_GB * dt_s, state.tick_time_s
        total, time_s = self._bytes_total, self._time_s
        history = self._history
        for _ in ticks:
            total += increment
            time_s += dt_s
            history.append((time_s, total))
        self._bytes_total, self._time_s = total, time_s
        # Pruning once to the last snapshot's horizon leaves what pruning
        # after every snapshot would: the horizons only rise.
        horizon = time_s - _HISTORY_SPAN_S
        while len(history) > 2 and history[0][0] < horizon:
            history.popleft()

    @property
    def bytes_total(self) -> float:
        """Cumulative delivered traffic in bytes since construction."""
        return self._bytes_total

    def read_throughput_mbps(
        self,
        meter: Optional[AccessMeter] = None,
        *,
        window_s: Optional[float] = None,
    ) -> float:
        """Aggregation-window throughput read, in MB/s.

        Returns the average throughput over the trailing ``window_s``
        seconds (default: the cost model's ``pcm_read_time_s``, i.e. the
        measurement window the read itself spans).  Each call charges one
        PCM aggregation to the meter.

        Units are MB/s because that is the scale at which the paper's
        default thresholds (``inc=200``, ``dec=500``) are meaningful.
        A window longer than the history that exists averages that history.
        A window longer than the retained span (:data:`_HISTORY_SPAN_S`)
        raises :class:`~repro.errors.TelemetryError`: the snapshots it
        needs are gone.
        """
        if meter is not None:
            meter.charge("pcm_read", self.costs.pcm_read_time_s, self.costs.pcm_read_energy_j)
        window = window_s if window_s is not None else max(self.costs.pcm_read_time_s, 1e-3)
        if window <= 0:
            raise TelemetryError(f"window must be positive, got {window!r}")
        if window > _HISTORY_SPAN_S:
            raise TelemetryError(
                f"window {window!r} s exceeds the {_HISTORY_SPAN_S} s of retained history"
            )
        t_end, b_end = self._history[-1]
        t_start_wanted = t_end - window
        # Walk back to the newest snapshot at or before the window start.
        b_start = self._history[0][1]
        t_start = self._history[0][0]
        for t, b in reversed(self._history):
            t_start, b_start = t, b
            if t <= t_start_wanted:
                break
        elapsed = t_end - t_start
        if elapsed <= 0:
            return 0.0
        return ((b_end - b_start) / elapsed) / 1e6

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PCMCounters(bytes={self._bytes_total:.3e}, t={self._time_s:.2f}s)"
