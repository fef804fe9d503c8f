"""Append-only time-series traces.

The simulation engine records one sample per tick for a configurable set of
channels (delivered memory throughput, uncore frequency, power domains, ...).
:class:`TraceRecorder` keeps the hot path cheap: samples land in one
pre-grown 2-D buffer (``channel x tick``), and the positional
:meth:`TraceRecorder.record_row` writes a whole tick with a single
vectorised column assignment — no per-tick dict construction or
per-channel schema checks. Results are exposed as immutable
:class:`TimeSeries` views for the analysis layer.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError

__all__ = ["TimeSeries", "TraceRecorder"]

_INITIAL_CAPACITY = 1024


class TimeSeries:
    """An immutable (time, value) series with convenience reductions.

    Parameters
    ----------
    times:
        Sample timestamps in seconds, strictly increasing.
    values:
        Sample values, same length as ``times``.
    name:
        Channel name, used in reports and error messages.
    """

    __slots__ = ("_times", "_values", "name")

    def __init__(self, times: np.ndarray, values: np.ndarray, name: str = "") -> None:
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.shape != values.shape or times.ndim != 1:
            raise SimulationError(
                f"times {times.shape} and values {values.shape} must be equal-length 1-D arrays"
            )
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise SimulationError(f"trace {name!r}: timestamps must be strictly increasing")
        self._times = times
        self._values = values
        self.name = name
        self._times.setflags(write=False)
        self._values.setflags(write=False)

    @property
    def times(self) -> np.ndarray:
        """Read-only timestamp array (seconds)."""
        return self._times

    @property
    def values(self) -> np.ndarray:
        """Read-only value array."""
        return self._values

    def __len__(self) -> int:
        return self._times.size

    @property
    def duration(self) -> float:
        """Time span covered by the series (0 for < 2 samples)."""
        if len(self) < 2:
            return 0.0
        return float(self._times[-1] - self._times[0])

    def mean(self) -> float:
        """Time-weighted mean of the series.

        Uses trapezoidal integration so irregular sampling (e.g. a trace
        resampled to decision boundaries) is handled correctly. Falls back
        to the plain mean for fewer than two samples.
        """
        if len(self) == 0:
            raise SimulationError(f"trace {self.name!r} is empty")
        if len(self) == 1 or self.duration == 0.0:
            return float(self._values.mean())
        return float(np.trapezoid(self._values, self._times) / self.duration)

    def integral(self) -> float:
        """Trapezoidal integral of the series over time.

        For a power trace in watts this is the energy in joules.
        """
        if len(self) < 2:
            return 0.0
        return float(np.trapezoid(self._values, self._times))

    def max(self) -> float:
        """Maximum sample value."""
        if len(self) == 0:
            raise SimulationError(f"trace {self.name!r} is empty")
        return float(self._values.max())

    def min(self) -> float:
        """Minimum sample value."""
        if len(self) == 0:
            raise SimulationError(f"trace {self.name!r} is empty")
        return float(self._values.min())

    def slice(self, t0: float, t1: float) -> "TimeSeries":
        """Return the sub-series with ``t0 <= t < t1``."""
        if t1 < t0:
            raise SimulationError(f"invalid slice [{t0}, {t1})")
        mask = (self._times >= t0) & (self._times < t1)
        return TimeSeries(self._times[mask].copy(), self._values[mask].copy(), self.name)

    def resample(self, period_s: float) -> "TimeSeries":
        """Bucket-average the series onto a regular grid of ``period_s``.

        Each output sample at time ``(k + 1) * period_s`` is the mean of the
        input samples falling in ``[k*period, (k+1)*period)``. Empty buckets
        carry the previous bucket's value (zero-order hold), which matches
        how a hardware counter sampled at a slower rate would appear.
        """
        if period_s <= 0:
            raise SimulationError(f"period must be positive, got {period_s!r}")
        if len(self) == 0:
            return TimeSeries(np.empty(0), np.empty(0), self.name)
        n_buckets = int(np.ceil((self._times[-1] - 1e-12) / period_s))
        n_buckets = max(n_buckets, 1)
        # Timestamps mark the *end* of the interval they describe (the
        # recorder stamps each tick at its completion), so a sample at
        # exactly k*period belongs to bucket k-1, i.e. (.., k*period].
        idx = np.clip(((self._times - 1e-12) / period_s).astype(int), 0, n_buckets - 1)
        sums = np.bincount(idx, weights=self._values, minlength=n_buckets)
        counts = np.bincount(idx, minlength=n_buckets)
        out = np.empty(n_buckets)
        hold = self._values[0]
        for k in range(n_buckets):
            if counts[k] > 0:
                hold = sums[k] / counts[k]
            out[k] = hold
        times = (np.arange(n_buckets) + 1) * period_s
        return TimeSeries(times, out, self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeSeries(name={self.name!r}, n={len(self)}, duration={self.duration:.3f}s)"


class TraceRecorder:
    """Fixed-schema, chunk-grown multi-channel trace recorder.

    Parameters
    ----------
    channels:
        The channel names, in column order. :meth:`record_row` rows must
        supply values in exactly this order.
    expected_rows:
        Rows the caller expects to record. Up to 1024 of them are
        allocated up front; the buffer doubles whenever it fills.

    Notes
    -----
    :meth:`record_row` is the one recording path: one vectorised column
    write per tick, no dict construction, and the row length is the
    schema check.
    """

    def __init__(self, channels: Iterable[str], *, expected_rows: int = _INITIAL_CAPACITY) -> None:
        self._channels: Tuple[str, ...] = tuple(channels)
        if len(set(self._channels)) != len(self._channels):
            raise SimulationError(f"duplicate channel names: {self._channels}")
        if not self._channels:
            raise SimulationError("at least one channel is required")
        if expected_rows < 1:
            raise SimulationError(f"expected_rows must be at least 1, got {expected_rows!r}")
        self._index: Dict[str, int] = {c: i for i, c in enumerate(self._channels)}
        self._n_channels = len(self._channels)
        self._capacity = min(expected_rows, _INITIAL_CAPACITY)
        self._n = 0
        self._times = np.empty(self._capacity)
        self._buf = np.empty((self._n_channels, self._capacity))

    @property
    def channels(self) -> Tuple[str, ...]:
        """The declared channel names, in declaration (column) order."""
        return self._channels

    def __len__(self) -> int:
        return self._n

    def row_buffer(self) -> np.ndarray:
        """A zeroed scratch row shaped for :meth:`record_row`.

        Callers fill it in place each tick (observers write their declared
        columns) and hand it back to :meth:`record_row`, which copies it —
        the same buffer can be reused for every tick.
        """
        return np.zeros(self._n_channels)

    def _grow(self) -> None:
        self._capacity *= 2
        new_times = np.empty(self._capacity)
        new_times[: self._n] = self._times[: self._n]
        self._times = new_times
        new_buf = np.empty((self._n_channels, self._capacity))
        new_buf[:, : self._n] = self._buf[:, : self._n]
        self._buf = new_buf

    def record_row(self, time_s: float, row: Union[Sequence[float], np.ndarray]) -> None:
        """Append one sample from a positional row.

        Parameters
        ----------
        time_s:
            Sample timestamp; must exceed the previous sample's.
        row:
            Sequence of ``len(self.channels)`` floats in channel order
            (typically the reused array from :meth:`row_buffer`). The row
            is copied, so the caller may overwrite it next tick.
        """
        n = self._n
        if n and time_s <= self._times[n - 1]:
            raise SimulationError(
                f"non-increasing timestamp {time_s!r} after {self._times[n - 1]!r}"
            )
        if len(row) != self._n_channels:
            raise SimulationError(
                f"row has {len(row)} values, schema has {self._n_channels} channels"
            )
        if n == self._capacity:
            self._grow()
        self._times[n] = time_s
        self._buf[:, n] = row
        self._n = n + 1

    def series(self, channel: str) -> TimeSeries:
        """Return channel ``channel`` as an immutable :class:`TimeSeries`."""
        if channel not in self._index:
            raise SimulationError(f"unknown channel {channel!r}; have {sorted(self._channels)}")
        return TimeSeries(
            self._times[: self._n].copy(),
            self._buf[self._index[channel], : self._n].copy(),
            channel,
        )

    def as_dict(self) -> Dict[str, TimeSeries]:
        """Return every channel as a ``name -> TimeSeries`` mapping."""
        return {c: self.series(c) for c in self._channels}

    def last(self, channel: str) -> Optional[float]:
        """Most recent value of ``channel``, or ``None`` if empty."""
        if self._n == 0:
            return None
        if channel not in self._index:
            raise SimulationError(f"unknown channel {channel!r}")
        return float(self._buf[self._index[channel], self._n - 1])
