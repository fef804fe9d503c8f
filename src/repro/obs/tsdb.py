"""In-sim time-series store: fixed-capacity rings + multi-resolution rollup.

The :class:`TimeSeriesDB` is the fleet-scale companion to
:class:`~repro.obs.registry.MetricsRegistry`: where the registry keeps one
scalar per metric, the TSDB keeps the *trajectory* — budget headroom, lease
age, breaker state, governor targets — sampled on the simulation clock so
``repro watch``/``repro alerts`` can reason about windows of history
instead of end-of-run totals.

Design rules (shared with the rest of ``repro.obs``):

* **Names** are lowercase dotted identifiers (RL006 grammar), validated at
  registration. Per-node / per-device variation goes into **labels**
  (sorted ``(key, value)`` pairs), never into the name, so the static lint
  pass can see every series the code can ever create.
* **Staircase semantics**: a series is a right-continuous step function of
  simulated time; :meth:`Series.value_at` returns the last sample at or
  before ``t`` (how a power cap or a breaker state actually behaves
  between writes).
* **Bounded memory**: each series keeps at most ``capacity`` raw samples.
  Older history is folded into multi-resolution buckets (level *i* spans
  ``resolution_s * factor**(i + 1)`` seconds) that preserve
  min/max/sum/count/last exactly — a downsampled series never lies about
  its extremes, only about *when* within a bucket they happened.
* **Mergeable**: DBs pickle cleanly across ``map_parallel`` workers and
  :meth:`TimeSeriesDB.merge` is associative — raw samples merge as a
  time-ordered multiset (stable for equal timestamps), buckets combine
  per aligned window, and compaction is a canonical function of the
  merged contents, so any merge tree over the same worker outputs yields
  an identical state (the worker-count invariance the fleet tests
  assert). Compare states with :func:`canonical_state_bytes`: raw
  ``pickle.dumps`` output additionally encodes *object identity* (its
  memo dedupes shared sub-objects), which differs between the in-process
  and pool execution paths even when every value is equal.

Folding is *watermark-based*: every level tracks ``covered_until_s``, the
absolute-aligned boundary below which raw detail has been surrendered.
Merging takes the max of watermarks and re-folds anything beneath it,
which is what makes compaction order-independent.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import floor, isfinite
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ObsError
from repro.obs.registry import validate_metric_name
from repro.units import require_finite

__all__ = [
    "Bucket",
    "Series",
    "TimeSeriesDB",
    "canonical_state_bytes",
    "merge_tsdbs",
    "DEFAULT_RAW_CAPACITY",
    "DEFAULT_RESOLUTION_S",
    "DEFAULT_DOWNSAMPLE_FACTOR",
    "DEFAULT_LEVEL_CAPACITY",
    "DEFAULT_LEVELS",
]

#: Raw samples kept per series before folding into level-0 buckets.
DEFAULT_RAW_CAPACITY = 512
#: Width of a level-0 bucket is ``resolution_s * factor``.
DEFAULT_RESOLUTION_S = 0.5
#: Each level's buckets are this many times wider than the level below.
DEFAULT_DOWNSAMPLE_FACTOR = 8
#: Buckets kept per level before folding into the next level.
DEFAULT_LEVEL_CAPACITY = 256
#: Number of rollup levels; the last level never folds further.
DEFAULT_LEVELS = 3

LabelsTuple = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Optional[Mapping[str, str]]) -> LabelsTuple:
    """Canonicalise a labels mapping into a sorted hashable tuple."""
    if not labels:
        return ()
    items = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
    for key, _ in items:
        if not key or not key.replace("_", "a").isalnum() or not key[0].isalpha():
            raise ObsError(f"invalid series label key {key!r}: want [a-z][a-z0-9_]*")
    return items


#: How a bucket sum travels through ``state()``: an exact dyadic rational.
SumState = Tuple[int, int]


class Bucket:
    """One downsampled window: the losslessly-combinable summary of its samples.

    The running sum is kept as an exact :class:`~fractions.Fraction`
    (every IEEE double is a dyadic rational), so bucket combination is
    *bit-associative* — float ``+`` is not, and merge-tree shape must not
    leak into pickled bytes.
    """

    __slots__ = ("t0_s", "min", "max", "_sum", "count", "last_t_s", "last")

    def __init__(
        self,
        t0_s: float,
        min_v: float,
        max_v: float,
        sum_v: Union[float, Fraction, SumState],
        count: int,
        last_t_s: float,
        last: float,
    ) -> None:
        self.t0_s = t0_s
        self.min = min_v
        self.max = max_v
        self._sum = Fraction(*sum_v) if isinstance(sum_v, tuple) else Fraction(sum_v)
        self.count = count
        self.last_t_s = last_t_s
        self.last = last

    @property
    def sum(self) -> float:
        return float(self._sum)

    def add_sample(self, t_s: float, value: float) -> None:
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._sum += Fraction(value)
        self.count += 1
        if t_s > self.last_t_s or (t_s == self.last_t_s and value > self.last):
            self.last_t_s = t_s
            self.last = value

    def combine(self, other: "Bucket") -> None:
        """Fold ``other`` (same aligned window, or a sub-window) into self."""
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self._sum += other._sum
        self.count += other.count
        # Deterministic last-sample resolution: later timestamp wins; equal
        # timestamps resolve to the larger value so merge order cannot leak.
        if other.last_t_s > self.last_t_s or (
            other.last_t_s == self.last_t_s and other.last > self.last
        ):
            self.last_t_s = other.last_t_s
            self.last = other.last

    def mean(self) -> float:
        return float(self._sum / self.count) if self.count else 0.0

    def state(self) -> Tuple[float, float, float, SumState, int, float, float]:
        return (
            self.t0_s,
            self.min,
            self.max,
            (self._sum.numerator, self._sum.denominator),
            self.count,
            self.last_t_s,
            self.last,
        )

    @staticmethod
    def from_state(s: Tuple[float, float, float, SumState, int, float, float]) -> "Bucket":
        return Bucket(*s)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Bucket(t0={self.t0_s}, min={self.min}, max={self.max}, "
            f"count={self.count}, last={self.last})"
        )


class Series:
    """One named, labelled time series: a raw ring plus rollup levels.

    Raw samples live in two parallel lists (times ascending); when the
    ring overflows, whole absolutely-aligned level-0 windows are folded
    off the old end. Each level keeps a ``covered_until_s`` watermark —
    the aligned boundary below which that level owns the history — which
    is what makes merge + compaction associative (watermarks max-combine,
    and anything beneath the merged watermark re-folds canonically).
    """

    __slots__ = (
        "name",
        "labels",
        "help",
        "capacity",
        "resolution_s",
        "factor",
        "level_capacity",
        "_times",
        "_values",
        "_levels",
        "_covered",
    )

    def __init__(
        self,
        name: str,
        labels: LabelsTuple = (),
        *,
        help: str = "",
        capacity: int = DEFAULT_RAW_CAPACITY,
        resolution_s: float = DEFAULT_RESOLUTION_S,
        factor: int = DEFAULT_DOWNSAMPLE_FACTOR,
        levels: int = DEFAULT_LEVELS,
        level_capacity: int = DEFAULT_LEVEL_CAPACITY,
    ) -> None:
        if capacity < 2:
            raise ObsError(f"series {name!r}: capacity must be >= 2")
        if resolution_s <= 0 or factor < 2 or levels < 1 or level_capacity < 2:
            raise ObsError(f"series {name!r}: invalid downsampling geometry")
        self.name = validate_metric_name(name)
        self.labels = labels
        self.help = help
        self.capacity = capacity
        self.resolution_s = float(resolution_s)
        self.factor = int(factor)
        self.level_capacity = int(level_capacity)
        self._times: List[float] = []
        self._values: List[float] = []
        #: ``_levels[i]`` maps aligned window start → :class:`Bucket`.
        self._levels: List[Dict[float, Bucket]] = [{} for _ in range(levels)]
        #: Per-level fold watermark (0.0 = nothing folded yet).
        self._covered: List[float] = [0.0] * levels

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def level_width_s(self, level: int) -> float:
        """Seconds spanned by one bucket at ``level``."""
        return self.resolution_s * float(self.factor ** (level + 1))

    def _align(self, t_s: float, level: int) -> float:
        width = self.level_width_s(level)
        return floor(t_s / width) * width

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, t_s: float, value: float) -> None:
        """Append one sample at simulated time ``t_s``.

        Samples must arrive in non-decreasing time order (the sim clock
        only moves forward); equal timestamps are allowed and keep
        insertion order in the raw ring. A NaN or infinite time or value
        raises: a NaN time would pass both order checks and unsort the
        ring, and a non-finite value has no exact bucket sum. A negative
        time raises too, because a series covers sim time from 0.
        """
        value = float(value)
        require_finite(t_s, value, error=self._non_finite)
        if self._times and t_s < self._times[-1]:
            raise ObsError(
                f"series {self.name!r}: sample at t={t_s} is older than "
                f"last sample t={self._times[-1]} (sim time never rewinds)"
            )
        if t_s < 0.0:
            raise ObsError(
                f"series {self.name!r}: sample at t={t_s} is before t=0 "
                f"(a series covers sim time from 0)"
            )
        if t_s < self._covered[0]:
            raise ObsError(
                f"series {self.name!r}: sample at t={t_s} is below the "
                f"fold watermark {self._covered[0]} (already downsampled)"
            )
        self._times.append(t_s)
        self._values.append(value)
        if len(self._times) > self.capacity:
            self._compact()

    def _non_finite(self, t_s: float, value: float) -> ObsError:
        return ObsError(f"series {self.name!r}: non-finite sample ({t_s!r}, {value!r})")

    @staticmethod
    def record_column(column: Sequence["Series"], t_s: float, values: Iterable[float]) -> None:
        """Append one sample at ``t_s`` to each series of ``column``:
        ``column[i]`` gets ``values[i]``.

        The same samples, errors and messages as :meth:`record` on each
        pair in order, but the time's own checks (finite, not before 0) run
        once for the column; each series still checks its order and fold
        watermark. A fleet scrape records one value per node this way.
        """
        if column and not (isfinite(t_s) and t_s >= 0.0):
            # A time no series takes: the first series raises record's error.
            column[0].record(t_s, next(iter(values)))
        for series, value in zip(column, values):
            value = float(value)
            if not isfinite(value):
                raise series._non_finite(t_s, value)
            times = series._times
            if (times and t_s < times[-1]) or t_s < series._covered[0]:
                series.record(t_s, value)  # raises record's ordering error
            times.append(t_s)
            series._values.append(value)
            if len(times) > series.capacity:
                series._compact()

    # ------------------------------------------------------------------
    # Compaction (canonical: depends only on contents + watermarks)
    # ------------------------------------------------------------------
    def _fold_raw_below(self, boundary_s: float) -> None:
        """Fold every raw sample with ``t < boundary_s`` into level 0."""
        times, values = self._times, self._values
        n = 0
        while n < len(times) and times[n] < boundary_s:
            n += 1
        if n:
            level0 = self._levels[0]
            for i in range(n):
                t, v = times[i], values[i]
                w0 = self._align(t, 0)
                bucket = level0.get(w0)
                if bucket is None:
                    level0[w0] = Bucket(w0, v, v, v, 1, t, v)
                else:
                    bucket.add_sample(t, v)
            del times[:n], values[:n]
        if boundary_s > self._covered[0]:
            self._covered[0] = boundary_s

    def _fold_level_below(self, level: int, boundary_s: float) -> None:
        """Fold level ``level`` buckets starting below ``boundary_s`` upward."""
        nxt = level + 1
        here, above = self._levels[level], self._levels[nxt]
        for w0 in sorted(here):
            if w0 >= boundary_s:
                break
            bucket = here.pop(w0)
            up0 = self._align(w0, nxt)
            target = above.get(up0)
            if target is None:
                above[up0] = Bucket(*bucket.state())
                above[up0].t0_s = up0
            else:
                target.combine(bucket)
        if boundary_s > self._covered[nxt]:
            self._covered[nxt] = boundary_s

    def _compact(self) -> None:
        # Raw ring: advance the level-0 watermark one aligned window at a
        # time until the ring fits. The watermark (not the pop count) is
        # the canonical state, so merge grouping cannot change the result.
        while len(self._times) > self.capacity:
            boundary = self._align(self._times[0], 0) + self.level_width_s(0)
            if boundary > self._times[-1]:
                # Folding would swallow the newest sample (pathologically
                # dense series); keep the over-full ring instead of letting
                # the watermark overtake the write head.
                break
            self._fold_raw_below(boundary)
        # Intermediate levels: same scheme, one window of the level above
        # at a time; the last level never folds (coarse and few).
        for level in range(len(self._levels) - 1):
            while len(self._levels[level]) > self.level_capacity:
                oldest = min(self._levels[level])
                boundary = self._align(oldest, level + 1) + self.level_width_s(level + 1)
                self._fold_level_below(level, boundary)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._times) + sum(b.count for lv in self._levels for b in lv.values())

    @property
    def raw_count(self) -> int:
        return len(self._times)

    def latest(self) -> Optional[Tuple[float, float]]:
        """The newest ``(t_s, value)``, or ``None`` for an empty series."""
        if self._times:
            return self._times[-1], self._values[-1]
        best: Optional[Bucket] = None
        for lv in self._levels:
            for b in lv.values():
                if best is None or b.last_t_s > best.last_t_s:
                    best = b
        return (best.last_t_s, best.last) if best is not None else None

    def value_at(self, t_s: float) -> Optional[float]:
        """Staircase read: last value at or before ``t_s`` (None if before data)."""
        lo = bisect_right(self._times, t_s)
        if lo:
            return self._values[lo - 1]
        # Before the raw window: answer from the newest bucket ending <= t.
        best: Optional[Bucket] = None
        for lv in self._levels:
            for b in lv.values():
                if b.last_t_s <= t_s and (best is None or b.last_t_s > best.last_t_s):
                    best = b
        return best.last if best is not None else None

    def samples_between(self, t0_s: float, t1_s: float) -> List[Tuple[float, float]]:
        """Raw samples with ``t0_s <= t <= t1_s`` (oldest first)."""
        lo = bisect_left(self._times, t0_s)
        hi = bisect_right(self._times, t1_s)
        return list(zip(self._times[lo:hi], self._values[lo:hi]))

    def samples_after(
        self, t_s: float, until_s: Optional[float] = None
    ) -> List[Tuple[float, float]]:
        """Raw samples strictly newer than ``t_s`` (oldest first), and no
        newer than ``until_s`` when it is given."""
        times = self._times
        lo = bisect_right(times, t_s)
        hi = len(times) if until_s is None else bisect_right(times, until_s, lo)
        return list(zip(times[lo:hi], self._values[lo:hi]))

    def steps(self, t0_s: float, t1_s: float) -> Tuple[List[float], List[float]]:
        """The raw breakpoints of the staircase on ``[t0_s, t1_s)``.

        Returns ``(times, values)``: the last raw sample at or before
        ``t0_s``, if there is one, then every raw sample with
        ``t0_s < t < t1_s``, oldest first. Walking them in order gives
        :meth:`value_at` for any non-decreasing run of instants in the
        window: the last breakpoint at or before the instant, and
        ``value_at`` itself (which falls back to the buckets) before the
        first one.
        """
        times = self._times
        lo = bisect_right(times, t0_s)
        if lo:
            lo -= 1
        hi = bisect_left(times, t1_s, lo)
        return times[lo:hi], self._values[lo:hi]

    def buckets(self, level: int) -> List[Bucket]:
        """Level ``level`` buckets, oldest first."""
        return [self._levels[level][w0] for w0 in sorted(self._levels[level])]

    def summary(self) -> Dict[str, float]:
        """min/max/sum/count over *all* history (raw + every level).

        The sum is accumulated exactly (dyadic rationals) and converted to
        float once, so the answer is independent of fold/merge history.
        """
        mn, mx, count = float("inf"), float("-inf"), 0
        total = Fraction(0)
        for v in self._values:
            if v < mn:
                mn = v
            if v > mx:
                mx = v
            total += Fraction(v)
            count += 1
        for lv in self._levels:
            for w0 in sorted(lv):
                b = lv[w0]
                if b.min < mn:
                    mn = b.min
                if b.max > mx:
                    mx = b.max
                total += b._sum
                count += b.count
        if not count:
            return {"min": 0.0, "max": 0.0, "sum": 0.0, "count": 0.0}
        return {"min": mn, "max": mx, "sum": float(total), "count": float(count)}

    # ------------------------------------------------------------------
    # Merge + pickling
    # ------------------------------------------------------------------
    def _geometry(self) -> Tuple[int, float, int, int, int]:
        return (
            self.capacity,
            self.resolution_s,
            self.factor,
            len(self._levels),
            self.level_capacity,
        )

    def merge(self, other: "Series") -> "Series":
        """Fold ``other`` into self (in place; returns self).

        Associative: raw samples stable-merge by timestamp (self's order
        wins ties, like gauge merge order), buckets combine per aligned
        window, watermarks take the max, then canonical compaction
        re-establishes the capacity invariants.
        """
        if other.name != self.name or other.labels != self.labels:
            raise ObsError(
                f"cannot merge series {other.name!r}{other.labels!r} into "
                f"{self.name!r}{self.labels!r}"
            )
        if other._geometry() != self._geometry():
            raise ObsError(
                f"cannot merge series {self.name!r}: downsampling geometry "
                f"differs ({self._geometry()!r} vs {other._geometry()!r})"
            )
        # Stable two-way merge of the raw rings by timestamp.
        st, sv, ot, ov = self._times, self._values, other._times, other._values
        mt: List[float] = []
        mv: List[float] = []
        i = j = 0
        while i < len(st) and j < len(ot):
            if ot[j] < st[i]:
                mt.append(ot[j])
                mv.append(ov[j])
                j += 1
            else:
                mt.append(st[i])
                mv.append(sv[i])
                i += 1
        mt.extend(st[i:])
        mv.extend(sv[i:])
        mt.extend(ot[j:])
        mv.extend(ov[j:])
        self._times, self._values = mt, mv
        # Buckets combine per aligned window; watermarks max-combine.
        for level, theirs in enumerate(other._levels):
            mine = self._levels[level]
            for w0 in sorted(theirs):
                b = theirs[w0]
                target = mine.get(w0)
                if target is None:
                    mine[w0] = Bucket(*b.state())
                else:
                    target.combine(b)
            if other._covered[level] > self._covered[level]:
                self._covered[level] = other._covered[level]
        # Re-establish canonical form: raw below the merged watermark folds
        # (one side may have folded history the other still holds raw),
        # bucket levels likewise, then capacity pressure compacts.
        self._fold_raw_below(self._covered[0])
        for level in range(len(self._levels) - 1):
            self._fold_level_below(level, self._covered[level + 1])
        self._compact()
        return self

    def __getstate__(self) -> Tuple[object, ...]:
        return (
            self.name,
            self.labels,
            self.help,
            self._geometry(),
            list(self._times),
            list(self._values),
            [[self._levels[i][w0].state() for w0 in sorted(self._levels[i])]
             for i in range(len(self._levels))],
            list(self._covered),
        )

    def __setstate__(self, state: Tuple[object, ...]) -> None:
        name, labels, help_, geometry, times, values, levels, covered = state
        capacity, resolution_s, factor, n_levels, level_capacity = geometry  # type: ignore[misc]
        self.name = name  # type: ignore[assignment]
        self.labels = labels  # type: ignore[assignment]
        self.help = help_  # type: ignore[assignment]
        self.capacity = capacity
        self.resolution_s = resolution_s
        self.factor = factor
        self.level_capacity = level_capacity
        self._times = list(times)  # type: ignore[call-overload]
        self._values = list(values)  # type: ignore[call-overload]
        self._levels = [
            {s[0]: Bucket.from_state(s) for s in lv} for lv in levels  # type: ignore[union-attr]
        ]
        self._covered = list(covered)  # type: ignore[call-overload]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Series({self.name!r}, labels={dict(self.labels)!r}, "
            f"raw={len(self._times)}, total={len(self)})"
        )


class TimeSeriesDB:
    """Get-or-create home for every :class:`Series` of one run (or merge).

    Mirrors :class:`~repro.obs.registry.MetricsRegistry`: accessors are
    idempotent, the whole DB pickles, and :meth:`merge` folds worker DBs
    associatively. Series identity is ``(name, labels)`` — the name is a
    static literal (RL006-visible), labels carry per-node/per-device
    cardinality.
    """

    __slots__ = (
        "capacity",
        "resolution_s",
        "factor",
        "levels",
        "level_capacity",
        "_series",
        "_label_keys",
        "_by_name",
    )

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_RAW_CAPACITY,
        resolution_s: float = DEFAULT_RESOLUTION_S,
        factor: int = DEFAULT_DOWNSAMPLE_FACTOR,
        levels: int = DEFAULT_LEVELS,
        level_capacity: int = DEFAULT_LEVEL_CAPACITY,
    ) -> None:
        self.capacity = capacity
        self.resolution_s = resolution_s
        self.factor = factor
        self.levels = levels
        self.level_capacity = level_capacity
        self._series: Dict[Tuple[str, LabelsTuple], Series] = {}
        #: Caller label items -> canonical labels. A memo, not state: it
        #: is never pickled and ``__setstate__`` starts it empty.
        self._label_keys: Dict[Tuple[Tuple[str, str], ...], LabelsTuple] = {}
        #: Name -> its series sorted by labels, built on the first
        #: :meth:`query` after a series was added (:meth:`_add` drops it).
        #: A memo like ``_label_keys``.
        self._by_name: Optional[Dict[str, List[Series]]] = None

    def _add(self, key: Tuple[str, LabelsTuple], series: Series) -> None:
        """Store a new series; the only writer of ``_series``."""
        self._series[key] = series
        self._by_name = None

    def _labels(self, labels: Optional[Mapping[str, str]]) -> LabelsTuple:
        """:func:`_labels_key`, memoised on the mapping's items.

        Only all-``str`` items are cached, so ``{"node": 1}`` and
        ``{"node": 1.0}`` (equal as dict keys) cannot share an entry; an
        invalid label raises before anything is cached.
        """
        if not labels:
            return ()
        items = tuple(labels.items())
        try:
            return self._label_keys[items]
        except (KeyError, TypeError):  # a new mapping, or an unhashable value
            pass
        key = _labels_key(labels)
        if all(type(k) is str and type(v) is str for k, v in items):
            self._label_keys[items] = key
        return key

    def series(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        *,
        help: str = "",
    ) -> Series:
        """Get or create the series ``name`` with exactly these ``labels``."""
        key = (name, self._labels(labels))
        s = self._series.get(key)
        if s is None:
            s = Series(
                name,
                key[1],
                help=help,
                capacity=self.capacity,
                resolution_s=self.resolution_s,
                factor=self.factor,
                levels=self.levels,
                level_capacity=self.level_capacity,
            )
            self._add(key, s)
        return s

    def record(
        self,
        name: str,
        t_s: float,
        value: float,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Shorthand: get-or-create + append one sample."""
        self.series(name, labels).record(t_s, value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Optional[Series]:
        return self._series.get((name, self._labels(labels)))

    def query(self, name: str) -> List[Series]:
        """Every label-set of ``name``, sorted by labels (a new list)."""
        if self._by_name is None:
            by_name: Dict[str, List[Series]] = {}
            for key in sorted(self._series):
                by_name.setdefault(key[0], []).append(self._series[key])
            self._by_name = by_name
        return list(self._by_name.get(name, ()))

    def names(self) -> List[str]:
        """All distinct series names, sorted."""
        return sorted({key[0] for key in self._series})

    def __iter__(self) -> Iterator[Series]:
        for key in sorted(self._series):
            yield self._series[key]

    def __len__(self) -> int:
        return len(self._series)

    def __contains__(self, name: object) -> bool:
        return any(key[0] == name for key in self._series)

    def relabeled(self, labels: Mapping[str, str]) -> "TimeSeriesDB":
        """A copy with ``labels`` added to every series.

        A series' own labels win on key clashes. This is how a fleet
        rollup injects ``{job, node}`` identity into per-worker DBs before
        merging — relabelled series from different workers are disjoint,
        so the merged rollup is worker-count-invariant by construction.
        """
        extra = _labels_key(labels)
        out = TimeSeriesDB(
            capacity=self.capacity,
            resolution_s=self.resolution_s,
            factor=self.factor,
            levels=self.levels,
            level_capacity=self.level_capacity,
        )
        for key in sorted(self._series):
            series = self._series[key]
            merged = dict(extra)
            merged.update(dict(series.labels))
            new_labels = _labels_key(merged)
            clone = Series(series.name, new_labels, capacity=2)
            state = list(series.__getstate__())
            state[1] = new_labels
            clone.__setstate__(tuple(state))
            target = out._series.get((clone.name, new_labels))
            if target is None:
                out._add((clone.name, new_labels), clone)
            else:
                target.merge(clone)
        return out

    # ------------------------------------------------------------------
    # Merge + pickling
    # ------------------------------------------------------------------
    def _geometry(self) -> Tuple[int, float, int, int, int]:
        return (self.capacity, self.resolution_s, self.factor, self.levels, self.level_capacity)

    def merge(self, other: "TimeSeriesDB") -> "TimeSeriesDB":
        """Fold ``other`` into this DB (in place; returns self)."""
        if other._geometry() != self._geometry():
            raise ObsError(
                "cannot merge TimeSeriesDB: downsampling geometry differs "
                f"({self._geometry()!r} vs {other._geometry()!r})"
            )
        for key in sorted(other._series):
            theirs = other._series[key]
            mine = self._series.get(key)
            if mine is None:
                clone = Series(theirs.name, theirs.labels, capacity=2)
                clone.__setstate__(theirs.__getstate__())
                self._add(key, clone)
            else:
                mine.merge(theirs)
        return self

    def __getstate__(self) -> Tuple[object, ...]:
        return (
            self._geometry(),
            [self._series[key].__getstate__() for key in sorted(self._series)],
        )

    def __setstate__(self, state: Tuple[object, ...]) -> None:
        geometry, series_states = state
        (self.capacity, self.resolution_s, self.factor,
         self.levels, self.level_capacity) = geometry  # type: ignore[misc]
        self._series = {}
        self._label_keys = {}
        self._by_name = None
        for s_state in series_states:  # type: ignore[union-attr]
            s = Series("x.x", capacity=2)
            s.__setstate__(s_state)
            self._add((s.name, s.labels), s)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeSeriesDB({len(self._series)} series)"


def merge_tsdbs(dbs: Iterable[Optional[TimeSeriesDB]]) -> Optional[TimeSeriesDB]:
    """Fold worker TSDBs in submission order; ``None`` entries skipped."""
    out: Optional[TimeSeriesDB] = None
    for db in dbs:
        if db is None:
            continue
        if out is None:
            out = TimeSeriesDB(
                capacity=db.capacity,
                resolution_s=db.resolution_s,
                factor=db.factor,
                levels=db.levels,
                level_capacity=db.level_capacity,
            )
        out.merge(db)
    return out


def canonical_state_bytes(store: Union[Series, TimeSeriesDB]) -> bytes:
    """Identity-free byte view of a series/DB state, for equality checks.

    ``pickle.dumps`` is value-deterministic but also memoizes *shared*
    sub-objects, so two stores with equal contents can pickle to
    different bytes purely because one was built in-process (rich object
    sharing) and the other crossed a worker-pool pickle boundary. The
    JSON encoding below depends on values alone — it is the byte string
    the worker-count-invariance tests (and any CI artifact diff) compare.
    """
    return json.dumps(store.__getstate__(), separators=(",", ":")).encode("ascii")
