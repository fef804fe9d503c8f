"""Time-series store invariants: staircase reads, lossless downsampling,
associative merges, and worker-count-invariant fleet rollups.

The merge/pickle byte-equality tests pin the property the fleet scrape
path depends on: any merge tree over the same per-worker stores must
produce an identical pickled state, so `map_parallel` worker count can
never leak into a scraped run's artifacts.
"""

import math
import pickle
import random

import pytest

from repro.cluster.job import ClusterJob
from repro.cluster.simulator import ClusterSimulator
from repro.errors import ObsError
from repro.obs.tsdb import (
    Series,
    TimeSeriesDB,
    canonical_state_bytes as state_bytes,
    merge_tsdbs,
)


def small_series(name="repro.ts.test.value", labels=(), **overrides):
    """A series with aggressive downsampling so tests exercise folding."""
    kwargs = dict(capacity=8, resolution_s=0.5, factor=2, levels=3, level_capacity=4)
    kwargs.update(overrides)
    return Series(name, labels, **kwargs)


class TestSeriesBasics:
    def test_staircase_value_at(self):
        s = small_series()
        for t, v in [(0.0, 1.0), (1.0, 2.0), (3.0, 5.0)]:
            s.record(t, v)
        assert s.value_at(-0.5) is None
        assert s.value_at(0.0) == 1.0
        assert s.value_at(0.99) == 1.0
        assert s.value_at(1.0) == 2.0
        assert s.value_at(2.9) == 2.0
        assert s.value_at(100.0) == 5.0
        assert s.latest() == (3.0, 5.0)

    def test_time_never_rewinds(self):
        s = small_series()
        s.record(2.0, 1.0)
        with pytest.raises(ObsError, match="never rewinds"):
            s.record(1.5, 1.0)

    def test_equal_timestamps_keep_insertion_order(self):
        s = small_series()
        s.record(1.0, 3.0)
        s.record(1.0, 7.0)
        assert s.samples_between(1.0, 1.0) == [(1.0, 3.0), (1.0, 7.0)]
        # Staircase read returns the newest of the equal-time samples.
        assert s.value_at(1.0) == 7.0

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ObsError, match="capacity"):
            Series("repro.ts.test.value", capacity=1)
        with pytest.raises(ObsError, match="geometry"):
            Series("repro.ts.test.value", resolution_s=0.0)
        with pytest.raises(ObsError, match="geometry"):
            Series("repro.ts.test.value", factor=1)

    @pytest.mark.parametrize(
        "t_s, value",
        [
            (math.nan, 1.0),
            (math.inf, 1.0),
            (-math.inf, 1.0),
            (2.0, math.nan),
            (2.0, math.inf),
            (2.0, -math.inf),
        ],
    )
    def test_non_finite_sample_rejected(self, t_s, value):
        s = small_series()
        s.record(1.0, 1.0)
        with pytest.raises(ObsError, match="non-finite"):
            s.record(t_s, value)
        with pytest.raises(ObsError, match="non-finite"):
            TimeSeriesDB().record("repro.ts.test.value", t_s, value)
        # Nothing was appended, and the ring still takes ordered samples.
        assert s.samples_after(-1.0) == [(1.0, 1.0)]
        s.record(2.0, 3.0)
        assert s.summary()["count"] == 2.0

    def test_negative_time_on_a_fresh_series_says_why(self):
        # Nothing was folded yet, so the refusal must not blame a downsample.
        with pytest.raises(ObsError, match=r"t=-1\.0 is before t=0") as err:
            small_series().record(-1.0, 2.0)
        assert "downsampled" not in str(err.value)

    def test_nan_time_cannot_unsort_the_ring(self):
        s = small_series()
        s.record(1.0, 1.0)
        with pytest.raises(ObsError):
            s.record(math.nan, 2.0)
        with pytest.raises(ObsError, match="never rewinds"):
            s.record(0.5, 3.0)
        assert s.samples_after(-1.0) == [(1.0, 1.0)]

    def test_invalid_name_and_label_keys_rejected(self):
        with pytest.raises(Exception):
            Series("NotDotted")
        db = TimeSeriesDB()
        with pytest.raises(ObsError, match="label key"):
            db.series("repro.ts.test.value", {"9bad": "x"})


class TestDownsampling:
    def test_buckets_preserve_window_stats_at_boundaries(self):
        # capacity 4, level-0 width 2.0s: recording past each window
        # boundary folds exactly the windowed samples into one bucket.
        s = Series(
            "repro.ts.test.value",
            capacity=4,
            resolution_s=1.0,
            factor=2,
            levels=2,
            level_capacity=8,
        )
        samples = [
            (0.0, 4.0),
            (0.5, 1.0),
            (1.0, 9.0),
            (1.5, 2.0),
            (2.0, 3.0),
            (2.5, 7.0),
            (3.0, 5.0),
            (3.5, 8.0),
            (4.0, 6.0),
        ]
        for t, v in samples:
            s.record(t, v)
        buckets = s.buckets(0)
        assert [b.t0_s for b in buckets] == [0.0, 2.0]
        first, second = buckets
        assert (first.min, first.max, first.sum, first.count) == (1.0, 9.0, 16.0, 4)
        assert (first.last_t_s, first.last) == (1.5, 2.0)
        assert (second.min, second.max, second.sum, second.count) == (3.0, 8.0, 23.0, 4)
        # The raw ring holds only the unfolded tail.
        assert s.samples_after(3.5) == [(4.0, 6.0)]
        assert len(s) == len(samples)

    def test_summary_exact_after_heavy_folding(self):
        s = small_series()
        values = [0.25 * i for i in range(200)]
        for i, v in enumerate(values):
            s.record(0.05 * i, v)
        # Folding happened (the ring only holds the unfolded tail window).
        assert s.raw_count < 200
        assert sum(b.count for b in s.buckets(0) + s.buckets(1) + s.buckets(2)) > 0
        assert len(s) == 200
        summary = s.summary()
        # Dyadic values: the exact-Fraction accumulator must reproduce the
        # true sum bit-for-bit regardless of how folding grouped samples.
        assert summary == {
            "min": 0.0,
            "max": 0.25 * 199,
            "sum": float(sum(values)),
            "count": 200.0,
        }

    def test_value_at_answers_from_buckets_below_raw_window(self):
        s = small_series()
        for i in range(100):
            s.record(0.1 * i, float(i))
        # Early samples have long since folded out of the raw ring, but the
        # staircase read still answers from the buckets that swallowed them
        # (the newest bucket ending at or before the query time).
        assert min(s.samples_between(0.0, 100.0))[0] > 2.0  # raw window starts late
        assert s.value_at(2.0) is not None

    def test_bucket_alignment(self):
        s = small_series()
        for i in range(200):
            s.record(0.05 * i, float(i % 13))
        for level in range(3):
            width = s.level_width_s(level)
            for bucket in s.buckets(level):
                assert bucket.t0_s == (bucket.t0_s // width) * width
                assert bucket.count >= 1
                assert bucket.min <= bucket.max

    def test_empty_summary(self):
        s = small_series()
        assert s.summary() == {"min": 0.0, "max": 0.0, "sum": 0.0, "count": 0.0}


def reference_samples_between(series, t0_s, t1_s):
    """The linear scan ``samples_between`` replaced."""
    return [(t, v) for t, v in zip(series._times, series._values) if t0_s <= t <= t1_s]


def reference_samples_after(series, t_s):
    """The linear scan ``samples_after`` replaced."""
    return [(t, v) for t, v in zip(series._times, series._values) if t > t_s]


def reference_value_at(series, t_s):
    """``value_at`` as a linear scan of the raw ring, then the buckets."""
    raw = [v for t, v in zip(series._times, series._values) if t <= t_s]
    if raw:
        return raw[-1]
    best = None
    for level in series._levels:
        for bucket in level.values():
            if bucket.last_t_s <= t_s and (best is None or bucket.last_t_s > best.last_t_s):
                best = bucket
    return best.last if best is not None else None


def reference_samples_window(series, t_s, until_s):
    """The linear scan ``samples_after(t_s, until_s)`` replaced."""
    return [(t, v) for t, v in zip(series._times, series._values) if t_s < t <= until_s]


def reference_steps(series, t0_s, t1_s):
    """``steps`` as a linear scan: the last raw sample at or before ``t0_s``,
    then the raw samples strictly inside ``(t0_s, t1_s)``; none at or after
    ``t1_s``."""
    raw = list(zip(series._times, series._values))
    head = [(t, v) for t, v in raw if t <= t0_s][-1:]
    inside = [(t, v) for t, v in raw if t0_s < t < t1_s]
    pairs = [(t, v) for t, v in head if t < t1_s] + inside
    return [t for t, _ in pairs], [v for _, v in pairs]


def walk_value_at(steps, series, t_s):
    """The staircase value at ``t_s`` read off ``steps`` (``value_at`` before
    the first breakpoint), as the burn-rate walk reads it."""
    times, values = steps
    seen = [v for t, v in zip(times, values) if t <= t_s]
    return seen[-1] if seen else series.value_at(t_s)


def random_series(seed, n_samples):
    """A seeded series with repeated timestamps, folded past its capacity."""
    rng = random.Random(seed)
    s = small_series()
    t = rng.choice([0.0, 0.3, 2.0])
    for _ in range(n_samples):
        t += rng.choice([0.0, 0.0, 0.05, 0.1, 0.25, 1.0])
        s.record(t, rng.uniform(-5.0, 5.0))
    return s


def probe_times(series, rng):
    """Query instants: every sample time, points between, bounds outside."""
    times = list(series._times)
    lo = times[0] if times else 0.0
    hi = times[-1] if times else 1.0
    probes = times + [lo - 1.0, hi + 1.0, -1e9, 1e9]
    probes += [rng.uniform(lo - 0.5, hi + 0.5) for _ in range(20)]
    return probes


class TestWindowReadsMatchLinearScans:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("n_samples", [0, 1, 5, 40])
    def test_bisected_reads_equal_the_scans(self, seed, n_samples):
        s = random_series(seed, n_samples)
        if n_samples == 40:
            assert s.raw_count < n_samples, "the series never folded"
        rng = random.Random(1000 + seed)
        probes = probe_times(s, rng)
        for t in probes:
            assert s.value_at(t) == reference_value_at(s, t)
            assert s.samples_after(t) == reference_samples_after(s, t)
        for t0 in probes:
            t1 = t0 + rng.choice([-0.5, 0.0, 0.05, 0.5, 3.0])
            assert s.samples_between(t0, t1) == reference_samples_between(s, t0, t1)
            assert s.samples_after(t0, t1) == reference_samples_window(s, t0, t1)
            steps = s.steps(t0, t1)
            assert steps == reference_steps(s, t0, t1)
            if t1 > t0:
                for t in sorted(rng.uniform(t0, t1) for _ in range(5)) + [t0]:
                    assert walk_value_at(steps, s, t) == s.value_at(t)


def build_chunks(n_chunks=3, n_samples=120):
    """Round-robin split of one sample stream into per-"worker" series."""
    chunks = [small_series() for _ in range(n_chunks)]
    for i in range(n_samples):
        chunks[i % n_chunks].record(0.05 * i, 0.125 * (i % 17) - 1.0)
    return chunks


class TestSeriesMerge:
    def test_merge_tree_shape_cannot_leak_into_bytes(self):
        a1, b1, c1 = build_chunks()
        left = a1.merge(b1).merge(c1)
        a2, b2, c2 = build_chunks()
        right = a2.merge(b2.merge(c2))
        a3, b3, c3 = build_chunks()
        rotated = c3.merge(a3).merge(b3)
        assert state_bytes(left) == state_bytes(right) == state_bytes(rotated)

    def test_merge_preserves_every_sample(self):
        chunks = build_chunks()
        merged = chunks[0].merge(chunks[1]).merge(chunks[2])
        assert len(merged) == 120
        reference = small_series()
        for i in range(120):
            reference.record(0.05 * i, 0.125 * (i % 17) - 1.0)
        assert merged.summary() == reference.summary()

    def test_merge_matches_single_writer(self):
        # A merge of round-robin chunks is byte-identical to one series
        # that saw the whole stream — the n_workers=1 vs n baseline.
        chunks = build_chunks()
        merged = chunks[0].merge(chunks[1]).merge(chunks[2])
        solo = small_series()
        for i in range(120):
            solo.record(0.05 * i, 0.125 * (i % 17) - 1.0)
        assert state_bytes(merged) == state_bytes(solo)

    def test_identity_and_geometry_mismatches_rejected(self):
        s = small_series()
        with pytest.raises(ObsError, match="cannot merge"):
            s.merge(small_series(name="repro.ts.test.other"))
        with pytest.raises(ObsError, match="cannot merge"):
            s.merge(small_series(labels=(("node", "1"),)))
        with pytest.raises(ObsError, match="geometry"):
            s.merge(small_series(capacity=16))

    def test_pickle_roundtrip_is_byte_stable(self):
        chunks = build_chunks()
        merged = chunks[0].merge(chunks[1]).merge(chunks[2])
        clone = pickle.loads(pickle.dumps(merged))
        assert state_bytes(clone) == state_bytes(merged)


class TestTimeSeriesDB:
    def test_series_accessor_is_idempotent(self):
        db = TimeSeriesDB()
        s1 = db.series("repro.ts.test.value", {"node": "0"})
        s2 = db.series("repro.ts.test.value", {"node": "0"})
        assert s1 is s2
        assert db.get("repro.ts.test.value", {"node": "0"}) is s1
        assert db.get("repro.ts.test.value", {"node": "1"}) is None

    def test_query_names_contains(self):
        db = TimeSeriesDB()
        db.record("repro.ts.test.b", 0.0, 1.0, {"node": "1"})
        db.record("repro.ts.test.b", 0.0, 1.0, {"node": "0"})
        db.record("repro.ts.test.a", 0.0, 1.0)
        assert db.names() == ["repro.ts.test.a", "repro.ts.test.b"]
        assert [s.labels for s in db.query("repro.ts.test.b")] == [
            (("node", "0"),),
            (("node", "1"),),
        ]
        assert "repro.ts.test.a" in db
        assert "repro.ts.test.missing" not in db
        assert len(db) == 3

    def test_relabeled_injects_identity_labels(self):
        db = TimeSeriesDB()
        db.record("repro.ts.test.value", 1.0, 2.0, {"device": "msr"})
        out = db.relabeled({"job": "j0", "node": "3", "device": "clobbered"})
        (series,) = out.query("repro.ts.test.value")
        # A series' own labels win on key clashes.
        assert dict(series.labels) == {"device": "msr", "job": "j0", "node": "3"}
        assert series.latest() == (1.0, 2.0)

    def test_db_merge_tree_shape_cannot_leak_into_bytes(self):
        def build(parity):
            db = TimeSeriesDB(capacity=8, resolution_s=0.5, factor=2, levels=3, level_capacity=4)
            for i in range(parity, 90, 3):
                db.record("repro.ts.test.value", 0.1 * i, float(i), {"node": str(i % 2)})
                db.record("repro.ts.test.other", 0.1 * i, float(-i))
            return db

        left = build(0).merge(build(1)).merge(build(2))
        inner = build(1).merge(build(2))
        right = build(0).merge(inner)
        assert state_bytes(left) == state_bytes(right)

    def test_db_merge_geometry_mismatch_rejected(self):
        with pytest.raises(ObsError, match="geometry"):
            TimeSeriesDB().merge(TimeSeriesDB(capacity=8))

    def test_label_order_does_not_split_a_series(self):
        db = TimeSeriesDB()
        first = db.series("repro.ts.test.value", {"a": "1", "b": "2"})
        assert db.series("repro.ts.test.value", {"b": "2", "a": "1"}) is first
        assert db.get("repro.ts.test.value", {"b": "2", "a": "1"}) is first
        assert first.labels == (("a", "1"), ("b", "2"))

    def test_invalid_label_raises_on_every_call(self):
        db = TimeSeriesDB()
        for _ in range(3):
            with pytest.raises(ObsError, match="label key"):
                db.series("repro.ts.test.value", {"9bad": "x"})
            with pytest.raises(ObsError, match="label key"):
                db.record("repro.ts.test.value", 0.0, 1.0, {"9bad": "x"})
        assert len(db) == 0

    def test_equal_but_differently_typed_labels_stay_apart(self):
        # 1 == 1.0 as dict keys, but their label strings differ.
        db = TimeSeriesDB()
        as_int = db.series("repro.ts.test.value", {"node": 1})
        as_float = db.series("repro.ts.test.value", {"node": 1.0})
        assert as_int.labels == (("node", "1"),)
        assert as_float.labels == (("node", "1.0"),)
        assert db.series("repro.ts.test.value", {"node": ["1"]}).labels == (("node", "['1']"),)

    def test_label_memo_is_not_state(self):
        def build():
            db = TimeSeriesDB(capacity=8, resolution_s=0.5, factor=2, levels=3, level_capacity=4)
            for i in range(40):
                db.record("repro.ts.test.value", 0.1 * i, float(i), {"node": str(i % 3)})
            return db

        plain = build()
        busy = build()
        # Warm the memo with mappings that create no series.
        for order in ({"a": "1", "b": "2"}, {"b": "2", "a": "1"}):
            assert busy.get("repro.ts.test.value", order) is None
        assert state_bytes(busy) == state_bytes(plain)
        assert pickle.dumps(busy) == pickle.dumps(plain)
        clone = pickle.loads(pickle.dumps(busy))
        assert clone._label_keys == {}
        assert state_bytes(clone) == state_bytes(plain)
        assert clone.series("repro.ts.test.value", {"node": "1"}) is clone.get(
            "repro.ts.test.value", {"node": "1"}
        )
        relabels = {"job": "j0", "node": "7"}
        assert state_bytes(busy.relabeled(relabels)) == state_bytes(plain.relabeled(relabels))
        assert state_bytes(busy.merge(build())) == state_bytes(plain.merge(build()))

    def test_query_returns_a_copy(self):
        db = TimeSeriesDB()
        db.record("repro.ts.test.value", 0.0, 1.0, {"node": "0"})
        db.query("repro.ts.test.value").clear()
        db.query("repro.ts.test.missing").append(db.get("repro.ts.test.value", {"node": "0"}))
        assert len(db.query("repro.ts.test.value")) == 1
        assert db.query("repro.ts.test.missing") == []

    @pytest.mark.parametrize("seed", range(8))
    def test_query_index_equals_the_sorted_scan(self, seed):
        """After every kind of series addition, ``query`` answers exactly
        what a filter over every key would."""
        names = ["repro.ts.test.a", "repro.ts.test.b", "repro.ts.test.missing"]
        rng = random.Random(seed)

        def scan(db, name):
            return [db._series[key] for key in sorted(key for key in db._series if key[0] == name)]

        def check(db):
            for name in names:
                got = db.query(name)
                want = scan(db, name)
                assert len(got) == len(want)
                assert all(a is b for a, b in zip(got, want))

        def random_db(n):
            db = TimeSeriesDB(capacity=4, resolution_s=0.5, factor=2, levels=2, level_capacity=2)
            for _ in range(n):
                db.record(
                    rng.choice(names[:2]), 0.0, 1.0, {"node": str(rng.randrange(6))}
                )
            return db

        db = random_db(1)
        for _ in range(25):
            check(db)
            step = rng.choice(["record", "series", "merge", "relabel", "pickle", "merge_all"])
            if step == "record":
                db.record(rng.choice(names[:2]), 0.0, 2.0, {"node": str(rng.randrange(9))})
            elif step == "series":
                db.series(rng.choice(names[:2]), {"node": str(rng.randrange(9))})
            elif step == "merge":
                db.merge(random_db(3))
            elif step == "relabel":
                db = db.relabeled({"job": rng.choice(["j0", "j1"])})
            elif step == "pickle":
                db = pickle.loads(pickle.dumps(db))
            else:
                db = merge_tsdbs([db, random_db(2)])
        check(db)

    def test_merge_tsdbs_skips_nones(self):
        assert merge_tsdbs([]) is None
        assert merge_tsdbs([None, None]) is None
        db = TimeSeriesDB()
        db.record("repro.ts.test.value", 0.0, 1.0)
        merged = merge_tsdbs([None, db, None])
        assert merged is not None and "repro.ts.test.value" in merged


# ---------------------------------------------------------------------------
# Fleet integration: worker-count invariance + scrape passivity.
# ---------------------------------------------------------------------------

FLEET_JOBS = [
    ClusterJob("j0-sort", "sort", 0.0, seed=1, max_time_s=6.0),
    ClusterJob("j1-bfs", "bfs", 1.0, seed=2, max_time_s=6.0),
    ClusterJob("j2-gemm", "gemm", 0.5, seed=3, max_time_s=6.0),
    ClusterJob("j3-kmeans", "kmeans", 1.5, seed=4, max_time_s=6.0),
]


@pytest.fixture(scope="module")
def scraped_fleets():
    """The same four-job fleet scraped under 1, 2 and 4 pool workers."""
    runs = {}
    for n_workers in (1, 2, 4):
        sim = ClusterSimulator("intel_a100", FLEET_JOBS)
        runs[n_workers] = sim.run_fleet("default", n_workers=n_workers, tsdb=True)
    return runs


class TestFleetWorkerInvariance:
    def test_rollup_bytes_identical_across_worker_counts(self, scraped_fleets):
        rollups = {
            n: state_bytes(fleet.tsdb_rollup()) for n, fleet in scraped_fleets.items()
        }
        assert rollups[1] == rollups[2] == rollups[4]

    def test_rollup_carries_labelled_job_series(self, scraped_fleets):
        db = scraped_fleets[1].tsdb_rollup()
        assert "repro.ts.fleet.power_w" in db
        energy = db.query("repro.ts.daemon.cycle_energy_j")
        jobs = {dict(s.labels).get("job") for s in energy}
        assert jobs == {job.name for job in FLEET_JOBS}
        for series in energy:
            assert set(dict(series.labels)) == {"job", "node"}

    def test_scraping_is_passive(self, scraped_fleets):
        sim = ClusterSimulator("intel_a100", FLEET_JOBS)
        plain = sim.run_fleet("default", n_workers=2, tsdb=False)
        scraped = scraped_fleets[2]
        assert plain.grid_times_s.tobytes() == scraped.grid_times_s.tobytes()
        assert plain.aggregate_power_w.tobytes() == scraped.aggregate_power_w.tobytes()
        for a, b in zip(plain.outcomes, scraped.outcomes):
            assert a.job.name == b.job.name
            assert a.runtime_s == b.runtime_s
