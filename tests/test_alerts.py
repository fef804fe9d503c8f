"""Alert engine: rule semantics on synthetic stores, plus firing/resolved
determinism of the default fleet SLO pack under control-plane chaos.

The integration half pins the properties `repro alerts --gate` relies on:
the same seed produces the identical alert event stream regardless of
pool worker count, the uplink campaign always pages, and a chaos-free
ample-budget run stays page-silent (and bit-identical to an unscraped
run — scraping is passive).
"""

import json
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.job import ClusterJob
from repro.errors import FaultInjectionError, ObsError
from repro.experiments.coordination import run_coordination
from repro.faults.incidents import IncidentLog
from repro.faults.plan import uplink_campaign
from repro.obs.alerts import (
    SEV_PAGE,
    SEV_WARN,
    AbsenceRule,
    AlertEngine,
    AnomalyRule,
    BurnRateRule,
    ThresholdRule,
)
from repro.obs.scrape import default_fleet_rules
from repro.obs.tsdb import TimeSeriesDB


def make_db(samples_by_series):
    """Build a TSDB from ``{(name, labels_dict_or_None): [(t, v), ...]}``."""
    db = TimeSeriesDB()
    for (name, labels), samples in samples_by_series.items():
        for t, v in samples:
            db.record(name, t, v, dict(labels) if labels else None)
    return db


SERIES = "repro.ts.test.value"


class TestRuleValidation:
    def test_bad_severity_rejected(self):
        with pytest.raises(ObsError, match="severity"):
            ThresholdRule("repro.alert.test", SERIES, ">", 1.0, severity="critical")

    def test_unknown_comparison_rejected(self):
        with pytest.raises(ObsError, match="comparison"):
            ThresholdRule("repro.alert.test", SERIES, "!=", 1.0)

    def test_burn_rate_needs_exactly_one_threshold(self):
        with pytest.raises(ObsError, match="exactly one"):
            BurnRateRule("repro.alert.test", SERIES, ">", window_s=5.0, burn_frac=0.5)
        with pytest.raises(ObsError, match="exactly one"):
            BurnRateRule(
                "repro.alert.test", SERIES, ">", window_s=5.0, burn_frac=0.5,
                threshold=1.0, threshold_series="repro.ts.test.cap",
            )

    def test_burn_rate_window_geometry(self):
        with pytest.raises(ObsError, match="window"):
            BurnRateRule(
                "repro.alert.test", SERIES, ">", window_s=0.0, burn_frac=0.5, threshold=1.0
            )
        with pytest.raises(ObsError, match="burn_frac"):
            BurnRateRule(
                "repro.alert.test", SERIES, ">", window_s=5.0, burn_frac=1.5, threshold=1.0
            )

    def test_absence_and_anomaly_parameters(self):
        with pytest.raises(ObsError, match="stale_after_s"):
            AbsenceRule("repro.alert.test", SERIES, stale_after_s=0.0)
        with pytest.raises(ObsError, match="EWMA"):
            AnomalyRule("repro.alert.test", SERIES, alpha=1.5)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ThresholdRule("repro.alert.test", SERIES, ">", math.nan),
            lambda: ThresholdRule("repro.alert.test", SERIES, ">", 1.0, for_s=math.nan),
            lambda: BurnRateRule(
                "repro.alert.test", SERIES, ">", window_s=math.nan, burn_frac=0.5, threshold=1.0
            ),
            lambda: BurnRateRule(
                "repro.alert.test", SERIES, ">", window_s=5.0, burn_frac=0.5, threshold=math.nan
            ),
            lambda: AbsenceRule("repro.alert.test", SERIES, stale_after_s=math.nan),
            lambda: AnomalyRule("repro.alert.test", SERIES, z_threshold=math.nan),
            lambda: AnomalyRule("repro.alert.test", SERIES, min_sigma=math.nan),
        ],
        ids=[
            "threshold",
            "for_s",
            "window_s",
            "burn_threshold",
            "stale_after_s",
            "z_threshold",
            "min_sigma",
        ],
    )
    def test_nan_parameter_rejected(self, build):
        # Every comparison with NaN is false, so such a rule could never fire.
        with pytest.raises(ObsError, match="must not be NaN"):
            build()

    def test_duplicate_rule_names_rejected(self):
        rules = [
            ThresholdRule("repro.alert.test", SERIES, ">", 1.0),
            AbsenceRule("repro.alert.test", SERIES, stale_after_s=1.0),
        ]
        with pytest.raises(ObsError, match="duplicate"):
            AlertEngine(TimeSeriesDB(), rules)


class TestThresholdRule:
    def test_fires_and_resolves(self):
        db = make_db({(SERIES, None): [(0.0, 1.0), (5.0, 20.0), (10.0, 1.0)]})
        engine = AlertEngine(db, [ThresholdRule("repro.alert.test", SERIES, ">", 10.0)])
        assert engine.evaluate(0.0) == []
        (fired,) = engine.evaluate(5.0)
        assert (fired.state, fired.value) == ("firing", 20.0)
        (resolved,) = engine.evaluate(10.0)
        assert resolved.state == "resolved"
        assert engine.firing() == []
        assert [e.state for e in engine.events] == ["firing", "resolved"]

    def test_hold_time_delays_firing(self):
        db = make_db({(SERIES, None): [(0.0, 100.0)]})
        rule = ThresholdRule("repro.alert.test", SERIES, ">", 50.0, for_s=3.0)
        target = db.get(SERIES)
        state = {}
        violated, _, detail = rule.check(db, target, 1.0, state)
        assert not violated and "holding" in detail
        violated, _, _ = rule.check(db, target, 4.0, state)
        assert violated

    def test_no_data_before_first_sample(self):
        db = make_db({(SERIES, None): [(5.0, 100.0)]})
        rule = ThresholdRule("repro.alert.test", SERIES, ">", 50.0)
        violated, _, detail = rule.check(db, db.get(SERIES), 1.0, {})
        assert not violated and detail == "no data"


class TestBurnRateRule:
    def test_time_weighted_fraction(self):
        # Value is above the threshold only on [6, 8) of the [5, 10] window:
        # 2s of 5s = 40% burn.
        db = make_db({(SERIES, None): [(0.0, 0.0), (6.0, 100.0), (8.0, 0.0)]})
        target = db.get(SERIES)
        strict = BurnRateRule(
            "repro.alert.test", SERIES, ">", window_s=5.0, burn_frac=0.5, threshold=50.0
        )
        violated, frac, _ = strict.check(db, target, 10.0, {})
        assert not violated and frac == pytest.approx(0.4)
        loose = BurnRateRule(
            "repro.alert.test", SERIES, ">", window_s=5.0, burn_frac=0.3, threshold=50.0
        )
        violated, frac, _ = loose.check(db, target, 10.0, {})
        assert violated and frac == pytest.approx(0.4)

    def test_threshold_series_matches_labels(self):
        cap = "repro.ts.test.cap"
        db = make_db({
            (SERIES, (("node", "0"),)): [(float(t), 100.0) for t in range(11)],
            (SERIES, (("node", "1"),)): [(float(t), 100.0) for t in range(11)],
            (cap, (("node", "0"),)): [(0.0, 10.0)],
            (cap, (("node", "1"),)): [(0.0, 200.0)],
        })
        rule = BurnRateRule(
            "repro.alert.test", SERIES, ">",
            window_s=5.0, burn_frac=0.5, threshold_series=cap,
        )
        starved = db.get(SERIES, {"node": "0"})
        happy = db.get(SERIES, {"node": "1"})
        assert rule.check(db, starved, 10.0, {})[0]
        assert not rule.check(db, happy, 10.0, {})[0]

    def test_threshold_series_labelless_fallback(self):
        cap = "repro.ts.test.cap"
        db = make_db({
            (SERIES, (("node", "2"),)): [(float(t), 200.0) for t in range(11)],
            (cap, None): [(0.0, 150.0)],
        })
        rule = BurnRateRule(
            "repro.alert.test", SERIES, ">",
            window_s=5.0, burn_frac=0.5, threshold_series=cap,
        )
        assert rule.check(db, db.get(SERIES, {"node": "2"}), 10.0, {})[0]

    def test_missing_threshold_series_never_fires(self):
        db = make_db({(SERIES, None): [(float(t), 100.0) for t in range(11)]})
        rule = BurnRateRule(
            "repro.alert.test", SERIES, ">",
            window_s=5.0, burn_frac=0.5, threshold_series="repro.ts.test.cap",
        )
        violated, _, detail = rule.check(db, db.get(SERIES), 10.0, {})
        assert not violated and detail == "no data in window"


_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}
CAP = "repro.ts.test.cap"


def reference_burn_rate(rule, tsdb, target, now_s):
    """``BurnRateRule.check`` before its one-pass walk: every window segment
    reads both staircases with ``value_at``."""
    t0 = now_s - rule.window_s
    boundaries = [t0] + [t for t, _ in target.samples_between(t0, now_s)] + [now_s]
    ref = rule._threshold_ref(tsdb, target) if rule.threshold is None else None
    op = _COMPARE[rule.op]
    violating_s = 0.0
    covered_s = 0.0
    for left, right in zip(boundaries, boundaries[1:]):
        if right <= left:
            continue
        value = target.value_at(left)
        limit = ref.value_at(left) if ref is not None else rule.threshold
        if value is None or limit is None:
            continue
        covered_s += right - left
        if op(value, limit):
            violating_s += right - left
    if covered_s <= 0.0:
        return False, 0.0, "no data in window"
    frac = violating_s / rule.window_s
    return (
        frac > rule.burn_frac,
        frac,
        f"violating {frac * 100:.1f}% of {rule.window_s:.6g}s window "
        f"(gate {rule.burn_frac * 100:.1f}%)",
    )


#: (time step, value) pairs: repeated timestamps and values, so ties in
#: both time and comparison show.
_STEPS = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.5, 1.0, 2.5]), st.integers(0, 4)),
    max_size=40,
)


def _record_steps(db, name, labels, start, steps):
    t = start
    times = []
    for dt, value in steps:
        t += dt
        db.record(name, t, float(value), labels)
        times.append(t)
    return times


@st.composite
def burn_rate_cases(draw):
    """A store whose raw rings are small enough that windows start in
    compacted history, a rule over it, and the instants to check at."""
    capacity = draw(st.integers(2, 8))
    db = TimeSeriesDB(
        capacity=capacity, resolution_s=0.25, factor=2, levels=2, level_capacity=2
    )
    target = db.series(SERIES, {"node": "0"})
    times = _record_steps(
        db, SERIES, {"node": "0"}, draw(st.sampled_from([0.0, 0.3, 2.0])), draw(_STEPS)
    )
    kind = draw(st.sampled_from(["static", "labelled", "labelless", "missing"]))
    if kind in ("labelled", "labelless"):
        labels = {"node": "0"} if kind == "labelled" else None
        times += _record_steps(db, CAP, labels, draw(st.sampled_from([0.0, 0.7, 4.0])), draw(_STEPS))
        if kind == "labelled":
            # A label-less decoy the per-target threshold must win over.
            db.record(CAP, 0.0, 2.0)
    rule = BurnRateRule(
        "repro.alert.test",
        SERIES,
        draw(st.sampled_from([">", ">=", "<", "<="])),
        window_s=draw(st.sampled_from([0.1, 0.5, 1.0, 3.0, 10.0])),
        burn_frac=draw(st.sampled_from([0.1, 0.5, 1.0])),
        threshold=2.0 if kind == "static" else None,
        threshold_series=None if kind == "static" else CAP,
    )
    last = max(times, default=0.0)
    nows = times + [last + 0.05, last + 0.5, last + 20.0, -1.0, draw(st.floats(-1.0, last + 1.0))]
    return db, target, rule, nows


@st.composite
def anomaly_cases(draw):
    """A compacting series, then evaluation instants in any order."""
    db = TimeSeriesDB(
        capacity=draw(st.integers(2, 8)), resolution_s=0.25, factor=2, levels=2, level_capacity=2
    )
    target = db.series(SERIES)
    times = _record_steps(db, SERIES, None, draw(st.sampled_from([-0.0, 0.0, 0.3])), draw(_STEPS))
    last = max(times, default=0.0)
    nows = sorted(draw(st.lists(st.sampled_from([*times, -0.5, 0.0, last + 1.0]), max_size=12)))
    if draw(st.booleans()):
        nows.reverse()
    return target, nows


def reference_anomaly(rule, target, now_s, state):
    """``AnomalyRule.check`` before it read its fresh samples with
    ``samples_after``: a window read, then a filter."""
    last_seen = state.get("last_seen_s", float("-inf"))
    fresh = target.samples_between(max(0.0, last_seen), now_s)
    fresh = [(t, v) for t, v in fresh if t > last_seen]
    n = state.get("n", 0.0)
    mean = state.get("mean", 0.0)
    var = state.get("var", 0.0)
    worst_z = 0.0
    alpha = rule.alpha
    for t, v in fresh:
        if n >= rule.warmup:
            sigma = math.sqrt(var) if var > 0 else 0.0
            if sigma > rule.min_sigma:
                z = abs(v - mean) / sigma
                if z > worst_z:
                    worst_z = z
        delta = v - mean
        mean += alpha * delta
        var = (1.0 - alpha) * (var + alpha * delta * delta)
        n += 1.0
        state["last_seen_s"] = t
    state["n"] = n
    state["mean"] = mean
    state["var"] = var
    return (
        worst_z > rule.z_threshold,
        worst_z,
        f"max |z| {worst_z:.3g} over {len(fresh)} new samples "
        f"(gate {rule.z_threshold:.3g})",
    )


class TestWalksMatchTheirReferences:
    @settings(max_examples=250, deadline=None)
    @given(burn_rate_cases())
    def test_burn_rate_walk_equals_per_segment_reads(self, case):
        db, target, rule, nows = case
        for now in nows:
            got = rule.check(db, target, now, {})
            want = reference_burn_rate(rule, db, target, now)
            assert (got[0], repr(got[1]), got[2]) == (want[0], repr(want[1]), want[2]), now

    @settings(max_examples=200, deadline=None)
    @given(anomaly_cases())
    def test_anomaly_fresh_read_equals_the_filtered_window(self, case):
        target, nows = case
        rule = AnomalyRule("repro.alert.test", SERIES, z_threshold=1.0, warmup=2)
        db = TimeSeriesDB()
        state, ref_state = {}, {}
        for now in nows:
            got = rule.check(db, target, now, state)
            want = reference_anomaly(rule, target, now, ref_state)
            assert (got[0], repr(got[1]), got[2]) == (want[0], repr(want[1]), want[2])
            assert state == ref_state


class TestAbsenceRule:
    def test_fires_when_stale_resolves_on_sample(self):
        db = make_db({(SERIES, None): [(0.0, 1.0), (2.0, 1.0)]})
        engine = AlertEngine(
            db, [AbsenceRule("repro.alert.test", SERIES, stale_after_s=2.0)]
        )
        assert engine.evaluate(3.0) == []
        (fired,) = engine.evaluate(5.0)
        assert fired.state == "firing" and fired.value == pytest.approx(3.0)
        db.record(SERIES, 6.0, 1.0)
        (resolved,) = engine.evaluate(6.0)
        assert resolved.state == "resolved"

    def test_silent_forever_series_never_fires(self):
        db = TimeSeriesDB()
        db.series(SERIES)  # exists but never reported
        rule = AbsenceRule("repro.alert.test", SERIES, stale_after_s=1.0)
        violated, _, detail = rule.check(db, db.get(SERIES), 100.0, {})
        assert not violated and detail == "never reported"


class TestAnomalyRule:
    def test_step_change_alarms_once(self):
        samples = [(float(t), 10.0 + 2.0 * (t % 2)) for t in range(10)]
        db = make_db({(SERIES, None): samples})
        engine = AlertEngine(
            db, [AnomalyRule("repro.alert.test", SERIES, z_threshold=4.0)]
        )
        assert engine.evaluate(9.0) == []  # in-band oscillation
        db.record(SERIES, 10.0, 100.0)
        (fired,) = engine.evaluate(10.0)
        assert fired.state == "firing" and fired.value > 4.0
        # No new samples: the excursion is absorbed and the alert resolves.
        (resolved,) = engine.evaluate(11.0)
        assert resolved.state == "resolved"


class TestEngineReporting:
    def make_engine(self, incidents=None):
        db = make_db({(SERIES, (("node", "3"),)): [(0.0, 100.0)]})
        rules = [
            ThresholdRule(
                "repro.alert.test.page", SERIES, ">", 50.0, severity=SEV_PAGE
            ),
            ThresholdRule(
                "repro.alert.test.warn", SERIES, ">", 99.0, severity=SEV_WARN
            ),
        ]
        return AlertEngine(db, rules, incidents=incidents)

    def test_severity_filters(self):
        engine = self.make_engine()
        engine.evaluate(0.0)
        assert {e.rule for e in engine.ever_fired(SEV_PAGE)} == {"repro.alert.test.page"}
        assert len(engine.ever_fired()) == 2
        assert [name for name, _ in engine.firing(SEV_WARN)] == ["repro.alert.test.warn"]

    def test_incidents_mirror_with_alerts_source(self):
        log = IncidentLog()
        engine = self.make_engine(incidents=log)
        engine.evaluate(0.0)
        incidents = list(log)
        assert len(incidents) == 2
        for incident in incidents:
            assert incident.source == "alerts"
            assert incident.device == "3"
            assert incident.outcome == "firing"

    def test_to_dict_is_json_ready(self):
        engine = self.make_engine()
        engine.evaluate(0.0)
        payload = json.loads(json.dumps(engine.to_dict()))
        assert payload["pages_fired"] == 1
        assert payload["warns_fired"] == 1
        assert {r["name"] for r in payload["rules"]} == {
            "repro.alert.test.page", "repro.alert.test.warn",
        }
        assert all(e["state"] == "firing" for e in payload["events"])


class TestDefaultFleetRules:
    def test_pack_shape(self):
        rules = default_fleet_rules(1000.0)
        names = {r.name: r for r in rules}
        assert set(names) == {
            "repro.alert.fleet.node_starved",
            "repro.alert.fleet.demand_over_granted",
            "repro.alert.fleet.delivered_over_budget",
            "repro.alert.node.heartbeat_stale",
            "repro.alert.node.demand_anomaly",
        }
        pages = {n for n, r in names.items() if r.severity == SEV_PAGE}
        assert pages == {
            "repro.alert.fleet.node_starved",
            "repro.alert.fleet.demand_over_granted",
            "repro.alert.fleet.delivered_over_budget",
        }
        assert names["repro.alert.fleet.delivered_over_budget"].threshold == 1000.0

    def test_window_scales_with_heartbeat(self):
        slow = default_fleet_rules(1000.0, heartbeat_s=2.0)
        starved = next(r for r in slow if r.name.endswith("node_starved"))
        assert starved.window_s == 20.0
        fast = default_fleet_rules(1000.0, heartbeat_s=0.1)
        starved = next(r for r in fast if r.name.endswith("node_starved"))
        assert starved.window_s == 5.0  # never below the floor


class TestUplinkCampaign:
    def test_same_seed_same_plan(self):
        assert uplink_campaign(7).specs == uplink_campaign(7).specs

    def test_single_uplink_partition(self):
        plan = uplink_campaign(7, horizon_s=100.0, n_nodes=4)
        (spec,) = plan.specs
        assert plan.name == "uplink"
        assert (spec.device, spec.kind) == ("control", "partition_uplink")
        assert spec.duration_s == pytest.approx(40.0)
        assert 29.0 <= spec.start_s <= 31.0
        assert spec.count is None

    def test_rejects_empty_fleet(self):
        with pytest.raises(FaultInjectionError, match="n_nodes"):
            uplink_campaign(7, n_nodes=0)


# ---------------------------------------------------------------------------
# Integration: determinism + the gate's firing/silent legs.
# ---------------------------------------------------------------------------

JOBS = [
    ClusterJob("j0", "sort", 0.0, seed=1, max_time_s=12.0),
    ClusterJob("j1", "bfs", 2.0, seed=2, max_time_s=12.0),
]


def event_dicts(result):
    assert result.alerts is not None
    return [e.to_dict() for e in result.alerts.events]


@pytest.fixture(scope="module")
def chaos_pair():
    """The same coordinated chaos run under two pool worker counts."""
    runs = []
    for n_workers in (2, 1):
        result, score = run_coordination(
            "intel_a100", JOBS, "default",
            seed=3, budget_frac=0.85, chaos=True,
            n_workers=n_workers, alert_rules=default_fleet_rules,
        )
        runs.append((result, score))
    return runs


@pytest.fixture(scope="module")
def clean_run():
    """Ample budget, no chaos: the gate's must-stay-silent leg."""
    result, _ = run_coordination(
        "intel_a100", JOBS, "default",
        seed=3, budget_frac=1.0, chaos=False,
        alert_rules=default_fleet_rules,
    )
    return result


class TestAlertDeterminism:
    def test_event_stream_is_worker_count_invariant(self, chaos_pair):
        (run_a, _), (run_b, _) = chaos_pair
        events = event_dicts(run_a)
        assert events == event_dicts(run_b)
        assert events, "coordinated campaign produced no alert transitions"

    def test_chaos_fires_pages_and_mirrors_incidents(self, chaos_pair):
        result, score = chaos_pair[0]
        assert score.never_exceeded
        pages = result.alerts.ever_fired(SEV_PAGE)
        assert pages, "coordinated campaign should page"
        alert_incidents = [i for i in result.incidents if i.source == "alerts"]
        assert len(alert_incidents) == len(result.alerts.events)

    def test_alert_timestamps_land_on_epochs(self, chaos_pair):
        # The control loop evaluates rules on epoch boundaries plus one
        # final sweep at the horizon tick — never at wall-clock instants.
        result, _ = chaos_pair[0]
        epoch = result.config.epoch_s
        final = float(result.tick_times_s[-1])
        for event in result.alerts.events:
            on_epoch = (
                abs(event.time_s - round(event.time_s / epoch) * epoch) < 1e-9
            )
            assert on_epoch or event.time_s == pytest.approx(final)

    def test_tsdb_rollup_is_worker_count_invariant(self, chaos_pair):
        from repro.obs.tsdb import canonical_state_bytes

        (run_a, _), (run_b, _) = chaos_pair
        assert canonical_state_bytes(run_a.tsdb) == canonical_state_bytes(run_b.tsdb)


class TestAlertGateLegs:
    def test_uplink_campaign_pages_node_starved(self):
        result, score = run_coordination(
            "intel_a100", JOBS, "default",
            seed=3, budget_frac=1.0, chaos="uplink",
            alert_rules=default_fleet_rules,
        )
        assert score.never_exceeded
        paged = {e.rule for e in result.alerts.ever_fired(SEV_PAGE)}
        assert "repro.alert.fleet.node_starved" in paged
        starved = [
            e for e in result.alerts.ever_fired(SEV_PAGE)
            if e.rule == "repro.alert.fleet.node_starved"
        ]
        assert all("node" in dict(e.labels) for e in starved)

    def test_clean_run_is_page_silent(self, clean_run):
        assert clean_run.alerts.ever_fired(SEV_PAGE) == []
        assert clean_run.to_dict()["alerts"]["pages_fired"] == 0

    def test_scraping_is_passive_on_the_clean_leg(self, clean_run):
        plain, _ = run_coordination(
            "intel_a100", JOBS, "default",
            seed=3, budget_frac=1.0, chaos=False,
        )
        assert plain.tsdb is None and plain.alerts is None
        assert plain.granted_sum_w.tobytes() == clean_run.granted_sum_w.tobytes()
        assert plain.node_cap_w.tobytes() == clean_run.node_cap_w.tobytes()
        assert (
            plain.node_delivered_w.tobytes() == clean_run.node_delivered_w.tobytes()
        )
