"""Unit tests for ``repro.obs``: registry, spans, exporters, attribution.

The end-to-end properties (bit-identity, daemon span wiring) live in
``test_golden_trace.py``; this file holds the obs layer itself to its
contracts — name grammar, kind identity, associative merges (including
across real ``map_parallel`` worker counts), exporter formats, and the
decision → energy attribution math.
"""

import json
import pickle

import numpy as np
import pytest

from repro.errors import ObsError
from repro.obs import (
    MetricsRegistry,
    ObsConfig,
    SpanTracer,
    attribute_decisions,
    merge_registries,
    registry_to_dict,
    render_chrome_trace,
    render_jsonl,
    render_prometheus,
    slowest_cycles,
)
from repro.obs.registry import validate_metric_name
from repro.parallel.pool import map_parallel
from repro.sim.trace import TimeSeries


def shard_registry(values, last_gauge):
    """Top-level (picklable) pool worker: one registry per value shard."""
    reg = MetricsRegistry()
    reg.counter("repro.test.items").inc(len(values))
    hist = reg.histogram("repro.test.values", (1.0, 5.0, 10.0))
    for v in values:
        hist.observe(v)
    reg.gauge("repro.test.last").set(last_gauge)
    return reg


class TestNameGrammar:
    def test_valid_names_pass(self):
        for name in ("repro.daemon.cycles", "a.b", "x9.y_z.w2"):
            assert validate_metric_name(name) == name

    @pytest.mark.parametrize(
        "bad", ["cycles", "Repro.daemon", "repro.Daemon", "repro..x", "9a.b", "a.b-c", ""]
    )
    def test_invalid_names_raise(self, bad):
        with pytest.raises(ObsError):
            validate_metric_name(bad)

    def test_registry_rejects_bad_names(self):
        reg = MetricsRegistry()
        with pytest.raises(ObsError):
            reg.counter("NotDotted")


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("repro.t.c") is reg.counter("repro.t.c")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro.t.x")
        with pytest.raises(ObsError):
            reg.gauge("repro.t.x")
        with pytest.raises(ObsError):
            reg.histogram("repro.t.x")

    def test_counter_cannot_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ObsError):
            reg.counter("repro.t.c").inc(-1.0)

    def test_histogram_bounds_are_identity(self):
        reg = MetricsRegistry()
        reg.histogram("repro.t.h", (1.0, 2.0))
        reg.histogram("repro.t.h")  # no bounds: fine, returns existing
        with pytest.raises(ObsError):
            reg.histogram("repro.t.h", (1.0, 3.0))

    def test_histogram_bounds_must_ascend(self):
        reg = MetricsRegistry()
        with pytest.raises(ObsError):
            reg.histogram("repro.t.h", (2.0, 1.0))
        with pytest.raises(ObsError):
            reg.histogram("repro.t.h", ())

    def test_histogram_cumulative_counts(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro.t.h", (1.0, 5.0))
        for v in (0.5, 1.0, 3.0, 99.0):
            h.observe(v)
        # le=1 catches 0.5 and the boundary 1.0; +Inf catches all.
        assert h.cumulative() == [2, 3, 4]
        assert h.count == 4 and h.sum == pytest.approx(103.5)

    def test_registry_is_picklable(self):
        reg = shard_registry([2.0, 7.0], last_gauge=3.0)
        clone = pickle.loads(pickle.dumps(reg))
        assert registry_to_dict(clone) == registry_to_dict(reg)


class TestMerge:
    def test_counters_add_gauges_last_set_wins(self):
        a = shard_registry([1.0], last_gauge=1.0)
        b = shard_registry([2.0, 3.0], last_gauge=2.0)
        merged = merge_registries([a, b])
        assert merged.counter("repro.test.items").value == 3.0
        assert merged.gauge("repro.test.last").value == 2.0

    def test_unset_gauge_never_clobbers(self):
        a = MetricsRegistry()
        a.gauge("repro.t.g").set(5.0)
        b = MetricsRegistry()
        b.gauge("repro.t.g")  # registered but never set
        assert merge_registries([a, b]).gauge("repro.t.g").value == 5.0

    def test_kind_conflict_raises(self):
        a = MetricsRegistry()
        a.counter("repro.t.x")
        b = MetricsRegistry()
        b.gauge("repro.t.x")
        with pytest.raises(ObsError):
            merge_registries([a, b])

    def test_histogram_bounds_conflict_raises(self):
        a = MetricsRegistry()
        a.histogram("repro.t.h", (1.0,))
        b = MetricsRegistry()
        b.histogram("repro.t.h", (2.0,))
        with pytest.raises(ObsError):
            merge_registries([a, b])

    def test_merge_is_associative(self):
        def fresh():
            return [
                shard_registry([1.0, 6.0], last_gauge=1.0),
                shard_registry([2.0], last_gauge=2.0),
                shard_registry([11.0, 0.5], last_gauge=3.0),
            ]

        a1, b1, c1 = fresh()
        a2, b2, c2 = fresh()
        left = merge_registries([merge_registries([a1, b1]), c1])
        right = merge_registries([a2, merge_registries([b2, c2])])
        assert registry_to_dict(left) == registry_to_dict(right)

    def test_merge_skips_none_and_does_not_alias(self):
        a = shard_registry([1.0], last_gauge=1.0)
        merged = merge_registries([None, a, None])
        merged.counter("repro.test.items").inc()
        # The rollup cloned a's instruments; a is untouched.
        assert a.counter("repro.test.items").value == 1.0

    def test_merge_identical_across_worker_counts(self):
        shards = [[1.0, 2.0], [6.0], [0.5, 11.0, 3.0], [7.0]]
        kwargs = [
            {"values": shard, "last_gauge": float(i)} for i, shard in enumerate(shards)
        ]
        rollups = []
        for n_workers in (1, 2, 4):
            regs = map_parallel(shard_registry, kwargs, n_workers=n_workers)
            rollups.append(registry_to_dict(merge_registries(regs)))
        assert rollups[0] == rollups[1] == rollups[2]
        assert rollups[0]["repro.test.items"]["value"] == 7.0
        assert rollups[0]["repro.test.last"]["value"] == 3.0


class TestSpanTracer:
    def test_nesting_and_parents(self):
        tracer = SpanTracer()
        outer = tracer.begin("daemon.cycle", 1.0, category="cycle")
        inner = tracer.begin("governor.sample", 1.01)
        tracer.end(inner, 1.05, ipc=1.5)
        tracer.end(outer, 1.1, reason="hold")
        cycle, sample = tracer.spans
        assert cycle.parent_id is None and sample.parent_id == cycle.span_id
        assert sample.attrs["ipc"] == 1.5
        assert cycle.duration_s == pytest.approx(0.1)
        assert tracer.open_count == 0

    def test_end_closes_unwound_children(self):
        tracer = SpanTracer()
        outer = tracer.begin("daemon.cycle", 0.0)
        tracer.begin("governor.sample", 0.01)
        tracer.end(outer, 0.2)  # sample never ended explicitly
        sample = tracer.named("governor.sample")[0]
        assert sample.end_s == 0.2 and sample.ok

    def test_abort_marks_span_and_children_failed(self):
        tracer = SpanTracer()
        outer = tracer.begin("daemon.cycle", 0.0)
        tracer.begin("governor.sample", 0.01)
        tracer.abort(outer, 0.2)
        assert all(not s.ok for s in tracer.spans)

    def test_instant_is_zero_duration_and_not_pushed(self):
        tracer = SpanTracer()
        outer = tracer.begin("daemon.cycle", 0.0)
        mark = tracer.instant("governor.decide", 0.05, reason="hold")
        assert mark.duration_s == 0.0 and mark.parent_id == outer
        assert tracer.open_count == 1

    def test_double_end_raises(self):
        tracer = SpanTracer()
        sid = tracer.begin("daemon.cycle", 0.0)
        tracer.end(sid, 1.0)
        with pytest.raises(ObsError):
            tracer.end(sid, 2.0)

    def test_finish_closes_everything(self):
        tracer = SpanTracer()
        tracer.begin("daemon.cycle", 0.0)
        tracer.begin("governor.sample", 0.01)
        tracer.finish(9.0)
        assert tracer.open_count == 0
        assert all(s.end_s == 9.0 for s in tracer.spans)

    def test_span_ids_are_deterministic(self):
        def record():
            t = SpanTracer()
            a = t.begin("daemon.cycle", 0.0)
            t.instant("governor.decide", 0.01)
            t.end(a, 0.1)
            return [(s.span_id, s.parent_id, s.name) for s in t.spans]

        assert record() == record()


class TestExporters:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("repro.t.cycles", help="decision cycles").inc(3)
        reg.gauge("repro.t.runtime_seconds").set(12.5)
        h = reg.histogram("repro.t.invocation_seconds", (0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        return reg

    def test_prometheus_text(self):
        text = render_prometheus(self._registry())
        assert "# HELP repro_t_cycles decision cycles" in text
        assert "# TYPE repro_t_cycles counter" in text
        assert "repro_t_cycles 3.0" in text
        assert 'repro_t_invocation_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_t_invocation_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_t_invocation_seconds_count 2" in text
        assert text.endswith("\n")

    def test_unset_gauge_renders_type_but_no_sample(self):
        reg = MetricsRegistry()
        reg.gauge("repro.t.g")
        text = render_prometheus(reg)
        assert "# TYPE repro_t_g gauge" in text
        assert "\nrepro_t_g " not in text

    def test_registry_to_dict_roundtrips_json(self):
        payload = json.loads(json.dumps(registry_to_dict(self._registry())))
        assert payload["repro.t.cycles"] == {"kind": "counter", "value": 3.0}
        assert payload["repro.t.invocation_seconds"]["bucket_counts"] == [1, 1, 0]

    def test_chrome_trace_structure(self):
        tracer = SpanTracer()
        sid = tracer.begin("daemon.cycle", 2.0, category="cycle")
        tracer.end(sid, 2.5, reason="hold")
        doc = json.loads(render_chrome_trace(tracer.spans, process_name="t"))
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {m["name"] for m in meta} == {"process_name", "thread_name"}
        assert event["ts"] == 2.0e6 and event["dur"] == pytest.approx(0.5e6)
        assert event["args"]["reason"] == "hold"

    def test_jsonl_lines_parse(self):
        tracer = SpanTracer()
        sid = tracer.begin("daemon.cycle", 0.0)
        tracer.end(sid, 0.1)
        lines = render_jsonl(tracer.spans, self._registry()).splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["event"] == "span" and records[0]["name"] == "daemon.cycle"
        assert {r["event"] for r in records[1:]} == {"metric"}


class _FakeDecision:
    def __init__(self, time_s, target_ghz, reason):
        self.time_s = time_s
        self.target_ghz = target_ghz
        self.reason = reason


class TestAttribution:
    def test_by_cause_energy_accounting(self):
        # 100 W for 10 s, then 200 W for 10 s; run average 150 W.
        t = np.linspace(0.0, 20.0, 201)
        w = np.where(t < 10.0, 100.0, 200.0)
        cpu = TimeSeries(t, w, name="cpu_w")
        decisions = [
            _FakeDecision(0.0, 0.8, "trend_down"),
            _FakeDecision(10.0, 2.2, "trend_up"),
        ]
        causes = attribute_decisions(decisions, cpu, runtime_s=20.0)
        by_reason = {c.reason: c for c in causes}
        assert by_reason["trend_down"].delta_j < 0 < by_reason["trend_up"].delta_j
        assert by_reason["trend_up"].cause == "trend-raise"
        assert by_reason["trend_up"].mean_target_ghz == pytest.approx(2.2)
        total = sum(c.cpu_energy_j for c in causes)
        assert total == pytest.approx(cpu.integral(), rel=0.02)
        # Sorted by impact: largest |delta| first.
        assert abs(causes[0].delta_j) >= abs(causes[-1].delta_j)

    def test_empty_inputs(self):
        t = np.array([0.0, 1.0])
        cpu = TimeSeries(t, np.array([100.0, 100.0]))
        assert attribute_decisions([], cpu, 1.0) == []
        short = TimeSeries(np.array([0.0]), np.array([1.0]))
        assert attribute_decisions([_FakeDecision(0.0, None, "hold")], short, 1.0) == []

    def test_slowest_cycles_ranking(self):
        tracer = SpanTracer()
        for start, inv in ((0.0, 0.1), (1.0, 0.3), (2.0, 0.2)):
            sid = tracer.begin("daemon.cycle", start)
            tracer.end(sid, start + inv, invocation_s=inv)
        top2 = slowest_cycles(tracer.spans, 2)
        assert [s.attrs["invocation_s"] for s in top2] == [0.3, 0.2]
        assert slowest_cycles(tracer.spans, 0) == []

    def test_slowest_cycles_ignores_open_and_other_spans(self):
        tracer = SpanTracer()
        tracer.begin("daemon.cycle", 0.0)  # never closed
        tracer.instant("governor.decide", 0.1)
        assert slowest_cycles(tracer.spans, 5) == []


class TestObsConfigOutputs:
    """Which outputs ``run_application`` returns for each ``ObsConfig``."""

    #: id -> (config, (metrics returned, spans returned, tsdb returned))
    CASES = {
        "none": (None, (False, False, False)),
        "disabled": (ObsConfig(), (False, False, False)),
        "disabled_tsdb": (ObsConfig(enabled=False, tsdb=True), (False, False, False)),
        "enabled": (ObsConfig(enabled=True), (True, True, False)),
        "metrics_only": (ObsConfig(enabled=True, spans=False), (True, False, False)),
        "spans_only": (ObsConfig(enabled=True, metrics=False), (False, True, False)),
        "nothing": (ObsConfig(enabled=True, metrics=False, spans=False), (False, False, False)),
        "tsdb_only": (
            ObsConfig(enabled=True, metrics=False, spans=False, tsdb=True),
            (False, False, True),
        ),
        "all": (ObsConfig(enabled=True, tsdb=True), (True, True, True)),
    }

    @pytest.mark.parametrize("config, want", list(CASES.values()), ids=list(CASES))
    def test_outputs_follow_config(self, config, want):
        from repro.runtime.session import make_governor, run_application

        r = run_application(
            "intel_a100", "srad", make_governor("magus"), seed=1, max_time_s=2.0, obs=config
        )
        assert (r.metrics is not None, bool(r.spans), r.tsdb is not None) == want
        if r.metrics is not None:
            assert r.metrics.counter("repro.daemon.cycles").value > 0
        if r.tsdb is not None:
            assert "repro.ts.daemon.decision_cause" in r.tsdb
