"""Workload datatypes: validation, execution cursor, demand sampling."""

import math

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.base import Segment, Workload
from repro.workloads.registry import get_workload


class TestSegment:
    def test_valid_segment(self):
        s = Segment(1.0, 10.0, mem_intensity=0.5, cpu_util=0.2, gpu_util=0.9)
        assert s.duration_s == 1.0

    @pytest.mark.parametrize("dur", [0.0, -1.0])
    def test_invalid_duration(self, dur):
        with pytest.raises(WorkloadError):
            Segment(dur, 1.0)

    def test_negative_bandwidth(self):
        with pytest.raises(WorkloadError):
            Segment(1.0, -1.0)

    @pytest.mark.parametrize("field", ["mem_intensity", "cpu_util", "gpu_util"])
    def test_unit_interval_fields(self, field):
        with pytest.raises(WorkloadError):
            Segment(1.0, 1.0, **{field: 1.5})

    def test_frozen(self):
        s = Segment(1.0, 1.0)
        with pytest.raises(AttributeError):
            s.duration_s = 2.0  # type: ignore[misc]


class TestWorkload:
    def test_nominal_duration(self, tiny_workload):
        assert tiny_workload.nominal_duration_s == pytest.approx(1.5)

    def test_nominal_duration_adds_in_segment_order(self):
        # srad's 90 durations: compensated summation (math.fsum, and the
        # builtin sum from Python 3.12) gives 20.499999999999996; the
        # horizon and progress channel of every srad run use this total.
        srad = get_workload("srad", seed=1)
        assert len(srad) == 90
        assert math.fsum(s.duration_s for s in srad) == 20.499999999999996
        assert srad.nominal_duration_s == 20.499999999999964

    def test_peak_demand(self, tiny_workload):
        assert tiny_workload.peak_demand_gbps == pytest.approx(20.0)

    def test_iteration_and_len(self, tiny_workload):
        assert len(tiny_workload) == 3
        assert [s.name for s in tiny_workload] == ["a", "b", "c"]

    def test_empty_workload_rejected(self):
        with pytest.raises(WorkloadError):
            Workload("empty", ())

    def test_unnamed_workload_rejected(self):
        with pytest.raises(WorkloadError):
            Workload("", (Segment(1.0, 1.0),))

    def test_demand_series_tracks_segments(self, tiny_workload):
        times, demand = tiny_workload.demand_series(0.1)
        assert demand[0] == pytest.approx(2.0)
        # Sample at t=0.7 falls in segment "b".
        idx = int(np.searchsorted(times, 0.7))
        assert demand[idx] == pytest.approx(20.0)

    def test_demand_series_invalid_period(self, tiny_workload):
        with pytest.raises(WorkloadError):
            tiny_workload.demand_series(0.0)

    def test_scaled(self, tiny_workload):
        doubled = tiny_workload.scaled(2.0)
        assert doubled.nominal_duration_s == pytest.approx(3.0)
        assert doubled.name == "tiny@x2"

    def test_scaled_invalid_factor(self, tiny_workload):
        with pytest.raises(WorkloadError):
            tiny_workload.scaled(0.0)


class TestExecution:
    def test_fresh_cursor(self, tiny_workload):
        ex = tiny_workload.execution()
        assert not ex.done
        assert ex.progress == 0.0
        assert ex.current().name == "a"

    def test_advance_within_segment(self, tiny_workload):
        ex = tiny_workload.execution()
        ex.advance(0.3)
        assert ex.current().name == "a"
        assert ex.progress == pytest.approx(0.2)

    def test_advance_across_boundary(self, tiny_workload):
        ex = tiny_workload.execution()
        ex.advance(0.7)
        assert ex.current().name == "b"

    def test_completion(self, tiny_workload):
        ex = tiny_workload.execution()
        ex.advance(1.5)
        assert ex.done
        assert ex.progress == 1.0

    def test_overshoot_discarded(self, tiny_workload):
        ex = tiny_workload.execution()
        ex.advance(99.0)
        assert ex.done
        assert ex.progress == 1.0

    def test_current_after_done_raises(self, tiny_workload):
        ex = tiny_workload.execution()
        ex.advance(2.0)
        with pytest.raises(WorkloadError):
            ex.current()

    def test_negative_advance_rejected(self, tiny_workload):
        ex = tiny_workload.execution()
        with pytest.raises(WorkloadError):
            ex.advance(-0.1)

    def test_many_small_advances_equal_one_big(self, tiny_workload):
        a = tiny_workload.execution()
        b = tiny_workload.execution()
        for _ in range(150):
            a.advance(0.01)
        b.advance(1.5)
        assert a.done == b.done
        assert a.progress == pytest.approx(b.progress)

    def test_executions_are_independent(self, tiny_workload):
        a = tiny_workload.execution()
        b = tiny_workload.execution()
        a.advance(1.0)
        assert b.progress == 0.0
