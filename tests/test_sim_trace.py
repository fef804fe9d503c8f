"""TimeSeries and TraceRecorder: reductions, resampling, strictness."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.trace import TimeSeries, TraceRecorder


def series(values, dt=0.1, name="s"):
    n = len(values)
    return TimeSeries(np.arange(1, n + 1) * dt, np.asarray(values, dtype=float), name)


class TestTimeSeries:
    def test_basic_properties(self):
        s = series([1.0, 2.0, 3.0])
        assert len(s) == 3
        assert s.duration == pytest.approx(0.2)
        assert s.max() == 3.0
        assert s.min() == 1.0

    def test_mean_constant(self):
        assert series([5.0] * 10).mean() == pytest.approx(5.0)

    def test_mean_is_time_weighted(self):
        # Irregular sampling: value 0 held for 9s, value 10 for 1s.
        s = TimeSeries(np.array([0.0, 9.0, 10.0]), np.array([0.0, 0.0, 10.0]))
        assert s.mean() == pytest.approx(0.5, abs=0.01)

    def test_integral_of_constant_power(self):
        s = TimeSeries(np.array([0.0, 10.0]), np.array([100.0, 100.0]))
        assert s.integral() == pytest.approx(1000.0)

    def test_integral_short_series_is_zero(self):
        single = TimeSeries(np.array([1.0]), np.array([5.0]))
        assert single.integral() == 0.0

    def test_empty_mean_raises(self):
        empty = TimeSeries(np.empty(0), np.empty(0))
        with pytest.raises(SimulationError):
            empty.mean()

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(SimulationError):
            TimeSeries(np.array([1.0, 2.0]), np.array([1.0]))

    def test_non_increasing_times_rejected(self):
        with pytest.raises(SimulationError):
            TimeSeries(np.array([1.0, 1.0]), np.array([0.0, 0.0]))

    def test_values_are_read_only(self):
        s = series([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 99.0

    def test_slice(self):
        s = series([1, 2, 3, 4, 5], dt=1.0)
        sub = s.slice(2.0, 4.0)
        assert list(sub.values) == [2.0, 3.0]

    def test_slice_invalid_interval(self):
        with pytest.raises(SimulationError):
            series([1.0]).slice(2.0, 1.0)


class TestResample:
    def test_downsample_averages(self):
        s = series([1, 1, 3, 3], dt=0.1)
        r = s.resample(0.2)
        assert list(r.values) == [1.0, 3.0]

    def test_empty_buckets_hold_previous(self):
        s = TimeSeries(np.array([0.05, 0.95]), np.array([4.0, 8.0]))
        r = s.resample(0.1)
        # Buckets between the two samples hold 4.0 until 8.0 arrives.
        assert r.values[0] == 4.0
        assert r.values[4] == 4.0
        assert r.values[-1] == 8.0

    def test_resample_preserves_total_span(self):
        s = series(np.arange(100), dt=0.01)
        r = s.resample(0.25)
        assert r.times[-1] == pytest.approx(1.0)

    def test_invalid_period(self):
        with pytest.raises(SimulationError):
            series([1.0]).resample(0.0)

    def test_resample_empty(self):
        empty = TimeSeries(np.empty(0), np.empty(0))
        assert len(empty.resample(0.1)) == 0


class TestTraceRecorder:
    def test_records_and_reads_back(self):
        rec = TraceRecorder(["a", "b"])
        rec.record_row(0.1, [1.0, 2.0])
        rec.record_row(0.2, [3.0, 4.0])
        assert list(rec.series("a").values) == [1.0, 3.0]
        assert list(rec.series("b").values) == [2.0, 4.0]

    def test_growth_beyond_initial_capacity(self):
        rec = TraceRecorder(["x"])
        for i in range(5000):
            rec.record_row((i + 1) * 0.01, [float(i)])
        s = rec.series("x")
        assert len(s) == 5000
        assert s.values[-1] == 4999.0

    def test_expected_rows_size_the_first_allocation(self):
        assert TraceRecorder(["x"], expected_rows=3)._capacity == 3
        assert TraceRecorder(["x"], expected_rows=10**6)._capacity == 1024
        rec = TraceRecorder(["x"], expected_rows=3)
        for i in range(10):
            rec.record_row((i + 1) * 0.01, [float(i)])
        assert rec.series("x").values.tolist() == [float(i) for i in range(10)]
        with pytest.raises(SimulationError, match="expected_rows"):
            TraceRecorder(["x"], expected_rows=0)

    def test_missing_channel_rejected(self):
        rec = TraceRecorder(["a", "b"])
        with pytest.raises(SimulationError):
            rec.record_row(0.1, [1.0])

    def test_extra_channel_rejected(self):
        rec = TraceRecorder(["a"])
        with pytest.raises(SimulationError):
            rec.record_row(0.1, [1.0, 2.0])

    def test_non_increasing_time_rejected(self):
        rec = TraceRecorder(["a"])
        rec.record_row(0.2, [1.0])
        with pytest.raises(SimulationError):
            rec.record_row(0.2, [2.0])

    def test_unknown_channel_read_rejected(self):
        rec = TraceRecorder(["a"])
        with pytest.raises(SimulationError):
            rec.series("nope")

    def test_duplicate_channels_rejected(self):
        with pytest.raises(SimulationError):
            TraceRecorder(["a", "a"])

    def test_empty_channel_list_rejected(self):
        with pytest.raises(SimulationError):
            TraceRecorder([])

    def test_last(self):
        rec = TraceRecorder(["a"])
        assert rec.last("a") is None
        rec.record_row(0.1, [7.0])
        assert rec.last("a") == 7.0

    def test_as_dict_covers_all_channels(self):
        rec = TraceRecorder(["a", "b", "c"])
        rec.record_row(0.1, [1.0, 2.0, 3.0])
        assert set(rec.as_dict()) == {"a", "b", "c"}


class TestRecordRow:
    def test_row_values_land_in_channel_order(self):
        rec = TraceRecorder(["a", "b"])
        rec.record_row(0.1, [1.0, 2.0])
        rec.record_row(0.2, [3.0, 4.0])
        assert list(rec.series("a").values) == [1.0, 3.0]
        assert list(rec.series("b").values) == [2.0, 4.0]

    def test_reused_row_buffer_is_copied(self):
        rec = TraceRecorder(["a", "b"])
        row = rec.row_buffer()
        row[:] = [1.0, 2.0]
        rec.record_row(0.1, row)
        row[:] = [9.0, 9.0]
        rec.record_row(0.2, row)
        assert list(rec.series("a").values) == [1.0, 9.0]

    def test_wrong_row_length_rejected(self):
        rec = TraceRecorder(["a", "b"])
        with pytest.raises(SimulationError):
            rec.record_row(0.1, [1.0])
        with pytest.raises(SimulationError):
            rec.record_row(0.1, [1.0, 2.0, 3.0])

    def test_non_increasing_time_rejected(self):
        rec = TraceRecorder(["a"])
        rec.record_row(0.2, [1.0])
        with pytest.raises(SimulationError):
            rec.record_row(0.2, [2.0])

    def test_growth_beyond_initial_capacity(self):
        rec = TraceRecorder(["x", "y"])
        row = rec.row_buffer()
        for i in range(5000):
            row[0] = float(i)
            row[1] = float(-i)
            rec.record_row((i + 1) * 0.01, row)
        assert len(rec) == 5000
        assert rec.series("x").values[-1] == 4999.0
        assert rec.series("y").values[-1] == -4999.0
