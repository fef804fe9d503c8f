"""SimClock: quantised time, alignment and error paths."""

import pytest

from repro.errors import ClockError
from repro.sim.clock import SimClock


class TestConstruction:
    def test_default_tick_is_10ms(self):
        assert SimClock().dt == pytest.approx(0.01)

    def test_starts_at_zero(self):
        clock = SimClock()
        assert clock.now == 0.0
        assert clock.tick == 0

    @pytest.mark.parametrize("bad_dt", [0.0, -0.01, -1])
    def test_nonpositive_dt_rejected(self, bad_dt):
        with pytest.raises(ClockError):
            SimClock(dt=bad_dt)

    @pytest.mark.parametrize("bad_dt", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_dt_rejected(self, bad_dt):
        with pytest.raises(ClockError, match="finite"):
            SimClock(dt=bad_dt)

    def test_a_run_refuses_an_infinite_dt(self):
        from repro.runtime.session import run_application

        with pytest.raises(ClockError, match="finite"):
            run_application("intel_a100", None, None, dt_s=float("inf"), max_time_s=1.0)


class TestAdvance:
    def test_single_tick(self):
        clock = SimClock(dt=0.01)
        assert clock.advance() == pytest.approx(0.01)

    def test_multi_tick(self):
        clock = SimClock(dt=0.01)
        assert clock.advance(250) == pytest.approx(2.5)
        assert clock.tick == 250

    def test_no_float_drift_over_long_runs(self):
        clock = SimClock(dt=0.01)
        for _ in range(60_000):  # ten simulated minutes
            clock.advance()
        assert clock.now == pytest.approx(600.0, abs=1e-9)

    @pytest.mark.parametrize("bad", [0, -1, 0.5, 1.0])
    def test_invalid_advance_rejected(self, bad):
        with pytest.raises(ClockError):
            SimClock().advance(bad)


class TestScheduling:
    def test_ticks_until_future(self):
        clock = SimClock(dt=0.01)
        assert clock.ticks_until(0.05) == 5

    def test_ticks_until_rounds_up(self):
        clock = SimClock(dt=0.01)
        assert clock.ticks_until(0.051) == 6

    def test_ticks_until_past_is_zero(self):
        clock = SimClock(dt=0.01)
        clock.advance(10)
        assert clock.ticks_until(0.05) == 0

    def test_ticks_until_never_undershoots(self):
        clock = SimClock(dt=0.01)
        target = 0.123
        ticks = clock.ticks_until(target)
        assert ticks * clock.dt >= target - 1e-12

    def test_align_at_zero(self):
        assert SimClock().align(0.2) == 0.0

    def test_align_after_advance(self):
        clock = SimClock(dt=0.01)
        clock.advance(25)  # 0.25s
        assert clock.align(0.2) == pytest.approx(0.4)

    def test_align_on_boundary(self):
        clock = SimClock(dt=0.01)
        clock.advance(20)  # exactly 0.2
        assert clock.align(0.2) == pytest.approx(0.2)

    def test_align_invalid_period(self):
        with pytest.raises(ClockError):
            SimClock().align(0.0)
