"""UncoreModel: binning, slew, transition counting, power curve."""

import pytest

from repro.errors import FrequencyRangeError, PowerModelError
from repro.hw.uncore import UncoreModel, UncorePowerParams


@pytest.fixture()
def uncore():
    return UncoreModel(0.8, 2.2)


class TestFrequencyControl:
    def test_initial_state_is_max(self, uncore):
        assert uncore.target_ghz == 2.2
        assert uncore.effective_ghz == 2.2

    def test_snap_to_bin_grid(self, uncore):
        assert uncore.snap(1.44) == pytest.approx(1.4)
        assert uncore.snap(1.46) == pytest.approx(1.5)

    def test_snap_clamps_to_range(self, uncore):
        assert uncore.snap(0.1) == pytest.approx(0.8)
        assert uncore.snap(5.0) == pytest.approx(2.2)

    def test_snap_rejects_nan_and_clamps_infinities(self, uncore):
        # A clamp alone reads NaN as the ceiling: min(hi, nan) is hi.
        with pytest.raises(FrequencyRangeError):
            uncore.snap(float("nan"))
        assert uncore.snap(float("inf")) == pytest.approx(2.2)
        assert uncore.snap(float("-inf")) == pytest.approx(0.8)

    def test_nan_reaches_no_target(self, uncore):
        uncore.force(1.5)
        for actuate in (
            uncore.set_target,
            uncore.request_target,
            lambda f: uncore.request_target(f, delay_s=0.01),
            uncore.force,
        ):
            with pytest.raises(FrequencyRangeError):
                actuate(float("nan"))
        assert uncore.target_ghz == pytest.approx(1.5)
        assert uncore.effective_ghz == pytest.approx(1.5)
        assert uncore.pending_target_ghz is None

    def test_set_target_returns_snapped(self, uncore):
        assert uncore.set_target(1.23) == pytest.approx(1.2)

    def test_strict_out_of_range_raises(self, uncore):
        with pytest.raises(FrequencyRangeError):
            uncore.set_target(3.0, strict=True)

    def test_strict_in_range_ok(self, uncore):
        assert uncore.set_target(1.5, strict=True) == pytest.approx(1.5)

    def test_transition_count_increments_on_change(self, uncore):
        uncore.set_target(1.5)
        uncore.set_target(0.8)
        assert uncore.transition_count == 2

    def test_no_op_set_does_not_count(self, uncore):
        uncore.set_target(2.2)  # already there
        assert uncore.transition_count == 0

    def test_force_sets_both(self, uncore):
        uncore.force(0.8)
        assert uncore.target_ghz == pytest.approx(0.8)
        assert uncore.effective_ghz == pytest.approx(0.8)

    def test_invalid_range_rejected(self):
        with pytest.raises(FrequencyRangeError):
            UncoreModel(2.2, 0.8)


class TestSlew:
    def test_effective_lags_target(self, uncore):
        uncore.set_target(0.8)
        uncore.step(0.01)
        # 50 GHz/s * 0.01s = 0.5 GHz of slew; full swing is 1.4 GHz.
        assert uncore.effective_ghz == pytest.approx(1.7)

    def test_reaches_target_eventually(self, uncore):
        uncore.set_target(0.8)
        for _ in range(10):
            uncore.step(0.01)
        assert uncore.effective_ghz == pytest.approx(0.8)

    def test_no_overshoot(self, uncore):
        uncore.set_target(2.0)
        uncore.force(1.99)
        uncore.set_target(2.0)
        uncore.step(1.0)
        assert uncore.effective_ghz == pytest.approx(2.0)

    def test_upward_slew(self, uncore):
        uncore.force(0.8)
        uncore.set_target(2.2)
        uncore.step(0.01)
        assert 0.8 < uncore.effective_ghz < 2.2

    def test_negative_dt_rejected(self, uncore):
        with pytest.raises(PowerModelError):
            uncore.step(-0.01)


class TestPower:
    def test_power_increases_with_frequency(self, uncore):
        hi = uncore.power_w(0.5)
        uncore.force(0.8)
        lo = uncore.power_w(0.5)
        assert hi > lo

    def test_power_increases_with_traffic(self, uncore):
        assert uncore.power_w(1.0) > uncore.power_w(0.0)

    def test_static_floor_at_min_freq_zero_traffic(self):
        params = UncorePowerParams(static_w=4.0, span_w=72.0)
        unc = UncoreModel(0.8, 2.2, power=params)
        unc.force(0.8)
        assert unc.power_w(0.0) >= params.static_w

    def test_max_power_bounded_by_params(self, uncore):
        p = uncore.power_params
        assert uncore.power_w(1.0) <= p.static_w + p.span_w + 1e-9

    def test_calibration_span_dual_socket(self):
        # DESIGN.md anchor: dual-socket swing at moderate traffic ~80 W
        # (paper Fig. 2 reports up to 82 W during UNet).
        unc = UncoreModel(0.8, 2.2)
        hi = unc.power_w(0.5)
        unc.force(0.8)
        lo = unc.power_w(0.5)
        assert 30.0 <= (hi - lo) * 2 <= 100.0

    def test_invalid_traffic_rejected(self, uncore):
        with pytest.raises(PowerModelError):
            uncore.power_w(1.5)

    def test_invalid_power_params_rejected(self):
        with pytest.raises(PowerModelError):
            UncorePowerParams(static_w=-1.0)
        with pytest.raises(PowerModelError):
            UncorePowerParams(exponent=0.0)
        with pytest.raises(PowerModelError):
            UncorePowerParams(activity_floor=1.5)
