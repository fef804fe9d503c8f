"""Unit-conversion helpers: exact values, round-trips and error paths."""

import functools
import math
import operator

import pytest

from repro import units


class TestRequireFinite:
    def test_finite_values_pass(self):
        units.require_finite(0.1 + 0.2, -0.0, 1e308, 3, error=AssertionError)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_the_callers_error_built_from_the_values(self, bad):
        with pytest.raises(KeyError) as err:
            units.require_finite(1.0, bad, error=lambda *values: KeyError(values))
        assert err.value.args[0][0] == 1.0
        assert err.value.args[0][1] is bad

    def test_allow_inf_refuses_only_nan(self):
        units.require_finite(math.inf, -math.inf, error=AssertionError, allow_inf=True)
        with pytest.raises(KeyError):
            units.require_finite(math.inf, math.nan, error=KeyError, allow_inf=True)


class TestUncoreRatioConversion:
    def test_paper_max_ratio(self):
        assert units.ghz_to_uncore_ratio(2.2) == 22

    def test_paper_min_ratio(self):
        assert units.ghz_to_uncore_ratio(0.8) == 8

    def test_sapphire_rapids_max(self):
        assert units.ghz_to_uncore_ratio(2.5) == 25

    def test_rounds_to_nearest_bin(self):
        assert units.ghz_to_uncore_ratio(1.44) == 14
        assert units.ghz_to_uncore_ratio(1.46) == 15

    def test_ratio_to_ghz(self):
        assert units.uncore_ratio_to_ghz(15) == pytest.approx(1.5)

    def test_round_trip_on_bin_grid(self):
        for ratio in range(8, 26):
            assert units.ghz_to_uncore_ratio(units.uncore_ratio_to_ghz(ratio)) == ratio

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            units.ghz_to_uncore_ratio(-1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            units.ghz_to_uncore_ratio(float("nan"))

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            units.uncore_ratio_to_ghz(-3)


class TestEnergyHelpers:
    def test_watts_to_joules(self):
        assert units.watts_to_joules(100.0, 60.0) == pytest.approx(6000.0)

    def test_zero_duration(self):
        assert units.watts_to_joules(100.0, 0.0) == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            units.watts_to_joules(100.0, -1.0)

    def test_joules_to_watt_hours(self):
        assert units.joules_to_watt_hours(3600.0) == pytest.approx(1.0)

    def test_rapl_unit_is_2_to_minus_14(self):
        assert units.JOULES_PER_RAPL_UNIT == pytest.approx(2.0**-14)


class TestFrequencyHelpers:
    def test_mhz_ghz_round_trip(self):
        assert units.ghz_to_mhz(units.mhz_to_ghz(2400.0)) == pytest.approx(2400.0)

    def test_clamp_inside(self):
        assert units.clamp(1.5, 0.8, 2.2) == 1.5

    def test_clamp_below(self):
        assert units.clamp(0.1, 0.8, 2.2) == 0.8

    def test_clamp_above(self):
        assert units.clamp(9.0, 0.8, 2.2) == 2.2

    def test_clamp_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            units.clamp(1.0, 2.0, 1.0)

    def test_approx_equal(self):
        assert units.approx_equal(1.0, 1.0 + 1e-13)
        assert not units.approx_equal(1.0, 1.001)


class TestOrderedSum:
    """``ordered_sum`` rounds after every addition, on every Python version."""

    @pytest.mark.parametrize(
        "values, in_order, exact",
        [
            ([1e16, 1.0, -1e16], 0.0, 1.0),
            ([0.1] * 10, 0.9999999999999999, 1.0),
            ([1.0, 1e100, 1.0, -1e100], 0.0, 2.0),
        ],
    )
    def test_adds_left_to_right_where_fsum_differs(self, values, in_order, exact):
        assert math.fsum(values) == exact
        assert units.ordered_sum(values) == in_order
        assert units.ordered_sum(values) == functools.reduce(operator.add, values, 0.0)

    def test_starts_from_positive_zero(self):
        assert math.copysign(1.0, units.ordered_sum([])) == 1.0
        assert math.copysign(1.0, units.ordered_sum([-0.0])) == 1.0

    def test_accepts_any_iterable(self):
        assert units.ordered_sum(x / 4 for x in range(4)) == 1.5
