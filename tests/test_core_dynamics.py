"""Memory-dynamics kernels, Algorithm 1 predictor, Algorithm 2 detector."""

import pytest

from repro.core.config import MagusConfig
from repro.core.detector import HighFrequencyDetector
from repro.core.dynamics import first_derivative, tune_event_rate
from repro.core.predictor import TREND_DOWN, TREND_FLAT, TREND_UP, TrendPredictor
from repro.errors import ConfigError


class TestFirstDerivative:
    def test_linear_ramp(self):
        assert first_derivative([0.0, 100.0, 200.0, 300.0], 3) == pytest.approx(100.0)

    def test_flat(self):
        assert first_derivative([5.0] * 6, 4) == 0.0

    def test_decline(self):
        assert first_derivative([300.0, 200.0, 100.0], 2) == pytest.approx(-100.0)

    def test_uses_trailing_window_only(self):
        # Early history outside the window must not matter.
        assert first_derivative([999.0, 0.0, 100.0], 1) == pytest.approx(100.0)

    def test_window_too_large(self):
        with pytest.raises(ConfigError):
            first_derivative([1.0, 2.0], 2)

    def test_invalid_window(self):
        with pytest.raises(ConfigError):
            first_derivative([1.0, 2.0], 0)


class TestTuneEventRate:
    def test_half(self):
        assert tune_event_rate([1, 0] * 5) == pytest.approx(0.5)

    def test_all_zero(self):
        assert tune_event_rate([0] * 10) == 0.0

    def test_all_one(self):
        assert tune_event_rate([1] * 10) == 1.0

    def test_non_binary_rejected(self):
        with pytest.raises(ConfigError):
            tune_event_rate([0, 2, 1])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            tune_event_rate([])


class TestMagusConfig:
    def test_paper_defaults(self):
        # §3.3's recommended values.
        cfg = MagusConfig()
        assert cfg.inc_threshold == 200.0
        assert cfg.dec_threshold == 500.0
        assert cfg.high_freq_threshold == 0.4
        assert cfg.interval_s == 0.2
        assert cfg.init_cycles == 10

    def test_replace(self):
        cfg = MagusConfig().replace(inc_threshold=300.0)
        assert cfg.inc_threshold == 300.0
        assert cfg.dec_threshold == 500.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval_s": 0.0},
            {"history_len": 1},
            {"direv_length": 0},
            {"direv_length": 10, "history_len": 10},
            {"inc_threshold": -1.0},
            {"dec_threshold": 0.0},
            {"high_freq_threshold": 0.0},
            {"high_freq_threshold": 1.5},
            {"init_cycles": 0},
            {"launch_delay_s": -0.1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            MagusConfig(**kwargs)

    @pytest.mark.parametrize(
        "field",
        [
            "interval_s",
            "inc_threshold",
            "dec_threshold",
            "high_freq_threshold",
            "launch_delay_s",
            "step_ghz",
        ],
    )
    def test_nan_rejected(self, field):
        # NaN passes every range check, so it must be refused by name.
        with pytest.raises(ConfigError, match=f"{field} must not be NaN"):
            MagusConfig(**{field: float("nan")})


class TestTrendPredictor:
    def make(self, **cfg):
        return TrendPredictor(MagusConfig(**cfg))

    def test_not_ready_predicts_flat(self):
        p = self.make()
        p.observe(1000.0)
        assert not p.ready
        assert p.predict() == TREND_FLAT

    def test_sharp_rise_predicts_up(self):
        p = self.make(direv_length=3)
        for v in (100.0, 100.0, 100.0, 5000.0):
            p.observe(v)
        assert p.predict() == TREND_UP

    def test_sharp_fall_predicts_down(self):
        p = self.make(direv_length=3)
        for v in (5000.0, 5000.0, 5000.0, 100.0):
            p.observe(v)
        assert p.predict() == TREND_DOWN

    def test_asymmetric_thresholds(self):
        # A change of +250/sample triggers the rise (inc=200) but -250 does
        # not trigger the fall (dec=500): quicker to grant than to revoke.
        p = self.make(direv_length=1)
        for v in (1000.0, 1000.0, 1250.0):
            p.observe(v)
        assert p.predict() == TREND_UP
        p.reset()
        for v in (1250.0, 1250.0, 1000.0):
            p.observe(v)
        assert p.predict() == TREND_FLAT

    def test_fifo_capacity(self):
        p = self.make(history_len=10)
        for i in range(50):
            p.observe(float(i))
        assert len(p.history) == 10
        assert p.history[-1] == 49.0

    def test_negative_samples_clamped(self):
        p = self.make()
        p.observe(-5.0)
        assert p.history == [0.0]

    def test_nan_rejected(self):
        with pytest.raises(ConfigError):
            self.make().observe(float("nan"))

    def test_derivative_before_ready_raises(self):
        with pytest.raises(ConfigError):
            self.make().derivative()

    def test_reset(self):
        p = self.make()
        for _ in range(10):
            p.observe(1.0)
        p.reset()
        assert p.history == []
        assert not p.ready


class TestHighFrequencyDetector:
    def make(self, **cfg):
        return HighFrequencyDetector(MagusConfig(**cfg))

    def test_prefilled_with_zeros(self):
        d = self.make()
        assert d.flags == [0] * 10
        assert not d.is_high_frequency()

    def test_triggers_at_threshold(self):
        d = self.make(high_freq_threshold=0.4, tune_history_len=10)
        for _ in range(4):
            d.log_event(True)
        assert d.rate() == pytest.approx(0.4)
        assert d.is_high_frequency()

    def test_below_threshold(self):
        d = self.make(high_freq_threshold=0.4, tune_history_len=10)
        for _ in range(3):
            d.log_event(True)
        assert not d.is_high_frequency()

    def test_decays_as_events_age_out(self):
        d = self.make()
        for _ in range(10):
            d.log_event(True)
        assert d.is_high_frequency()
        for _ in range(8):
            d.log_event(False)
        assert not d.is_high_frequency()

    def test_reset(self):
        d = self.make()
        for _ in range(10):
            d.log_event(True)
        d.reset()
        assert d.flags == [0] * 10
