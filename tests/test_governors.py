"""Governor policies: lifecycle, static pinning, vendor default, UPS."""

import pytest

from repro.errors import GovernorError
from repro.governors.base import Decision, GovernorContext, UncoreGovernor
from repro.governors.default import VendorDefaultGovernor
from repro.governors.static import StaticUncoreGovernor
from repro.governors.ups import UPSConfig, UPSGovernor
from repro.telemetry.sampling import AccessMeter
from repro.workloads.base import Segment


def attach(gov, hub, node):
    gov.attach(GovernorContext(hub=hub, node=node))
    return gov


class _NullGovernor(UncoreGovernor):
    name = "null"

    @property
    def interval_s(self):
        return 1.0

    @property
    def initial_uncore_ghz(self):
        return self.context.uncore_max_ghz

    def sample_and_decide(self, now_s, meter):
        return Decision(now_s, None, "noop")


class TestLifecycle:
    def test_context_before_attach_raises(self):
        with pytest.raises(GovernorError):
            _NullGovernor().context

    def test_double_attach_rejected(self, a100_hub, a100_node):
        gov = attach(_NullGovernor(), a100_hub, a100_node)
        with pytest.raises(GovernorError):
            gov.attach(GovernorContext(hub=a100_hub, node=a100_node))

    def test_context_exposes_bounds(self, a100_hub, a100_node):
        gov = attach(_NullGovernor(), a100_hub, a100_node)
        assert gov.context.uncore_min_ghz == pytest.approx(0.8)
        assert gov.context.uncore_max_ghz == pytest.approx(2.2)


class TestStatic:
    def test_at_max_resolves_to_hardware_max(self, a100_hub, a100_node):
        gov = attach(StaticUncoreGovernor.at_max(), a100_hub, a100_node)
        assert gov.initial_uncore_ghz == pytest.approx(2.2)

    def test_at_min_resolves_to_hardware_min(self, a100_hub, a100_node):
        gov = attach(StaticUncoreGovernor.at_min(), a100_hub, a100_node)
        assert gov.initial_uncore_ghz == pytest.approx(0.8)

    def test_explicit_frequency_clamped(self, a100_hub, a100_node):
        gov = attach(StaticUncoreGovernor(1.5), a100_hub, a100_node)
        assert gov.initial_uncore_ghz == pytest.approx(1.5)

    def test_never_wakes(self):
        assert StaticUncoreGovernor(1.5).interval_s == float("inf")

    def test_is_hardware_policy(self):
        assert StaticUncoreGovernor(1.5).hardware is True

    def test_invalid_frequency_rejected(self):
        with pytest.raises(GovernorError):
            StaticUncoreGovernor(0.0)
        with pytest.raises(GovernorError):
            StaticUncoreGovernor(float("nan"))

    def test_hold_decision(self, a100_hub, a100_node):
        gov = attach(StaticUncoreGovernor(1.5), a100_hub, a100_node)
        d = gov.sample_and_decide(0.0, AccessMeter())
        assert d.target_ghz is None


class TestVendorDefault:
    def test_initial_is_max(self, a100_hub, a100_node):
        gov = attach(VendorDefaultGovernor(), a100_hub, a100_node)
        assert gov.initial_uncore_ghz == pytest.approx(2.2)

    def test_holds_at_gpu_dominant_power(self, a100_hub, a100_node):
        # The paper's core claim: package power far below TDP => no action.
        gov = attach(VendorDefaultGovernor(), a100_hub, a100_node)
        a100_node.force_uncore_all(2.2)
        a100_node.step(0.01, Segment(1.0, 20.0, mem_intensity=0.7, cpu_util=0.3, gpu_util=0.95))
        d = gov.sample_and_decide(0.1, AccessMeter())
        assert d.target_ghz is None
        assert d.reason == "hold"

    def test_steps_down_near_tdp(self, a100_hub, a100_node):
        gov = attach(VendorDefaultGovernor(cap_fraction=0.1, release_fraction=0.05), a100_hub, a100_node)
        a100_node.force_uncore_all(2.2)
        a100_node.step(0.01, Segment(1.0, 20.0, cpu_util=0.5, gpu_util=0.5))
        d = gov.sample_and_decide(0.1, AccessMeter())
        assert d.reason == "tdp_cap"
        assert d.target_ghz == pytest.approx(2.1)

    def test_releases_when_comfortable(self, a100_hub, a100_node):
        gov = attach(VendorDefaultGovernor(), a100_hub, a100_node)
        a100_node.force_uncore_all(1.5)
        a100_node.step(0.01, None)  # idle: far below release fraction
        d = gov.sample_and_decide(0.1, AccessMeter())
        assert d.reason == "tdp_release"
        assert d.target_ghz == pytest.approx(1.6)

    def test_is_hardware_policy(self):
        assert VendorDefaultGovernor().hardware is True

    def test_invalid_fractions_rejected(self):
        with pytest.raises(GovernorError):
            VendorDefaultGovernor(cap_fraction=0.5, release_fraction=0.9)


class TestUPSConfig:
    def test_defaults_give_half_second_period(self):
        # 0.2s sleep + ~0.29s sweep = the 0.5s decision period of §6.5.
        assert UPSConfig().interval_s == pytest.approx(0.2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval_s": 0.0},
            {"dram_rel_threshold": 0.0},
            {"ipc_slack": 1.0},
            {"step_ghz": 0.0},
            {"reprobe_cycles": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(GovernorError):
            UPSConfig(**kwargs)

    @pytest.mark.parametrize(
        "field", ["interval_s", "dram_rel_threshold", "ipc_slack", "step_ghz", "launch_delay_s"]
    )
    def test_nan_rejected(self, field):
        with pytest.raises(GovernorError, match=f"{field} must not be NaN"):
            UPSConfig(**{field: float("nan")})


class TestUPSBehaviour:
    def _cycle(self, gov, node, hub, now, seg):
        node.step(0.01, seg)
        hub.on_tick(0.01)
        return gov.sample_and_decide(now, AccessMeter())

    def test_first_cycle_is_warmup(self, a100_hub, a100_node):
        gov = attach(UPSGovernor(), a100_hub, a100_node)
        seg = Segment(10.0, 5.0, cpu_util=0.3)
        d = self._cycle(gov, a100_node, a100_hub, 0.5, seg)
        assert d.reason == "warmup"

    def test_steps_down_on_stable_phase(self, a100_hub, a100_node):
        gov = attach(UPSGovernor(), a100_hub, a100_node)
        a100_node.force_uncore_all(2.2)
        seg = Segment(60.0, 5.0, mem_intensity=0.3, cpu_util=0.3)
        reasons = [self._cycle(gov, a100_node, a100_hub, 0.5 * (i + 1), seg).reason for i in range(6)]
        assert "step_down" in reasons

    def test_resets_on_dram_power_jump(self, a100_hub, a100_node):
        gov = attach(UPSGovernor(), a100_hub, a100_node)
        a100_node.force_uncore_all(2.2)
        quiet = Segment(60.0, 2.0, mem_intensity=0.3, cpu_util=0.3)
        loud = Segment(60.0, 25.0, mem_intensity=0.8, cpu_util=0.3)
        for i in range(4):
            self._cycle(gov, a100_node, a100_hub, 0.5 * (i + 1), quiet)
        # Sustain the loud phase for a full window so the averaged DRAM
        # power moves.
        for _ in range(49):
            a100_node.step(0.01, loud)
            a100_hub.on_tick(0.01)
        d = self._cycle(gov, a100_node, a100_hub, 3.0, loud)
        assert d.reason == "phase_reset"
        assert d.target_ghz == pytest.approx(2.2)

    def test_monitoring_sweep_is_expensive(self, a100_hub, a100_node):
        gov = attach(UPSGovernor(), a100_hub, a100_node)
        meter = AccessMeter()
        a100_node.step(0.01, None)
        a100_hub.on_tick(0.01)
        gov.sample_and_decide(0.5, meter)
        # 2 MSRs x 80 cores + 1 RAPL read.
        assert meter.counts["msr_read"] == 160
        assert meter.time_s > 0.25


class TestMakeGovernorFactory:
    def test_all_names(self):
        from repro.runtime.session import make_governor

        for name in ("default", "static_max", "static_min", "ups", "magus"):
            gov = make_governor(name)
            assert isinstance(gov, UncoreGovernor)

    def test_options_forwarded(self):
        from repro.runtime.session import make_governor

        gov = make_governor("magus", inc_threshold=300.0)
        assert gov.config.inc_threshold == 300.0

    def test_unknown_name(self):
        from repro.errors import ConfigError
        from repro.runtime.session import make_governor

        with pytest.raises(ConfigError):
            make_governor("quantum")

    def test_static_rejects_options(self):
        from repro.errors import ConfigError
        from repro.runtime.session import make_governor

        with pytest.raises(ConfigError):
            make_governor("static_max", freq=2.0)
