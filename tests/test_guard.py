"""TelemetryGuard: per-channel validators, breakers, write-verify, coverage.

Covers the guard layer by layer and end to end:

* config/bounds — validation of tunables, preset-derived physical limits;
* breaker — the closed → open → half-open machine, seeded probe schedules;
* validators — each silent fault signature (stuck/frozen/spike/bias/
  backwards) quarantined with a deterministic holdover, zero-elapsed
  supervisor retries never misread as frozen;
* write-verify — dropped actuation writes detected by register read-back,
  retried, and escalated to a breaker trip + :class:`GuardError`;
* integration — guard-on zero-fault runs are golden-trace bit-identical
  to guard-off, breaker trips route through the supervisor's *existing*
  fail-safe path, incident logs are identical at any worker count, and
  the silent-campaign detection scorecard meets the acceptance bar
  (≥ 90 % acute coverage, zero false positives either leg).
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError, GuardError, TelemetryError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    IncidentLog,
    silent_campaign,
)
from repro.governors.base import GovernorContext
from repro.guard import (
    GUARD_DEVICES,
    BreakerState,
    CircuitBreaker,
    GuardBounds,
    GuardConfig,
    RawTelemetryView,
    TelemetryGuard,
)
from repro.runtime.derived import BREAKER_GAUGE_NAMES, derive_metrics
from repro.parallel.pool import map_parallel
from repro.runtime.session import make_governor, run_application
from repro.telemetry.rapl import RAPL_DRAM, RAPL_PKG
from repro.telemetry.sampling import AccessMeter
from repro.workloads.base import Segment

SEG = Segment(1.0, 20.0, mem_intensity=0.6, cpu_util=0.5, gpu_util=0.3)
#: Contrasting memory phases: a stuck PCM sample from the low phase must
#: diverge visibly from the byte counter during the high phase.
SEG_LOW = Segment(1.0, 2.0, mem_intensity=0.1, cpu_util=0.5, gpu_util=0.3)
SEG_HIGH = Segment(1.0, 20.0, mem_intensity=0.9, cpu_util=0.5, gpu_util=0.3)


def _tick(node, hub, n=1, dt_s=0.01, seg=SEG):
    for _ in range(n):
        node.step(dt_s, seg)
        hub.on_tick(dt_s)


def _armed(hub, *specs, log=None):
    injector = FaultInjector(FaultPlan(specs), log=log)
    hub.install_fault_injector(injector)
    return injector


def _guarded(hub, preset, config=None, *, log=None, seed=0):
    guard = TelemetryGuard(preset, config, log=log, seed=seed)
    hub.install_guard(guard)
    return guard


def _guard_incidents(log, action=None):
    return [
        i for i in log
        if i.source == "guard" and (action is None or i.action == action)
    ]


# ----------------------------------------------------------------------
# Config and bounds
# ----------------------------------------------------------------------
class TestGuardConfig:
    def test_defaults_are_valid_and_cost_free(self):
        cfg = GuardConfig()
        assert cfg.check_time_s == 0.0
        assert cfg.check_energy_j == 0.0
        assert cfg.verify_writes

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"margin": 0.9},
            {"max_ipc": 0.0},
            {"pcm_floor_mbps": -1.0},
            {"stuck_rel_tol": -0.1},
            {"freeze_consecutive": 1},
            {"cross_window_s": 0.0},
            {"breaker_threshold": 0},
            {"breaker_open_s": 0.0},
            {"breaker_open_s": 5.0, "breaker_max_open_s": 1.0},
            {"breaker_backoff": 0.5},
            {"breaker_jitter_frac": 1.0},
            {"breaker_jitter_frac": -0.1},
            {"verify_retries": -1},
            {"verify_backoff_factor": 0.9},
            {"check_time_s": -1e-6},
        ],
    )
    def test_invalid_tunables_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            GuardConfig(**kwargs)

    @pytest.mark.parametrize("field", [spec.name for spec in dataclasses.fields(GuardConfig)])
    def test_nan_rejected(self, field):
        # NaN passes every range check, so it must be refused by name.
        with pytest.raises(ConfigError, match=f"{field} must not be NaN"):
            GuardConfig(**{field: float("nan")})


class TestGuardBounds:
    def test_from_preset_scales_nameplate_figures(self, a100_preset):
        bounds = GuardBounds.from_preset(a100_preset, margin=1.5, max_ipc=8.0)
        assert bounds.pcm_max_mbps == pytest.approx(
            a100_preset.peak_bw_gbps * 1e3 * 1.5
        )
        assert bounds.pkg_power_max_w == pytest.approx(
            a100_preset.n_sockets * a100_preset.tdp_w_per_socket * 1.5
        )
        assert bounds.dram_power_max_w == pytest.approx(
            (
                a100_preset.dram_base_w
                + a100_preset.dram_w_per_gbps * a100_preset.peak_bw_gbps
            )
            * 1.5
        )
        assert bounds.core_max_hz == pytest.approx(a100_preset.core_max_ghz * 1e9 * 1.5)
        assert bounds.max_ipc == 8.0

    def test_rapl_domain_mapping(self, a100_preset):
        bounds = GuardBounds.from_preset(a100_preset, margin=1.5, max_ipc=8.0)
        assert bounds.rapl_power_max_w("dram") == bounds.dram_power_max_w
        assert bounds.rapl_power_max_w("package") == bounds.pkg_power_max_w

    def test_implied_dram_power_is_the_preset_model(self, a100_preset):
        bounds = GuardBounds.from_preset(a100_preset, margin=1.5, max_ipc=8.0)
        w = bounds.implied_dram_w(
            a100_preset.dram_base_w, a100_preset.dram_w_per_gbps, 4000.0
        )
        assert w == pytest.approx(
            a100_preset.dram_base_w + a100_preset.dram_w_per_gbps * 4.0
        )


# ----------------------------------------------------------------------
# Circuit breaker state machine
# ----------------------------------------------------------------------
_NO_JITTER = GuardConfig(breaker_jitter_frac=0.0)


class TestCircuitBreaker:
    def test_threshold_consecutive_failures_open(self):
        b = CircuitBreaker("pcm", _NO_JITTER, seed=0)
        assert not b.record_failure(0.1)
        assert not b.record_failure(0.2)
        assert b.record_failure(0.3)  # third strike opens
        assert b.state == BreakerState.OPEN
        assert b.trip_count == 1
        assert b.probe_at_s == pytest.approx(0.3 + _NO_JITTER.breaker_open_s)

    def test_success_resets_the_strike_count(self):
        b = CircuitBreaker("pcm", _NO_JITTER, seed=0)
        b.record_failure(0.1)
        b.record_failure(0.2)
        b.record_success()
        b.record_failure(0.3)
        b.record_failure(0.4)
        assert b.state == BreakerState.CLOSED

    def test_open_refuses_until_probe_then_half_opens(self):
        b = CircuitBreaker("pcm", _NO_JITTER, seed=0)
        for t in (0.1, 0.2, 0.3):
            b.record_failure(t)
        assert not b.allow(0.4)
        assert not b.allow(b.probe_at_s - 1e-9)
        assert b.allow(b.probe_at_s)  # the probe
        assert b.state == BreakerState.HALF_OPEN
        assert b.probe_count == 1
        # A half-open breaker lets the probe's retries through.
        assert b.allow(5.0)

    def test_clean_probe_closes_failed_probe_escalates(self):
        b = CircuitBreaker("pcm", _NO_JITTER, seed=0)
        for t in (0.1, 0.2, 0.3):
            b.record_failure(t)
        first_span = b.probe_at_s - 0.3
        b.allow(b.probe_at_s)
        # A failed probe re-opens immediately with an escalated span.
        assert b.record_failure(5.0)
        assert b.state == BreakerState.OPEN
        assert b.trip_count == 2
        assert b.probe_at_s - 5.0 == pytest.approx(
            first_span * _NO_JITTER.breaker_backoff
        )
        # A clean probe closes and resets the escalation.
        b.allow(b.probe_at_s)
        assert b.record_success()
        assert b.state == BreakerState.CLOSED
        for t in (20.0, 20.1, 20.2):
            b.record_failure(t)
        assert b.probe_at_s - 20.2 == pytest.approx(first_span)

    def test_escalation_caps_at_max_open(self):
        cfg = GuardConfig(
            breaker_jitter_frac=0.0, breaker_open_s=2.0, breaker_max_open_s=5.0
        )
        b = CircuitBreaker("pcm", cfg, seed=0)
        for t in (0.1, 0.2, 0.3):
            b.record_failure(t)
        for _ in range(4):  # keep failing every probe
            b.allow(b.probe_at_s)
            now = b.probe_at_s
            b.record_failure(now)
        assert b.probe_at_s - now == pytest.approx(5.0)

    def test_force_open_trips_once(self):
        b = CircuitBreaker("actuation", _NO_JITTER, seed=0)
        assert b.force_open(1.0)
        assert not b.force_open(1.1)  # already open
        assert b.trip_count == 1

    def test_probe_schedule_is_a_pure_function_of_the_seed(self):
        a = CircuitBreaker("pcm", GuardConfig(), seed=7)
        b = CircuitBreaker("pcm", GuardConfig(), seed=7)
        c = CircuitBreaker("pcm", GuardConfig(), seed=8)
        for t in (0.1, 0.2, 0.3):
            a.record_failure(t)
            b.record_failure(t)
            c.record_failure(t)
        assert a.probe_at_s == b.probe_at_s
        assert a.probe_at_s != c.probe_at_s

    def test_gauge_encoding(self):
        b = CircuitBreaker("pcm", _NO_JITTER, seed=0)
        assert b.gauge_value == 0.0
        for t in (0.1, 0.2, 0.3):
            b.record_failure(t)
        assert b.gauge_value == 1.0
        b.allow(b.probe_at_s)
        assert b.gauge_value == 2.0


# ----------------------------------------------------------------------
# Wiring
# ----------------------------------------------------------------------
class TestGuardWiring:
    def test_hub_accepts_one_guard(self, a100_preset, a100_hub):
        _guarded(a100_hub, a100_preset)
        with pytest.raises(TelemetryError):
            a100_hub.install_guard(TelemetryGuard(a100_preset))

    def test_guard_binds_one_hub(self, a100_preset, a100_node, a100_hub):
        guard = _guarded(a100_hub, a100_preset)
        with pytest.raises(TelemetryError):
            guard.bind(a100_hub)

    def test_unbound_guard_refuses_reads(self, a100_preset):
        guard = TelemetryGuard(a100_preset)
        with pytest.raises(TelemetryError):
            guard.read_throughput_mbps()

    def test_guard_error_is_a_telemetry_error(self):
        # The supervisor's existing retry → fail-safe path handles breaker
        # refusals precisely because of this lineage.
        assert issubclass(GuardError, TelemetryError)

    def test_context_telemetry_resolves_guard_else_view(
        self, a100_preset, a100_node, a100_hub
    ):
        ctx = GovernorContext(hub=a100_hub, node=a100_node)
        assert isinstance(ctx.telemetry, RawTelemetryView)
        guard = _guarded(a100_hub, a100_preset)
        assert ctx.telemetry is guard

    def test_raw_view_is_a_pure_pass_through(self, a100_node, a100_hub):
        view = RawTelemetryView(a100_hub)
        _tick(a100_node, a100_hub, 10)
        assert view.read_throughput_mbps() == a100_hub.pcm.read_throughput_mbps()
        assert view.energy_j(RAPL_PKG) == a100_hub.rapl.energy_j(RAPL_PKG)
        assert view.power_w(RAPL_DRAM) == a100_hub.rapl.power_w(RAPL_DRAM)
        vi, vc = view.read_all_core_counters()
        hi, hc = a100_hub.msr.read_all_core_counters()
        assert np.array_equal(vi, hi) and np.array_equal(vc, hc)


# ----------------------------------------------------------------------
# PCM validators
# ----------------------------------------------------------------------
class TestPCMValidation:
    def test_clean_reads_pass_through_untouched(self, a100_preset, a100_node, a100_hub):
        guard = _guarded(a100_hub, a100_preset)
        for _ in range(50):
            _tick(a100_node, a100_hub, 1)
            value = guard.read_throughput_mbps()
            assert 0.0 <= value <= guard.bounds.pcm_max_mbps
        assert guard.quarantine_count == 0
        assert guard.reads_by_device["pcm"] == 50

    def test_stuck_sample_quarantined_with_last_good_holdover(
        self, a100_preset, a100_node, a100_hub
    ):
        log = IncidentLog()
        _armed(
            a100_hub,
            FaultSpec("pcm", "stuck", 0.15, 5.0, count=None),
            log=log,
        )
        guard = _guarded(a100_hub, a100_preset, log=log)
        _tick(a100_node, a100_hub, 10, seg=SEG_LOW)
        clean = guard.read_throughput_mbps()
        _tick(a100_node, a100_hub, 10, seg=SEG_HIGH)
        held = guard.read_throughput_mbps()  # proxy repeats the low-phase value
        assert held == clean  # holdover = last known good
        assert guard.quarantine_count == 1
        assert guard.quarantines_by_device["pcm"] == 1
        (incident,) = _guard_incidents(log, "quarantine")
        assert incident.device == "pcm"
        assert incident.fault == "stuck_sample"
        assert incident.outcome == "holdover"
        assert incident.fault_id is None  # guard incidents never claim fault ids

    def test_frozen_counter_detected_on_stalled_bytes(
        self, a100_preset, a100_node, a100_hub
    ):
        log = IncidentLog()
        _armed(a100_hub, FaultSpec("pcm", "freeze", 0.15, 5.0, count=1), log=log)
        guard = _guarded(a100_hub, a100_preset, log=log)
        _tick(a100_node, a100_hub, 10)
        clean = guard.read_throughput_mbps()
        assert clean > 0.0
        # First in-window read still sees the pre-freeze byte advance...
        _tick(a100_node, a100_hub, 10)
        guard.read_throughput_mbps()
        # ...the next sees a stalled counter under a non-idle reading.
        _tick(a100_node, a100_hub, 10)
        guard.read_throughput_mbps()
        assert guard.quarantine_count >= 1
        assert any(
            i.fault == "frozen_sample" and i.device == "pcm"
            for i in _guard_incidents(log, "quarantine")
        )

    def test_spike_beyond_physical_bound_quarantined(
        self, a100_preset, a100_node, a100_hub
    ):
        log = IncidentLog()
        _armed(a100_hub, FaultSpec("pcm", "spike", 0.15, 5.0, count=None), log=log)
        guard = _guarded(a100_hub, a100_preset, log=log)
        _tick(a100_node, a100_hub, 10)
        clean = guard.read_throughput_mbps()
        _tick(a100_node, a100_hub, 10)
        held = guard.read_throughput_mbps()
        assert held == clean
        (incident,) = _guard_incidents(log, "quarantine")
        assert incident.fault == "bound_violation"

    def test_first_ever_read_spike_clamps_into_bounds(
        self, a100_preset, a100_node, a100_hub
    ):
        # With no last-known-good yet, the holdover is the clamped raw value.
        _armed(a100_hub, FaultSpec("pcm", "spike", 0.0, 5.0, count=None))
        guard = _guarded(a100_hub, a100_preset)
        _tick(a100_node, a100_hub, 10)
        held = guard.read_throughput_mbps()
        assert held == guard.bounds.pcm_max_mbps
        assert guard.quarantine_count == 1


# ----------------------------------------------------------------------
# MSR validators
# ----------------------------------------------------------------------
class TestMSRValidation:
    def test_clean_sweeps_pass_through(self, a100_preset, a100_node, a100_hub):
        guard = _guarded(a100_hub, a100_preset)
        for _ in range(10):
            _tick(a100_node, a100_hub, 10)
            instr, cycles = guard.read_all_core_counters()
            assert instr.dtype == np.uint64 and cycles.dtype == np.uint64
        assert guard.quarantine_count == 0

    def test_stuck_sweep_quarantined_with_extrapolated_holdover(
        self, a100_preset, a100_node, a100_hub
    ):
        log = IncidentLog()
        _armed(a100_hub, FaultSpec("msr", "stuck", 0.25, 5.0, count=None), log=log)
        guard = _guarded(a100_hub, a100_preset, log=log)
        _tick(a100_node, a100_hub, 10)
        guard.read_all_core_counters()
        _tick(a100_node, a100_hub, 10)
        _, good_cycles = guard.read_all_core_counters()  # establishes rates
        _tick(a100_node, a100_hub, 10)
        _, held_cycles = guard.read_all_core_counters()  # proxy repeats t=0.2 sweep
        assert guard.quarantine_count == 1
        (incident,) = _guard_incidents(log, "quarantine")
        assert incident.device == "msr"
        assert incident.fault == "frozen_sample"
        # Holdover extrapolates at the last good per-core rate: the sweep
        # keeps advancing, so downstream deltas never collapse to zero.
        assert int(held_cycles.max()) > int(good_cycles.max())

    def test_biased_sweep_caught_by_slew_bound(self, a100_preset, a100_node, a100_hub):
        log = IncidentLog()
        _armed(a100_hub, FaultSpec("msr", "bias", 0.15, 5.0, count=None), log=log)
        guard = _guarded(a100_hub, a100_preset, log=log)
        _tick(a100_node, a100_hub, 10)
        guard.read_all_core_counters()
        _tick(a100_node, a100_hub, 10)
        guard.read_all_core_counters()
        assert guard.quarantine_count == 1
        (incident,) = _guard_incidents(log, "quarantine")
        assert incident.fault == "slew_violation"


# ----------------------------------------------------------------------
# RAPL validators
# ----------------------------------------------------------------------
class TestRAPLValidation:
    def test_clean_energy_reads_pass_through(self, a100_preset, a100_node, a100_hub):
        guard = _guarded(a100_hub, a100_preset)
        last = -1.0
        for _ in range(10):
            _tick(a100_node, a100_hub, 10)
            value = guard.energy_j(RAPL_PKG)
            assert value > last  # cumulative and advancing
            last = value
        assert guard.quarantine_count == 0

    def test_register_reset_glitch_quarantined_as_backwards(
        self, a100_preset, a100_node, a100_hub
    ):
        log = IncidentLog()
        _armed(a100_hub, FaultSpec("rapl", "glitch", 0.15, 5.0, count=1), log=log)
        guard = _guarded(a100_hub, a100_preset, log=log)
        _tick(a100_node, a100_hub, 10)
        clean = guard.energy_j(RAPL_PKG)
        _tick(a100_node, a100_hub, 10)
        held = guard.energy_j(RAPL_PKG)  # glitch returns a reset register (0 J)
        assert held == pytest.approx(clean)  # holdover, never 0
        (incident,) = _guard_incidents(log, "quarantine")
        assert incident.fault == "bound_violation"
        assert "backwards" in incident.detail

    def test_stalled_energy_counter_quarantined(self, a100_preset, a100_node, a100_hub):
        log = IncidentLog()
        _armed(a100_hub, FaultSpec("rapl", "stuck", 0.15, 5.0, count=None), log=log)
        guard = _guarded(a100_hub, a100_preset, log=log)
        _tick(a100_node, a100_hub, 10)
        guard.energy_j(RAPL_PKG)
        _tick(a100_node, a100_hub, 10)
        guard.energy_j(RAPL_PKG)
        assert guard.quarantine_count == 1
        (incident,) = _guard_incidents(log, "quarantine")
        assert incident.fault == "frozen_sample"

    def test_energy_spike_caught_by_slew_bound(self, a100_preset, a100_node, a100_hub):
        log = IncidentLog()
        _armed(a100_hub, FaultSpec("rapl", "spike", 0.15, 5.0, count=None), log=log)
        guard = _guarded(a100_hub, a100_preset, log=log)
        _tick(a100_node, a100_hub, 10)
        guard.energy_j(RAPL_PKG)
        _tick(a100_node, a100_hub, 10)
        guard.energy_j(RAPL_PKG)
        assert guard.quarantine_count == 1
        (incident,) = _guard_incidents(log, "quarantine")
        assert incident.fault == "slew_violation"

    def test_pinned_power_reading_quarantined_as_frozen(
        self, a100_preset, a100_node, a100_hub
    ):
        log = IncidentLog()
        _armed(a100_hub, FaultSpec("rapl", "stuck", 0.15, 5.0, count=None), log=log)
        guard = _guarded(a100_hub, a100_preset, log=log)
        _tick(a100_node, a100_hub, 10)
        guard.power_w(RAPL_PKG)  # seeds the proxy's last value
        _tick(a100_node, a100_hub, 10)
        guard.power_w(RAPL_PKG)  # identical: 2 consecutive
        _tick(a100_node, a100_hub, 10)
        guard.power_w(RAPL_PKG)  # identical: 3 consecutive -> frozen
        assert guard.quarantine_count == 1
        (incident,) = _guard_incidents(log, "quarantine")
        assert incident.fault == "frozen_sample"

    def test_cross_check_flags_dram_power_inconsistent_with_bandwidth(
        self, a100_preset
    ):
        guard = TelemetryGuard(a100_preset)
        guard.now_s = 0.5
        guard._last_pcm_sample = (0.4, 5000.0)
        expected = guard.bounds.implied_dram_w(
            a100_preset.dram_base_w, a100_preset.dram_w_per_gbps, 5000.0
        )
        # Consistent implied power passes.
        assert guard._cross_check(RAPL_DRAM, expected) is None
        # Far-off implied power fires.
        verdict = guard._cross_check(RAPL_DRAM, expected * 2.0 + 20.0)
        assert verdict is not None and verdict[0] == "inconsistent"
        # Only the DRAM domain is cross-checked.
        assert guard._cross_check(RAPL_PKG, expected * 2.0 + 20.0) is None
        # A stale bandwidth sample is no evidence.
        guard.now_s = 5.0
        assert guard._cross_check(RAPL_DRAM, expected * 2.0 + 20.0) is None


# ----------------------------------------------------------------------
# Zero-elapsed reads (supervisor retries at the same sim time)
# ----------------------------------------------------------------------
class TestZeroElapsedRetrySafety:
    def test_same_tick_rereads_never_quarantine(
        self, a100_preset, a100_node, a100_hub
    ):
        # A supervisor retry re-issues the read at the *same* simulated
        # time; identical values and zero deltas are then expected, not a
        # frozen-counter signature.
        guard = _guarded(a100_hub, a100_preset)
        _tick(a100_node, a100_hub, 10)
        assert guard.read_throughput_mbps() == guard.read_throughput_mbps()
        assert guard.energy_j(RAPL_PKG) == guard.energy_j(RAPL_PKG)
        assert guard.power_w(RAPL_PKG) == guard.power_w(RAPL_PKG)
        i1, c1 = guard.read_all_core_counters()
        i2, c2 = guard.read_all_core_counters()
        assert np.array_equal(i1, i2) and np.array_equal(c1, c2)
        assert guard.quarantine_count == 0


# ----------------------------------------------------------------------
# Write-verified actuation
# ----------------------------------------------------------------------
class TestWriteVerify:
    def test_clean_actuation_verifies_silently(self, a100_preset, a100_node, a100_hub):
        guard = _guarded(a100_hub, a100_preset)
        _tick(a100_node, a100_hub, 10)
        a100_hub.set_uncore_max_ghz(a100_preset.uncore_max_ghz)
        assert guard.verify_failure_count == 0
        assert guard.reads_by_device["actuation"] == 1
        assert guard._readback_matches(a100_preset.uncore_max_ghz)

    def test_single_dropped_write_recovered_by_retry(
        self, a100_preset, a100_node, a100_hub
    ):
        log = IncidentLog()
        _armed(
            a100_hub,
            FaultSpec("actuation", "write_ignored", 0.0, 10.0, count=1),
            log=log,
        )
        guard = _guarded(a100_hub, a100_preset, log=log)
        _tick(a100_node, a100_hub, 10)
        meter = AccessMeter()
        a100_hub.set_uncore_max_ghz(a100_preset.uncore_max_ghz, meter)  # no raise
        assert guard.verify_failure_count == 1
        assert guard._readback_matches(a100_preset.uncore_max_ghz)
        assert meter.counts.get("retry_backoff", 0) == 1
        retried = [i for i in _guard_incidents(log, "verify") if i.outcome == "retried"]
        assert len(retried) == 1
        assert guard.breakers["actuation"].state == BreakerState.CLOSED

    def test_persistently_ignored_writes_trip_the_breaker(
        self, a100_preset, a100_node, a100_hub
    ):
        log = IncidentLog()
        _armed(
            a100_hub,
            FaultSpec("actuation", "write_ignored", 0.0, 10.0, count=None),
            log=log,
        )
        guard = _guarded(a100_hub, a100_preset, log=log)
        _tick(a100_node, a100_hub, 10)
        meter = AccessMeter()
        with pytest.raises(GuardError) as exc:
            a100_hub.set_uncore_max_ghz(a100_preset.uncore_max_ghz, meter)
        assert "write-verify" in str(exc.value)
        # verify_retries=2: initial write + 2 retries, all read back wrong.
        assert guard.verify_failure_count == 3
        assert meter.counts["retry_backoff"] == 2
        verify = _guard_incidents(log, "verify")
        assert [i.outcome for i in verify] == ["retried", "retried", "exhausted"]
        assert guard.breakers["actuation"].state == BreakerState.OPEN
        trips = _guard_incidents(log, "trip")
        assert len(trips) == 1 and trips[0].device == "actuation"
        # The open breaker now refuses actuations outright (the supervisor
        # sees a TelemetryError naming the device, like any dead sensor).
        with pytest.raises(GuardError) as refusal:
            a100_hub.set_uncore_max_ghz(a100_preset.uncore_max_ghz, meter)
        assert "actuation circuit breaker open" in str(refusal.value)
        assert guard.refusal_count == 1

    def test_verification_can_be_disabled(self, a100_preset, a100_node, a100_hub):
        _armed(a100_hub, FaultSpec("actuation", "write_ignored", 0.0, 10.0, count=None))
        guard = _guarded(a100_hub, a100_preset, GuardConfig(verify_writes=False))
        _tick(a100_node, a100_hub, 10)
        a100_hub.set_uncore_max_ghz(a100_preset.uncore_max_ghz)  # no raise
        assert guard.verify_failure_count == 0
        # The corruption goes undetected — the documented trade-off.
        assert not guard._readback_matches(a100_preset.uncore_max_ghz)


# ----------------------------------------------------------------------
# Breaker lifecycle through the guard (refusal -> probe -> close)
# ----------------------------------------------------------------------
class TestBreakerLifecycle:
    def test_trip_refuse_probe_and_deterministic_rearm(
        self, a100_preset, a100_node, a100_hub
    ):
        log = IncidentLog()
        _armed(a100_hub, FaultSpec("pcm", "spike", 0.15, 0.4, count=None), log=log)
        guard = _guarded(a100_hub, a100_preset, log=log, seed=4)
        _tick(a100_node, a100_hub, 10)
        guard.read_throughput_mbps()  # clean baseline
        for _ in range(3):  # three quarantines open the breaker
            _tick(a100_node, a100_hub, 10)
            guard.read_throughput_mbps()
        breaker = guard.breakers["pcm"]
        assert breaker.state == BreakerState.OPEN
        probe_at = breaker.probe_at_s
        assert probe_at is not None
        # The schedule is a pure function of (seed, device, config): a
        # twin breaker replaying the logged quarantine times lands on the
        # bit-identical probe time.
        twin = CircuitBreaker("pcm", guard.config, seed=4)
        for incident in _guard_incidents(log, "quarantine"):
            twin.record_failure(incident.time_s)
        assert twin.probe_at_s == probe_at
        # Refused while open — the message names the device for the
        # supervisor's attribution and carries the probe time.
        _tick(a100_node, a100_hub, 10)
        with pytest.raises(GuardError) as exc:
            guard.read_throughput_mbps()
        assert "pcm circuit breaker open" in str(exc.value)
        assert f"t={probe_at:.2f}s" in str(exc.value)
        # Advance past the probe time (fault window long gone): the probe
        # read flows, validates clean, and closes the breaker.
        n = int((probe_at - guard.now_s) / 0.01) + 1
        _tick(a100_node, a100_hub, n)
        guard.read_throughput_mbps()
        assert breaker.state == BreakerState.CLOSED
        actions = [i.action for i in _guard_incidents(log)]
        assert "trip" in actions and "probe" in actions and "close" in actions

    def test_failed_probe_reopens_with_escalated_schedule(
        self, a100_preset, a100_node, a100_hub
    ):
        log = IncidentLog()
        _armed(a100_hub, FaultSpec("pcm", "spike", 0.15, 30.0, count=None), log=log)
        guard = _guarded(a100_hub, a100_preset, log=log)
        _tick(a100_node, a100_hub, 10)
        guard.read_throughput_mbps()
        for _ in range(3):
            _tick(a100_node, a100_hub, 10)
            guard.read_throughput_mbps()
        breaker = guard.breakers["pcm"]
        first_probe = breaker.probe_at_s
        n = int((first_probe - guard.now_s) / 0.01) + 1
        _tick(a100_node, a100_hub, n)
        guard.read_throughput_mbps()  # probe still corrupted -> re-open
        assert breaker.state == BreakerState.OPEN
        assert breaker.trip_count == 2
        assert breaker.probe_at_s > first_probe


# ----------------------------------------------------------------------
# Metrics export
# ----------------------------------------------------------------------
class TestGuardMetrics:
    def test_counters_and_gauges(self, a100_preset, a100_node, a100_hub):
        _armed(a100_hub, FaultSpec("pcm", "spike", 0.15, 5.0, count=None))
        guard = _guarded(a100_hub, a100_preset)
        registry = derive_metrics(a100_hub, None, None)
        for device in GUARD_DEVICES:
            assert registry.gauge(BREAKER_GAUGE_NAMES[device]).value == 0.0
        _tick(a100_node, a100_hub, 10)
        guard.read_throughput_mbps()  # clean
        for _ in range(3):
            _tick(a100_node, a100_hub, 10)
            guard.read_throughput_mbps()
        registry = derive_metrics(a100_hub, None, None)
        assert registry.counter("repro.guard.quarantines").value == 3
        assert registry.counter("repro.guard.breaker_trips").value == 1
        assert registry.gauge(BREAKER_GAUGE_NAMES["pcm"]).value == 1.0
        assert registry.gauge(BREAKER_GAUGE_NAMES["msr"]).value == 0.0


# ----------------------------------------------------------------------
# Integration: bit-identity, supervisor routing, worker-count determinism
# ----------------------------------------------------------------------
def _run(governor_name, *, guard, **kwargs):
    return run_application(
        "intel_a100",
        "srad",
        make_governor(governor_name),
        seed=1,
        max_time_s=10.0,
        guard=guard,
        **kwargs,
    )


def _guarded_incident_stream(seed):
    """map_parallel worker: one guarded faulted run's incident stream."""
    result = run_application(
        "intel_a100",
        "srad",
        make_governor("magus"),
        seed=seed,
        max_time_s=8.0,
        fault_plan=silent_campaign(seed, horizon_s=8.0),
        guard=True,
    )
    return tuple(
        (i.time_s, i.source, i.device, i.fault, i.action, i.outcome)
        for i in result.incidents
    )


class TestGuardIntegration:
    @pytest.mark.parametrize("governor", ["magus", "ups"])
    def test_zero_fault_guard_on_is_bit_identical(self, governor):
        off = _run(governor, guard=False)
        on = _run(governor, guard=True)
        assert on.guarded and not off.guarded
        assert on.guard_quarantines == 0
        assert on.total_energy_j == off.total_energy_j
        assert on.runtime_s == off.runtime_s
        assert on.decisions == off.decisions
        assert set(on.traces) == set(off.traces)
        for key in off.traces:
            assert np.array_equal(
                np.asarray(on.traces[key].values), np.asarray(off.traces[key].values)
            ), key

    @pytest.mark.parametrize(
        "governor,kwargs",
        [("magus", {}), ("ups", {}), ("powercap", {"cap_w": 180.0})],
    )
    def test_fault_free_guarded_runs_never_quarantine(
        self, governor, kwargs, tiny_workload
    ):
        result = run_application(
            "intel_a100",
            tiny_workload,
            make_governor(governor, **kwargs),
            seed=3,
            guard=True,
        )
        assert result.guarded
        assert result.guard_quarantines == 0
        assert result.guard_breaker_trips == 0
        assert result.guard_verify_failures == 0
        assert result.guard_refusals == 0

    def test_breaker_trips_route_through_supervisor_failsafe(self):
        result = run_application(
            "intel_a100",
            "srad",
            make_governor("magus"),
            seed=1,
            max_time_s=20.0,
            fault_plan=silent_campaign(1, horizon_s=20.0),
            guard=True,
        )
        assert result.supervised and result.guarded
        assert result.guard_quarantines > 0
        assert result.guard_breaker_trips >= 1
        # The open breaker surfaced through the *existing* supervised
        # degraded path — fail-safe, then re-arm — not a second mechanism.
        assert result.failsafe_count >= 1
        assert result.rearm_count >= 1
        assert result.degraded_time_s > 0.0
        sources = {i.source for i in result.incidents}
        assert {"injector", "guard", "supervisor"} <= sources
        assert any(
            i.source == "supervisor" and i.action == "failsafe"
            for i in result.incidents
        )

    def test_incident_stream_identical_across_worker_counts(self):
        kwargs_list = [{"seed": 1}, {"seed": 2}]
        serial = map_parallel(_guarded_incident_stream, kwargs_list, n_workers=1)
        parallel = map_parallel(_guarded_incident_stream, kwargs_list, n_workers=2)
        assert serial == parallel
        assert all(stream for stream in serial)  # campaigns actually fired


# ----------------------------------------------------------------------
# Detection coverage: the acceptance scorecard
# ----------------------------------------------------------------------
class TestDetectionCoverage:
    @pytest.fixture(scope="class")
    def rows(self):
        from repro.experiments.resilience import run_detection_coverage

        return run_detection_coverage(seed=1, max_time_s=20.0)

    def test_acute_coverage_meets_the_bar(self, rows):
        assert len(rows) == 2  # magus + ups
        for row in rows:
            assert row.fired_windows  # the campaign reached every governor
            assert row.acute_coverage >= 0.9, (row.governor, row.windows)
            # Detection lands within one decision window of the fault.
            for window in row.fired_windows:
                if window.detected and window.latency_s is not None:
                    assert window.latency_s <= (
                        window.end_s - window.start_s
                    ) + row.detect_window_s

    def test_zero_false_positives_both_legs(self, rows):
        for row in rows:
            assert row.clean_false_positives == 0
            assert row.faulted_false_positives == 0

    def test_no_sustained_stuck_or_freeze_escapes(self, rows):
        from repro.experiments.resilience import undetected_stuck_freeze

        assert undetected_stuck_freeze(rows) == []

    def test_scorecard_serialises(self, rows):
        import json

        from repro.experiments.resilience import (
            detection_row_dict,
            format_detection_coverage,
        )

        payload = json.dumps([detection_row_dict(r) for r in rows])
        assert "acute_coverage" in payload
        text = format_detection_coverage(rows)
        assert "Silent-corruption detection" in text
