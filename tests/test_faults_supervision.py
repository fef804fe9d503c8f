"""Fault-injection harness + supervised runtime: the resilience machinery.

Covers the three layers separately and together:

* plan layer — spec/plan validation, seeded campaign determinism;
* injector layer — device proxies raise the right errors, charge the
  caller's meter for failed accesses, respect budgets/windows, and log a
  bit-reproducible incident stream;
* supervisor layer — retry-with-backoff recovers transients, exhaustion
  and crashes fail safe (uncore pinned at the vendor ceiling, node marked
  degraded), re-arm restores management after the cooldown, and the
  watchdog flags slow cycles;
* end to end — a full campaign leaves no unresolved fault ids and the
  same seed reproduces the incident log exactly.
"""

import dataclasses

import pytest

from repro.errors import (
    FaultInjectionError,
    MSRAccessError,
    SupervisionError,
    TelemetryError,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    IncidentLog,
    standard_campaign,
)
from repro.obs.spans import SpanTracer
from repro.runtime.daemon import MonitorDaemon
from repro.runtime.derived import derive_metrics
from repro.runtime.session import make_governor, run_application
from repro.runtime.supervisor import SupervisedDaemon, SupervisorConfig
from repro.telemetry.sampling import AccessMeter
from repro.workloads.base import Segment

SEG = Segment(1.0, 20.0, mem_intensity=0.6, cpu_util=0.5, gpu_util=0.3)


def _tick(node, hub, n=1, dt_s=0.01, seg=SEG):
    for _ in range(n):
        node.step(dt_s, seg)
        hub.on_tick(dt_s)


def _armed(hub, *specs, log=None):
    injector = FaultInjector(FaultPlan(specs), log=log)
    hub.install_fault_injector(injector)
    return injector


# ----------------------------------------------------------------------
# Plan layer
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_valid_spec(self):
        spec = FaultSpec("msr", "read_error", 1.0, 0.5, count=2)
        assert spec.end_s == pytest.approx(1.5)
        assert not spec.silent

    def test_silent_kinds(self):
        assert FaultSpec("msr", "wrap", 1.0).silent
        assert FaultSpec("pcm", "freeze", 1.0).silent
        assert FaultSpec("rapl", "glitch", 1.0).silent

    def test_unknown_device_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSpec("gpu", "read_error", 1.0)

    def test_kind_device_mismatch_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSpec("pcm", "wrap", 1.0)

    def test_negative_window_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSpec("msr", "read_error", -1.0)
        with pytest.raises(FaultInjectionError):
            FaultSpec("msr", "read_error", 1.0, -0.5)

    def test_zero_count_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSpec("msr", "read_error", 1.0, count=0)


class TestFaultPlan:
    def test_generate_is_deterministic(self):
        a = FaultPlan.generate(7, horizon_s=10.0)
        b = FaultPlan.generate(7, horizon_s=10.0)
        assert a.specs == b.specs

    def test_generate_differs_across_seeds(self):
        assert FaultPlan.generate(1).specs != FaultPlan.generate(2).specs

    def test_standard_campaign_shape(self):
        plan = standard_campaign(3, horizon_s=20.0)
        kinds = [(s.device, s.kind) for s in plan]
        assert ("msr", "wrap") in kinds
        assert ("actuation", "write_error") in kinds
        # The two unlimited outage windows that force a fail-safe.
        assert sum(1 for s in plan if s.count is None) == 2

    def test_standard_campaign_deterministic(self):
        assert standard_campaign(5).specs == standard_campaign(5).specs

    def test_describe_mentions_every_window(self):
        plan = standard_campaign(1)
        text = plan.describe()
        assert text.count("\n") == len(plan)


# ----------------------------------------------------------------------
# Injector layer
# ----------------------------------------------------------------------
class TestInjectorArming:
    def test_double_arm_rejected(self, a100_hub):
        injector = FaultInjector(FaultPlan([FaultSpec("msr", "read_error", 0.0)]))
        a100_hub.install_fault_injector(injector)
        with pytest.raises(TelemetryError):
            a100_hub.install_fault_injector(
                FaultInjector(FaultPlan([FaultSpec("msr", "read_error", 0.0)]))
            )

    def test_proxy_passthrough_outside_window(self, a100_node, a100_hub):
        _armed(a100_hub, FaultSpec("msr", "read_error", 100.0))
        _tick(a100_node, a100_hub, 5)
        instr, cycles = a100_hub.msr.read_all_core_counters()
        assert instr.sum() > 0 and cycles.sum() > 0

    def test_unwrapped_attrs_reach_inner_device(self, a100_hub):
        _armed(a100_hub, FaultSpec("msr", "read_error", 100.0))
        assert a100_hub.pcm.bytes_total == 0.0
        assert a100_hub.msr.costs is not None


class TestInjectedFaults:
    def test_msr_read_error_raises_and_tags(self, a100_node, a100_hub):
        _armed(a100_hub, FaultSpec("msr", "read_error", 0.0, 10.0, count=1))
        _tick(a100_node, a100_hub)
        with pytest.raises(MSRAccessError) as err:
            a100_hub.msr.read_all_core_counters()
        assert err.value.fault_id == 1

    def test_failed_sweep_still_charges_full_cost(self, a100_node, a100_hub):
        _armed(a100_hub, FaultSpec("msr", "read_error", 0.0, 10.0, count=1))
        _tick(a100_node, a100_hub)
        meter = AccessMeter()
        with pytest.raises(MSRAccessError):
            a100_hub.msr.read_all_core_counters(meter)
        assert meter.counts["msr_read"] == 2 * a100_node.n_cores
        assert meter.time_s > 0

    def test_budget_consumed_then_healthy(self, a100_node, a100_hub):
        _armed(a100_hub, FaultSpec("msr", "read_error", 0.0, 10.0, count=2))
        _tick(a100_node, a100_hub)
        for _ in range(2):
            with pytest.raises(MSRAccessError):
                a100_hub.msr.read_all_core_counters()
        instr, _cycles = a100_hub.msr.read_all_core_counters()
        assert instr.sum() >= 0  # third access succeeds

    def test_pcm_dropout_raises(self, a100_node, a100_hub):
        _armed(a100_hub, FaultSpec("pcm", "dropout", 0.0, 10.0, count=1))
        _tick(a100_node, a100_hub)
        with pytest.raises(TelemetryError):
            a100_hub.pcm.read_throughput_mbps()
        assert a100_hub.pcm.read_throughput_mbps() >= 0.0

    def test_pcm_freeze_stalls_counter(self, a100_node, a100_hub):
        _armed(a100_hub, FaultSpec("pcm", "freeze", 0.05, 10.0))
        _tick(a100_node, a100_hub, 4)
        frozen_at = a100_hub.pcm.bytes_total
        assert frozen_at > 0  # traffic flowed before the freeze
        _tick(a100_node, a100_hub, 10)
        assert a100_hub.pcm.bytes_total == frozen_at

    def test_rapl_glitch_returns_reset_register(self, a100_node, a100_hub):
        _armed(a100_hub, FaultSpec("rapl", "glitch", 0.0, 10.0, count=1))
        _tick(a100_node, a100_hub, 5)
        assert a100_hub.rapl.energy_j("package") == 0.0
        assert a100_hub.rapl.energy_j("package") > 0.0  # budget spent

    def test_actuation_write_error_leaves_register(self, a100_node, a100_hub):
        _armed(a100_hub, FaultSpec("actuation", "write_error", 0.0, 10.0, count=1))
        _tick(a100_node, a100_hub)
        before = a100_node.uncore(0).target_ghz
        meter = AccessMeter()
        with pytest.raises(MSRAccessError):
            a100_hub.msr.set_uncore_max_ghz(1.5, meter)
        assert a100_node.uncore(0).target_ghz == before
        assert meter.counts.get("msr_write") == 1  # failed transaction still costs

    def test_wrap_injection_parks_counters_below_limit(self, a100_node, a100_hub):
        injector = _armed(a100_hub, FaultSpec("msr", "wrap", 0.03, 0.0))
        _tick(a100_node, a100_hub, 2)
        assert len(injector.injections) == 0
        _tick(a100_node, a100_hub, 1)  # crosses start_s
        instr, cycles = a100_hub.msr.read_all_core_counters()
        top = max(int(instr.max()), int(cycles.max()))
        # Injection parks the max counter 1e6 below 2^48; the rest of the
        # tick advances it a few 1e7 at most (possibly past the wrap).
        assert (1 << 48) - 1_000_000_000 < top < (1 << 48)
        assert [i.fault for i in injector.injections] == ["wrap"]
        # Within a handful of ticks the busiest counters wrap to small
        # values while slower cores are still approaching 2^48.
        _tick(a100_node, a100_hub, 40)
        instr, cycles = a100_hub.msr.read_all_core_counters()
        assert int(cycles.min()) < (1 << 47)

    def test_incident_log_reproducible(self, a100_preset):
        from repro.sim.rng import RngStreams
        from repro.telemetry.hub import TelemetryHub

        def campaign_log():
            node = a100_preset.build_node(RngStreams(0))
            hub = TelemetryHub(node, a100_preset.telemetry)
            log = IncidentLog()
            _armed(
                hub,
                FaultSpec("msr", "read_error", 0.0, 10.0, count=2),
                FaultSpec("pcm", "dropout", 0.02, 10.0, count=1),
                log=log,
            )
            _tick(node, hub, 5)
            for _ in range(3):
                try:
                    hub.msr.read_all_core_counters()
                except MSRAccessError:
                    pass
                try:
                    hub.pcm.read_throughput_mbps()
                except TelemetryError:
                    pass
            return log

        assert campaign_log() == campaign_log()


# ----------------------------------------------------------------------
# Supervisor layer (driven directly, no engine)
# ----------------------------------------------------------------------
def _supervised(a100_preset, *specs, config=None, governor="magus", tracer=None):
    from repro.sim.rng import RngStreams
    from repro.telemetry.hub import TelemetryHub

    node = a100_preset.build_node(RngStreams(0))
    node.force_uncore_all(a100_preset.uncore_min_ghz)
    hub = TelemetryHub(node, a100_preset.telemetry)
    log = IncidentLog()
    if specs:
        hub.install_fault_injector(FaultInjector(FaultPlan(specs), log=log))
    daemon = MonitorDaemon(make_governor(governor), hub, node, tracer=tracer)
    sup = SupervisedDaemon(daemon, config or SupervisorConfig(), log=log)
    return node, hub, daemon, sup


class TestSupervisorConfig:
    def test_defaults_valid(self):
        SupervisorConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_retries=-1),
            dict(backoff_base_s=-0.1),
            dict(backoff_factor=0.5),
            dict(rearm_cooldown_s=0.0),
            dict(max_rearms=0),
            dict(deadline_factor=0.0),
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(SupervisionError):
            SupervisorConfig(**kwargs)

    @pytest.mark.parametrize("field", [spec.name for spec in dataclasses.fields(SupervisorConfig)])
    def test_nan_rejected(self, field):
        # NaN passes every range check, so it must be refused by name.
        with pytest.raises(SupervisionError, match=f"{field} must not be NaN"):
            SupervisorConfig(**{field: float("nan")})

    def test_an_infinite_backoff_is_still_a_range_error(self):
        with pytest.raises(SupervisionError, match="backoff_base_s >= 0"):
            SupervisorConfig(backoff_base_s=-float("inf"))


class TestSupervisedCycle:
    def test_retry_recovers_transient(self, a100_preset):
        node, hub, daemon, sup = _supervised(
            a100_preset, FaultSpec("msr", "read_error", 0.0, 100.0, count=1),
            governor="ups",
        )
        _tick(node, hub, 5)
        sup.start(0.05)
        sup.invoke(0.05)
        assert not sup.degraded
        assert len(daemon.decisions) == 1
        outcomes = [i.outcome for i in sup.log.for_source("supervisor")]
        assert outcomes == ["retried", "recovered"]

    def test_retry_charges_failed_attempts_and_backoff(self, a100_preset):
        node, hub, daemon, sup = _supervised(
            a100_preset, FaultSpec("msr", "read_error", 0.0, 100.0, count=1),
            governor="ups",
        )
        _tick(node, hub, 5)
        sup.start(0.05)
        sup.invoke(0.05)
        # One failed sweep + one successful one, plus the backoff sleep:
        # strictly more than a clean single-sweep invocation.
        clean_node, clean_hub, clean_daemon, clean_sup = _supervised(
            a100_preset, governor="ups"
        )
        _tick(clean_node, clean_hub, 5)
        clean_sup.start(0.05)
        clean_sup.invoke(0.05)
        assert daemon.invocation_times_s[0] > clean_daemon.invocation_times_s[0]

    def test_exhausted_retries_fail_safe(self, a100_preset):
        node, hub, daemon, sup = _supervised(
            a100_preset,
            FaultSpec("msr", "read_error", 0.0, 100.0, count=None),
            config=SupervisorConfig(max_retries=2, rearm_cooldown_s=1.0),
            governor="ups",
        )
        _tick(node, hub, 5)
        sup.start(0.05)
        sup.invoke(0.05)
        assert sup.degraded and node.degraded
        assert sup.failsafe_count == 1
        assert daemon.decisions == []
        # Fail-safe pins the uncore at the vendor-default ceiling.
        for s in range(node.n_sockets):
            assert node.uncore(s).target_ghz == pytest.approx(node.uncore_max_ghz)
        assert node.monitor_power_w == 0.0
        # Failed attempts' energy is still accounted.
        assert daemon.monitor_energy_j > 0.0

    def test_failsafe_schedules_rearm(self, a100_preset):
        node, hub, daemon, sup = _supervised(
            a100_preset,
            FaultSpec("msr", "read_error", 0.0, 0.1, count=None),
            config=SupervisorConfig(max_retries=0, rearm_cooldown_s=2.0),
            governor="ups",
        )
        _tick(node, hub, 5)
        sup.start(0.05)
        sup.invoke(0.05)
        assert sup.degraded
        assert sup.next_fire_s() == pytest.approx(2.05)
        # Window is over by the re-arm time: the governor comes back.
        _tick(node, hub, 200)
        sup.invoke(2.05)
        assert not sup.degraded and not node.degraded
        assert sup.rearm_count == 1
        assert [i.outcome for i in sup.log.for_source("supervisor")][-1] == "rearmed"
        assert len(daemon.decisions) == 1

    def test_rearm_disabled_stays_degraded(self, a100_preset):
        node, hub, daemon, sup = _supervised(
            a100_preset,
            FaultSpec("msr", "read_error", 0.0, 100.0, count=None),
            config=SupervisorConfig(max_retries=0, rearm_cooldown_s=None),
            governor="ups",
        )
        _tick(node, hub, 5)
        sup.start(0.05)
        sup.invoke(0.05)
        assert sup.dead
        assert sup.next_fire_s() == float("inf")

    def test_crash_contained_without_retry(self, a100_preset):
        node, hub, daemon, sup = _supervised(a100_preset)

        def boom(now_s, meter):
            raise ValueError("policy bug")

        daemon.governor.sample_and_decide = boom
        _tick(node, hub, 5)
        sup.start(0.05)
        sup.invoke(0.05)
        assert sup.degraded
        incidents = sup.log.for_source("supervisor")
        assert incidents[0].action == "contain"
        assert incidents[0].outcome == "crashed"
        assert sup.failsafe_count == 1

    def test_watchdog_flags_slow_cycle(self, a100_preset):
        node, hub, daemon, sup = _supervised(
            a100_preset, config=SupervisorConfig(deadline_factor=1e-4), governor="ups"
        )
        _tick(node, hub, 5)
        sup.start(0.05)
        sup.invoke(0.05)
        assert sup.missed_deadlines == 1
        assert [i.outcome for i in sup.log.for_source("supervisor")] == ["missed"]

    def test_clean_cycle_logs_nothing(self, a100_preset):
        node, hub, daemon, sup = _supervised(a100_preset)
        _tick(node, hub, 5)
        sup.start(0.05)
        sup.invoke(0.05)
        assert len(sup.log) == 0
        assert len(daemon.decisions) == 1


class TestSupervisorObservability:
    def test_retry_counter_and_aborted_cycle_span(self, a100_preset):
        tracer = SpanTracer()
        node, hub, daemon, sup = _supervised(
            a100_preset, FaultSpec("msr", "read_error", 0.0, 100.0, count=1),
            governor="ups", tracer=tracer,
        )
        _tick(node, hub, 5)
        sup.start(0.05)
        sup.invoke(0.05)
        registry = derive_metrics(hub, daemon, sup)
        assert registry.counter("repro.supervisor.retries").value == 1.0
        cycles = tracer.named("daemon.cycle")
        # The failed attempt left an aborted span; the retry closed clean.
        assert [c.ok for c in cycles] == [False, True]

    def test_failsafe_and_missed_deadline_counters(self, a100_preset):
        node, hub, daemon, sup = _supervised(
            a100_preset,
            FaultSpec("msr", "read_error", 0.0, 100.0, count=None),
            config=SupervisorConfig(max_retries=1, rearm_cooldown_s=1.0),
            governor="ups",
        )
        _tick(node, hub, 5)
        sup.start(0.05)
        sup.invoke(0.05)
        registry = derive_metrics(hub, daemon, sup)
        assert registry.counter("repro.supervisor.failsafes").value == 1.0
        assert registry.counter("repro.daemon.failed_cycles").value >= 1.0

        node2, hub2, daemon2, sup2 = _supervised(
            a100_preset, config=SupervisorConfig(deadline_factor=1e-4), governor="ups",
        )
        _tick(node2, hub2, 5)
        sup2.start(0.05)
        sup2.invoke(0.05)
        registry2 = derive_metrics(hub2, daemon2, sup2)
        assert registry2.counter("repro.supervisor.missed_deadlines").value == 1.0


# ----------------------------------------------------------------------
# End to end through run_application
# ----------------------------------------------------------------------
class TestFaultedRuns:
    def test_campaign_completes_and_resolves_all_faults(self):
        log = IncidentLog()
        result = run_application(
            "intel_a100", "srad", make_governor("ups"),
            seed=1, max_time_s=12.0,
            fault_plan=standard_campaign(1, horizon_s=12.0),
            incident_log=log,
        )
        assert result.supervised
        assert len(result.incidents) > 0
        assert log.unresolved_fault_ids() == set()

    def test_same_seed_reproduces_incident_log(self):
        def one_run():
            log = IncidentLog()
            run_application(
                "intel_a100", "srad", make_governor("magus"),
                seed=1, max_time_s=12.0,
                fault_plan=standard_campaign(1, horizon_s=12.0),
                incident_log=log,
            )
            return log

        assert one_run() == one_run()

    def test_outage_degrades_then_rearms(self):
        result = run_application(
            "intel_a100", "srad", make_governor("magus"),
            seed=1, max_time_s=20.0,
            fault_plan=standard_campaign(1, horizon_s=20.0),
        )
        assert result.failsafe_count >= 1
        assert result.rearm_count >= 1
        assert result.degraded_time_s > 0.0
        # The degraded channel is recorded for later analysis.
        assert "supervisor_degraded" in result.traces
        assert result.traces["supervisor_degraded"].values.max() == 1.0
