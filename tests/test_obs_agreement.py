"""Cross-view agreement: every recorded metric and series matches its source.

A run's metrics registry and time-series store are views of what its
layers already keep: the decision list, the supervisor's and guard's
counts, the control backend's settling ticks. For faulted, guarded and
faulted + guarded runs with every observability output on, each derived
value here must equal the ``RunResult`` field or record it came from, and
a counter that would read zero must not exist at all.
"""

import pytest

from repro.faults.plan import silent_campaign, standard_campaign
from repro.guard.core import GUARD_DEVICES
from repro.obs.config import ObsConfig
from repro.obs.registry import Counter
from repro.runtime.session import make_governor, run_application
from repro.runtime.supervisor import SupervisorConfig

HORIZON_S = 8.0
OBS_ALL = ObsConfig(enabled=True, metrics=True, spans=True, tsdb=True)

#: leg name -> (preset, governor, run_application keywords)
LEGS = {
    "faulted": (
        "intel_max1550",
        "ups",
        {"fault_plan": standard_campaign(1, horizon_s=HORIZON_S), "supervise": True},
    ),
    "guarded": ("intel_a100", "magus", {"guard": True, "actuation_latency": "msr_fast"}),
    "faulted_guarded": (
        "intel_a100",
        "magus",
        {
            "fault_plan": silent_campaign(1, horizon_s=HORIZON_S),
            "supervisor_config": SupervisorConfig(rearm_cooldown_s=1.0),
            "guard": True,
            "actuation_latency": "gpu_dvfs",
        },
    ),
}


@pytest.fixture(scope="module", params=sorted(LEGS))
def leg(request):
    preset, governor, kwargs = LEGS[request.param]
    result = run_application(
        preset,
        "srad",
        make_governor(governor),
        seed=1,
        max_time_s=HORIZON_S,
        obs=OBS_ALL,
        **kwargs,
    )
    return request.param, result


def _count(registry, name):
    """A counter's value, asserting it is absent exactly when it would be zero."""
    inst = registry.get(name)
    if inst is None:
        return 0
    assert isinstance(inst, Counter), name
    assert inst.value > 0, f"{name} exists at zero"
    return inst.value


class TestCrossViewAgreement:
    def test_cycle_counters_match_decisions(self, leg):
        _name, r = leg
        actuations = sum(1 for d in r.decisions if d.target_ghz is not None)
        holds = len(r.decisions) - actuations
        assert _count(r.metrics, "repro.daemon.cycles") == len(r.decisions) > 0
        assert _count(r.metrics, "repro.daemon.actuations") == actuations
        assert _count(r.metrics, "repro.daemon.holds") == holds

    def test_supervisor_counters_match_result(self, leg):
        _name, r = leg
        retried = sum(
            1 for i in r.incidents if i.source == "supervisor" and i.outcome == "retried"
        )
        assert _count(r.metrics, "repro.supervisor.failsafes") == r.failsafe_count
        assert _count(r.metrics, "repro.supervisor.rearms") == r.rearm_count
        assert _count(r.metrics, "repro.supervisor.missed_deadlines") == r.missed_deadlines
        assert _count(r.metrics, "repro.supervisor.retries") == retried

    def test_guard_counters_match_result(self, leg):
        _name, r = leg
        assert _count(r.metrics, "repro.guard.quarantines") == r.guard_quarantines
        assert _count(r.metrics, "repro.guard.breaker_trips") == r.guard_breaker_trips
        assert _count(r.metrics, "repro.guard.refusals") == r.guard_refusals
        assert _count(r.metrics, "repro.guard.verify_failures") == r.guard_verify_failures

    def test_settling_ticks_match_result(self, leg):
        _name, r = leg
        assert (
            _count(r.metrics, "repro.actuation.settling_ticks") == r.actuation_settling_ticks
        )

    def test_quarantine_series_ends_at_per_device_count(self, leg):
        _name, r = leg
        for device in GUARD_DEVICES:
            n = r.guard_quarantines_by_device.get(device, 0)
            series = r.tsdb.get("repro.ts.guard.quarantines", {"device": device})
            if n == 0:
                assert series is None, device
            else:
                assert series.latest()[1] == n, device

    def test_decision_cause_series_sum_to_cycles(self, leg):
        _name, r = leg
        causes = r.tsdb.query("repro.ts.daemon.decision_cause")
        assert sum(s.latest()[1] for s in causes) == len(r.decisions)
        assert {dict(s.labels)["cause"] for s in causes} == {d.reason for d in r.decisions}

    def test_every_counter_is_nonzero(self, leg):
        _name, r = leg
        zero = [i.name for i in r.metrics if isinstance(i, Counter) and i.value == 0]
        assert zero == []

    def test_legs_are_not_vacuous(self, leg):
        name, r = leg
        if name == "faulted":
            assert r.failsafe_count > 0 and r.missed_deadlines > 0
        if name != "guarded":
            assert _count(r.metrics, "repro.supervisor.retries") > 0
        if name != "faulted":
            assert r.guarded and r.actuation_settling_ticks > 0
        if name == "faulted_guarded":
            assert r.rearm_count > 0 and r.guard_quarantines > 0
            assert r.guard_breaker_trips > 0 and r.guard_refusals > 0
            assert r.guard_verify_failures > 0
