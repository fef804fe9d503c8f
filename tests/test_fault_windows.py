"""FaultPlan window semantics, pinned.

These tests are the normative reference for the edge cases the
:class:`~repro.faults.plan.FaultSpec` docstring documents:

* access windows are half-open ``[start_s, end_s)`` — a zero-duration
  window never matches an access, and back-to-back windows on one device
  hand over exactly at the boundary (the boundary access belongs to the
  later window);
* point faults (``wrap``) fire at the first tick with ``now >= start_s``
  even when the duration is zero;
* overlap precedence is two-level: across kinds the device proxy asks in
  a fixed order (raising before silent), within one kind plan order wins
  (first spec with budget left);
* ``FaultSpec.silent`` derives from the per-device
  :data:`~repro.faults.plan.SILENT_KINDS_BY_DEVICE` table, which is
  validated against :data:`~repro.faults.plan.FAULT_KINDS` at import.

Times in the window tests use dt = 0.25 s so accumulated simulated time
is exact in binary floating point — boundary assertions here are exact
equality, not tolerance.
"""

import math

import pytest

import repro.faults.plan as plan_mod
from repro.errors import FaultInjectionError, TelemetryError
from repro.faults import (
    FAULT_KINDS,
    HUB_DEVICES,
    SILENT_KINDS,
    SILENT_KINDS_BY_DEVICE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    IncidentLog,
    silent_campaign,
    standard_campaign,
)
from repro.workloads.base import Segment

SEG = Segment(1.0, 20.0, mem_intensity=0.6, cpu_util=0.5, gpu_util=0.3)
DT = 0.25  # exactly representable: accumulated tick time has no fp error


def _tick(node, hub, n=1, dt_s=DT):
    for _ in range(n):
        node.step(dt_s, SEG)
        hub.on_tick(dt_s)


def _armed(hub, *specs, log=None):
    injector = FaultInjector(FaultPlan(specs), log=log)
    hub.install_fault_injector(injector)
    return injector


def _injections(log):
    return [i for i in log if i.source == "injector"]


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
class TestSpecValidation:
    def test_unknown_device_rejected(self):
        with pytest.raises(FaultInjectionError, match="unknown device"):
            FaultSpec("gpu", "stuck", 0.0)

    def test_kind_must_belong_to_the_device(self):
        with pytest.raises(FaultInjectionError, match="no fault kind"):
            FaultSpec("msr", "dropout", 0.0)  # dropout is a PCM kind

    @pytest.mark.parametrize("start,duration", [(-0.1, 1.0), (0.0, -0.1)])
    def test_negative_window_rejected(self, start, duration):
        with pytest.raises(FaultInjectionError, match="non-negative"):
            FaultSpec("pcm", "stuck", start, duration)

    @pytest.mark.parametrize("start,duration", [(math.nan, 1.0), (0.5, math.nan)])
    def test_nan_window_rejected(self, start, duration):
        # NaN passes the non-negative check, and a NaN window never fires.
        with pytest.raises(FaultInjectionError, match="must not be NaN"):
            FaultSpec("pcm", "freeze", start, duration)

    def test_infinite_window_accepted(self):
        assert FaultSpec("pcm", "stuck", 1.0, math.inf).end_s == math.inf

    @pytest.mark.parametrize("start", [math.inf, -math.inf])
    def test_infinite_start_rejected(self, start):
        # A window that opens at infinity never fires.
        with pytest.raises(FaultInjectionError, match="must start at a finite time"):
            FaultSpec("pcm", "stuck", start, 1.0)

    def test_campaign_over_an_infinite_horizon_rejected(self):
        with pytest.raises(FaultInjectionError, match="must start at a finite time"):
            standard_campaign(1, horizon_s=math.inf)

    def test_zero_count_rejected_but_none_is_unlimited(self):
        with pytest.raises(FaultInjectionError, match="count"):
            FaultSpec("pcm", "stuck", 0.0, count=0)
        assert FaultSpec("pcm", "stuck", 0.0, count=None).count is None

    def test_end_is_start_plus_duration(self):
        assert FaultSpec("pcm", "stuck", 1.5, 2.5).end_s == 4.0


# ----------------------------------------------------------------------
# The silent-kind table and FaultSpec.silent derivation
# ----------------------------------------------------------------------
class TestSilentDerivation:
    def test_every_spec_derives_silence_from_the_table(self):
        for device, kinds in FAULT_KINDS.items():
            for kind in kinds:
                spec = FaultSpec(device, kind, 0.0)
                assert spec.silent == (kind in SILENT_KINDS_BY_DEVICE[device]), (
                    device,
                    kind,
                )

    def test_raising_kinds_are_not_silent(self):
        assert not FaultSpec("msr", "read_error", 0.0).silent
        assert not FaultSpec("pcm", "dropout", 0.0).silent
        assert not FaultSpec("rapl", "read_error", 0.0).silent
        assert not FaultSpec("actuation", "write_error", 0.0).silent

    def test_guard_target_kinds_are_silent(self):
        assert FaultSpec("msr", "stuck", 0.0).silent
        assert FaultSpec("msr", "bias", 0.0).silent
        assert FaultSpec("pcm", "spike", 0.0).silent
        assert FaultSpec("rapl", "drift", 0.0).silent
        assert FaultSpec("actuation", "write_ignored", 0.0).silent

    def test_flat_view_is_the_sorted_union(self):
        assert SILENT_KINDS == tuple(
            sorted({k for kinds in SILENT_KINDS_BY_DEVICE.values() for k in kinds})
        )

    def test_table_is_valid_as_shipped(self):
        plan_mod._validate_silent_table()  # the import-time gate passes

    def test_missing_device_row_fails_validation(self, monkeypatch):
        monkeypatch.delitem(plan_mod.SILENT_KINDS_BY_DEVICE, "pcm")
        with pytest.raises(FaultInjectionError, match="devices"):
            plan_mod._validate_silent_table()

    def test_unknown_kind_in_a_row_fails_validation(self, monkeypatch):
        monkeypatch.setitem(
            plan_mod.SILENT_KINDS_BY_DEVICE, "pcm", frozenset({"bogus"})
        )
        with pytest.raises(FaultInjectionError, match="unknown kinds"):
            plan_mod._validate_silent_table()


# ----------------------------------------------------------------------
# Zero-duration windows
# ----------------------------------------------------------------------
class TestZeroDurationWindows:
    def test_zero_duration_access_window_never_fires(self, a100_node, a100_hub):
        # [0.5, 0.5) is empty under half-open semantics: even an access at
        # exactly start_s does not match.
        log = IncidentLog()
        _armed(a100_hub, FaultSpec("pcm", "stuck", 0.5, 0.0, count=None), log=log)
        for _ in range(4):  # reads at t = 0.25, 0.5, 0.75, 1.0
            _tick(a100_node, a100_hub)
            a100_hub.pcm.read_throughput_mbps()
        assert _injections(log) == []

    def test_zero_duration_freeze_never_activates(self, a100_node, a100_hub):
        log = IncidentLog()
        injector = _armed(a100_hub, FaultSpec("pcm", "freeze", 0.5, 0.0), log=log)
        before = a100_hub.pcm.bytes_total
        _tick(a100_node, a100_hub, 4)
        assert not injector.pcm_frozen()
        assert a100_hub.pcm.bytes_total > before  # the counter kept advancing
        assert _injections(log) == []

    def test_zero_duration_wrap_still_fires_as_a_point_fault(
        self, a100_node, a100_hub
    ):
        log = IncidentLog()
        _armed(a100_hub, FaultSpec("msr", "wrap", 0.5, 0.0), log=log)
        _tick(a100_node, a100_hub, 1)  # t = 0.25: not yet
        assert _injections(log) == []
        _tick(a100_node, a100_hub, 1)  # t = 0.50: first tick with now >= start
        (incident,) = _injections(log)
        assert incident.fault == "wrap"
        assert incident.time_s == 0.5
        instr, cycles = a100_hub.msr.read_all_core_counters()
        assert int(instr.max()) > 2**47  # counters sit just below 2^48


# ----------------------------------------------------------------------
# Half-open boundaries and back-to-back handover
# ----------------------------------------------------------------------
class TestBackToBackWindows:
    def test_boundary_access_belongs_to_the_later_window(
        self, a100_node, a100_hub
    ):
        # stuck owns [0.5, 0.75), spike owns [0.75, 1.0): the access at
        # exactly 0.75 is spike's, and the access at 1.0 is clean.
        log = IncidentLog()
        _armed(
            a100_hub,
            FaultSpec("pcm", "stuck", 0.5, 0.25, count=None),
            FaultSpec("pcm", "spike", 0.75, 0.25, count=None),
            log=log,
        )
        _tick(a100_node, a100_hub)  # t = 0.25
        clean = a100_hub.pcm.read_throughput_mbps()  # seeds last-returned
        _tick(a100_node, a100_hub)  # t = 0.50: stuck window opens
        assert a100_hub.pcm.read_throughput_mbps() == clean
        _tick(a100_node, a100_hub)  # t = 0.75: the boundary
        spiked = a100_hub.pcm.read_throughput_mbps()
        assert spiked > a100_hub.node.memory.peak_bw_gbps * 1e3  # impossible
        _tick(a100_node, a100_hub)  # t = 1.00: spike window closed
        a100_hub.pcm.read_throughput_mbps()
        assert [(i.fault, i.time_s) for i in _injections(log)] == [
            ("stuck", 0.5),
            ("spike", 0.75),
        ]

    def test_window_start_is_inclusive_end_is_exclusive(self, a100_node, a100_hub):
        log = IncidentLog()
        _armed(a100_hub, FaultSpec("pcm", "freeze", 0.5, 0.25), log=log)
        injector = a100_hub.fault_injector
        _tick(a100_node, a100_hub)  # t = 0.25
        assert not injector.pcm_frozen()
        _tick(a100_node, a100_hub)  # t = 0.50: entry, inclusive
        assert injector.pcm_frozen()
        _tick(a100_node, a100_hub)  # t = 0.75: end, exclusive
        assert not injector.pcm_frozen()


# ----------------------------------------------------------------------
# Overlap precedence
# ----------------------------------------------------------------------
class TestOverlapPrecedence:
    def test_raising_kind_wins_over_silent_regardless_of_plan_order(
        self, a100_node, a100_hub
    ):
        # The plan lists the silent kind first; the proxy still surfaces
        # the raising one (dropout before stuck in the PCM ask order).
        log = IncidentLog()
        _armed(
            a100_hub,
            FaultSpec("pcm", "stuck", 0.5, 1.0, count=None),
            FaultSpec("pcm", "dropout", 0.5, 1.0, count=1),
            log=log,
        )
        _tick(a100_node, a100_hub)  # t = 0.25
        clean = a100_hub.pcm.read_throughput_mbps()
        _tick(a100_node, a100_hub)  # t = 0.50: both windows active
        with pytest.raises(TelemetryError):
            a100_hub.pcm.read_throughput_mbps()
        # The dropout budget is spent: the same overlap now degrades to
        # the next kind in the ask order.
        _tick(a100_node, a100_hub)  # t = 0.75
        assert a100_hub.pcm.read_throughput_mbps() == clean
        assert [i.fault for i in _injections(log)] == ["dropout", "stuck"]

    def test_within_one_kind_plan_order_wins(self, a100_node, a100_hub):
        # Two overlapping stuck windows: the first *listed* spec is
        # consumed first, even though the second started earlier.
        log = IncidentLog()
        injector = _armed(
            a100_hub,
            FaultSpec("pcm", "stuck", 0.5, 1.5, count=1),
            FaultSpec("pcm", "stuck", 0.25, 1.75, count=1),
            log=log,
        )
        a100_hub.pcm.read_throughput_mbps()  # t = 0: clean seed read
        _tick(a100_node, a100_hub, 2)  # t = 0.50: both active
        a100_hub.pcm.read_throughput_mbps()
        assert injector._remaining == [0, 1]  # plan order, not start order
        _tick(a100_node, a100_hub)  # t = 0.75
        a100_hub.pcm.read_throughput_mbps()
        assert injector._remaining == [0, 0]
        _tick(a100_node, a100_hub)  # t = 1.00: both budgets spent
        a100_hub.pcm.read_throughput_mbps()
        assert len(_injections(log)) == 2

    def test_spent_budget_never_recharges(self, a100_node, a100_hub):
        log = IncidentLog()
        _armed(a100_hub, FaultSpec("pcm", "dropout", 0.25, 2.0, count=2), log=log)
        _tick(a100_node, a100_hub)
        for _ in range(2):
            with pytest.raises(TelemetryError):
                a100_hub.pcm.read_throughput_mbps()
            _tick(a100_node, a100_hub)
        # Still well inside the window, but the budget is gone.
        a100_hub.pcm.read_throughput_mbps()
        assert len(_injections(log)) == 2


# ----------------------------------------------------------------------
# Campaigns
# ----------------------------------------------------------------------
class TestCampaigns:
    def test_silent_campaign_is_all_silent(self):
        plan = silent_campaign(3)
        assert len(plan) == 10
        assert all(spec.silent for spec in plan)
        assert {spec.device for spec in plan} == set(HUB_DEVICES)

    def test_standard_campaign_mixes_raising_and_silent(self):
        plan = standard_campaign(3)
        assert any(spec.silent for spec in plan)
        assert any(not spec.silent for spec in plan)

    @pytest.mark.parametrize("factory", [silent_campaign, standard_campaign])
    def test_campaigns_are_seed_deterministic(self, factory):
        assert factory(5).describe() == factory(5).describe()
        assert factory(5).describe() != factory(6).describe()

    def test_generate_rejects_degenerate_arguments(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.generate(1, horizon_s=0.0)
        with pytest.raises(FaultInjectionError):
            FaultPlan.generate(1, n_faults=0)

    def test_describe_names_every_window(self):
        plan = FaultPlan(
            [FaultSpec("pcm", "stuck", 1.0, 2.0, count=None)], name="pin"
        )
        text = plan.describe()
        assert "pin: 1 fault windows" in text
        assert "pcm/stuck @ [1.00, 3.00)s x∞" in text
