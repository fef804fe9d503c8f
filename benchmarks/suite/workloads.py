"""The benchmark's four workloads: inputs from a seed, one iteration, checks.

Each workload is three functions. ``setup(seed)`` builds the inputs
(imports included, since users pay them too); ``run(inputs)`` is the
timed iteration; ``check(inputs, result)`` reduces the result to an
:class:`Outcome` outside the timed region: an output digest, the broken
invariants, the simulated counts and the simulated statistics.

Why these four (one workload exercises each optimisation on the ROADMAP,
and another bypasses it, so the prediction there is "no change"):

* ``single_magus_a100`` is the headline config. Node physics plus the MSR
  tick dominate each tick and the governor is negligible, so hot-path
  and trace-path changes show here.
* ``faulted_ups_max1550`` runs the same physics in a different shape (64
  cores, 90 phase segments) and is the only workload where faults, the
  guard, the supervisor, the latency backend and all three recording
  paths run. It guards the subtraction work.
* ``fleet_coordinated_64`` is many short runs on a narrow trace plus the
  coordinator's control loop. It is the target of batched node physics
  and of the journal merge.
* ``lint_project`` never touches the simulator, so every simulator
  optimisation predicts "no change" here. It is the only workload for
  the lint-stack collapse.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, List, Mapping

import numpy as np

__all__ = ["COUNT_NAMES", "Outcome", "Workload", "WORKLOADS"]

DT_S = 0.01

#: Simulated counts every workload reports (0 where a layer does not run).
COUNT_NAMES = (
    "runtime.daemon.cycles",
    "runtime.daemon.actuation_frac",
    "runtime.supervisor.retries",
    "runtime.supervisor.failsafes",
    "guard.quarantines",
    "faults.injected",
    "obs.tsdb.samples",
    "obs.alerts.fired",
    "coordinator.journal.records",
)


@dataclass
class Outcome:
    """One iteration's result, reduced to what the benchmark checks."""

    digest: str
    #: Units of work done: simulated 10 ms node-ticks, or files linted.
    work: int
    #: Broken workload invariants; empty when the iteration is correct.
    problems: List[str]
    #: Simulated counts (exact; reported as per-layer metrics).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Simulated statistics, printed as checks and never scored.
    stats: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in the module docstring and BENCHMARK.json."""

    name: str
    setup: Callable[[int], SimpleNamespace]
    run: Callable[[SimpleNamespace], object]
    check: Callable[[SimpleNamespace, object], Outcome]


def _digest(columns: Mapping[str, np.ndarray], decisions: object) -> str:
    """SHA-256 over sorted float64 columns plus a JSON list of decisions."""
    h = hashlib.sha256()
    for name in sorted(columns):
        h.update(name.encode())
        h.update(np.ascontiguousarray(columns[name], dtype=np.float64).tobytes())
    # json writes floats with repr, which round-trips exactly.
    h.update(json.dumps(decisions, sort_keys=True).encode())
    return h.hexdigest()


def _counts(values: Mapping[str, float]) -> Dict[str, float]:
    unknown = set(values) - set(COUNT_NAMES)
    if unknown:
        raise KeyError(f"unknown counts {sorted(unknown)}")
    return {name: float(values.get(name, 0.0)) for name in COUNT_NAMES}


def _counter(registry, name: str) -> float:
    inst = registry.get(name) if registry is not None else None
    return float(inst.value) if inst is not None else 0.0


# -- single runs --------------------------------------------------------------


def _single_inputs(seed: int, preset: str, workload: str) -> SimpleNamespace:
    from repro.hw.presets import get_preset
    from repro.runtime import session
    from repro.workloads.registry import get_workload

    return SimpleNamespace(
        session=session,
        preset=get_preset(preset),
        workload=get_workload(workload, seed=seed),
        seed=seed,
    )


def _magus_setup(seed: int) -> SimpleNamespace:
    return _single_inputs(seed, "intel_a100", "unet")


def _magus_run(s: SimpleNamespace):
    return s.session.run_application(
        s.preset, s.workload, s.session.make_governor("magus"), seed=s.seed, dt_s=DT_S
    )


def _faulted_setup(seed: int) -> SimpleNamespace:
    from repro.faults.plan import standard_campaign
    from repro.obs import ObsConfig

    s = _single_inputs(seed, "intel_max1550", "srad")
    s.plan = standard_campaign(seed)
    s.obs = ObsConfig(enabled=True, metrics=True, spans=True, tsdb=True)
    return s


def _faulted_run(s: SimpleNamespace):
    return s.session.run_application(
        s.preset,
        s.workload,
        s.session.make_governor("ups"),
        seed=s.seed,
        dt_s=DT_S,
        fault_plan=s.plan,
        supervise=True,
        guard=True,
        obs=s.obs,
        actuation_latency="msr_fast",
    )


def _check_single(s: SimpleNamespace, r) -> Outcome:
    columns = {}
    for name, series in r.traces.items():
        columns[f"{name}.t"] = series.times
        columns[name] = series.values
    decisions = [[d.time_s, d.target_ghz, d.reason] for d in r.decisions]
    cycles = len(r.decisions)
    actuations = sum(1 for d in r.decisions if d.target_ghz is not None)
    return Outcome(
        digest=_digest(columns, decisions),
        work=len(r.traces["pkg_w"]),
        problems=[] if r.completed else [f"run stopped at {r.runtime_s} s before completing"],
        counts=_counts(
            {
                "runtime.daemon.cycles": cycles,
                "runtime.daemon.actuation_frac": actuations / cycles if cycles else 0.0,
                "runtime.supervisor.retries": _counter(r.metrics, "repro.supervisor.retries"),
                "runtime.supervisor.failsafes": r.failsafe_count,
                "guard.quarantines": r.guard_quarantines,
                "faults.injected": sum(1 for i in r.incidents if i.source == "injector"),
                "obs.tsdb.samples": (
                    sum(len(series) for series in r.tsdb) if r.tsdb is not None else 0
                ),
            }
        ),
        stats={
            "runtime_s": r.runtime_s,
            "energy_j": r.total_energy_j,
            "mean_invocation_s": r.mean_invocation_s or 0.0,
        },
    )


# -- coordinated fleet --------------------------------------------------------

FLEET_NODES = 64
#: Job starts are staggered evenly over this much cluster time.
FLEET_STAGGER_S = 120.0
FLEET_JOB_HORIZON_S = 2.5
#: Share of the never-throttling budget the coordinator gets.
FLEET_BUDGET_FRAC = 0.7


def _fleet_setup(seed: int) -> SimpleNamespace:
    from repro.cluster.job import ClusterJob
    from repro.cluster.simulator import ClusterSimulator
    from repro.coordinator import fleet
    from repro.coordinator.config import safe_floor_w
    from repro.coordinator.journal import GrantJournal
    from repro.experiments import coordination
    from repro.faults.plan import coordinated_campaign
    from repro.obs.scrape import default_fleet_rules
    from repro.workloads.registry import SUITE_INTEL_A100

    jobs = []
    for i in range(FLEET_NODES):
        app = SUITE_INTEL_A100[i % len(SUITE_INTEL_A100)]
        jobs.append(
            ClusterJob(
                name=f"job{i:02d}-{app}",
                workload=app,
                start_time_s=FLEET_STAGGER_S * i / FLEET_NODES,
                seed=seed + i,
                max_time_s=FLEET_JOB_HORIZON_S,
            )
        )
    sim = ClusterSimulator("intel_a100", jobs)
    sim.idle_node_power_w(DT_S)
    horizon_s = max(job.start_time_s for job in jobs) + FLEET_JOB_HORIZON_S
    return SimpleNamespace(
        sim=sim,
        plan=coordinated_campaign(seed, horizon_s=horizon_s, n_nodes=FLEET_NODES),
        fleet=fleet,
        coordination=coordination,
        safe_floor_w=safe_floor_w,
        GrantJournal=GrantJournal,
        default_fleet_rules=default_fleet_rules,
    )


def _fleet_run(s: SimpleNamespace):
    demand = s.sim.run_fleet("magus", dt_s=DT_S, n_workers=1, obs=True, tsdb=True)
    floor = s.safe_floor_w(demand.idle_node_power_w)
    ample = s.fleet.ample_budget_w(demand, FLEET_NODES, floor)
    # The same floor guard run_coordination applies to budget fractions.
    budget = max(FLEET_BUDGET_FRAC * ample, FLEET_NODES * floor * 1.05)
    journal = s.GrantJournal()
    result = s.fleet.run_coordinated_fleet(
        s.sim,
        "magus",
        budget_w=budget,
        plan=s.plan,
        journal=journal,
        demand_fleet=demand,
        dt_s=DT_S,
        n_workers=1,
        obs=True,
        tsdb=True,
        alert_rules=s.default_fleet_rules(budget),
    )
    return SimpleNamespace(result=result, journal=journal)


def _check_fleet(s: SimpleNamespace, out) -> Outcome:
    r = out.result
    events = [
        [e.time_s, e.rule, e.severity, e.state, [list(kv) for kv in e.labels], e.value]
        for e in r.alerts.events
    ]
    problems = []
    if r.overshoot_ticks:
        problems.append(f"{r.overshoot_ticks} ticks with granted caps over the budget")
    score = s.coordination.score_coordination(r, out.journal)
    if score.journal_overshoot_ticks:
        problems.append(
            f"journal replay is over the budget at {score.journal_overshoot_ticks} ticks"
        )
    problems.extend(score.partition_floor_failures)
    # The journal must account exactly what the coordinator holds in memory,
    # except while a crash has wiped that memory: then the journal's leases
    # still run and the replay may only be higher.
    replayed = s.coordination.journal_granted_sums(
        out.journal, r.config, r.n_nodes, r.tick_times_s
    )
    down = np.zeros(r.tick_times_s.shape, dtype=bool)
    for spec in s.plan.specs:
        if spec.kind == "coordinator_crash":
            end = spec.start_s + max(spec.duration_s, r.config.restart_delay_s) + r.config.tick_s
            down |= (r.tick_times_s >= spec.start_s) & (r.tick_times_s < end)
    differs = replayed != r.granted_sum_w
    if (replayed < r.granted_sum_w).any() or differs[~down].any():
        problems.append(
            f"journal replay differs from the granted sum at {int(differs.sum())} ticks, "
            f"{int(differs[~down].sum())} of them outside a coordinator crash"
        )
    rollup = r.fleet.metrics_rollup()
    cycles = _counter(rollup, "repro.daemon.cycles")
    return Outcome(
        digest=_digest({"node_cap_w": r.node_cap_w, "granted_sum_w": r.granted_sum_w}, events),
        work=sum(round(o.runtime_s / DT_S) for o in r.fleet.outcomes),
        problems=problems,
        counts=_counts(
            {
                "runtime.daemon.cycles": cycles,
                "runtime.daemon.actuation_frac": (
                    _counter(rollup, "repro.daemon.actuations") / cycles if cycles else 0.0
                ),
                "obs.tsdb.samples": sum(len(series) for series in r.tsdb),
                "obs.alerts.fired": len(r.alerts.ever_fired()),
                "coordinator.journal.records": out.journal.grant_count(),
            }
        ),
        stats={
            "fleet_energy_j": r.fleet_energy_j,
            "peak_power_w": r.peak_power_w,
            "throttled_energy_j": r.throttled_energy_j,
        },
    )


# -- lint ---------------------------------------------------------------------

#: (tree, linted as its own package root): the fixture trees are anchored
#: exactly as tests/test_lintkit*.py anchor them.
LINT_TREES = (
    ("src/repro", False),
    ("tests/data/lint_fixtures", True),
    ("tests/data/lint_project_fixtures", True),
)


def _lint_setup(seed: int) -> SimpleNamespace:
    # The trees are fixed inputs; the seed has nothing to vary here.
    from repro import cli
    from repro.lintkit.loader import collect_files

    argvs = []
    for tree, own_root in LINT_TREES:
        argv = ["lint", tree, "--project", "--no-cache", "--no-baseline", "--format", "json"]
        argvs.append(argv + (["--package-root", tree] if own_root else []))
    files = collect_files([tree for tree, _ in LINT_TREES])
    return SimpleNamespace(cli=cli, argvs=argvs, n_files=len(files))


def _lint_run(s: SimpleNamespace):
    reports = []
    for argv in s.argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = s.cli.main(argv)
        reports.append((code, buf.getvalue()))
    return reports


def _check_lint(s: SimpleNamespace, reports) -> Outcome:
    problems = []
    found = []
    files = 0
    for (tree, own_root), (code, text) in zip(LINT_TREES, reports):
        report = json.loads(text)
        files += report["files"]
        keys = sorted((v["path"], v["line"], v["rule"]) for v in report["violations"])
        # The real tree must lint clean; each fixture tree must fire.
        if own_root and (code != 1 or not keys):
            problems.append(f"{tree}: expected violations, got exit {code}")
        if not own_root and (code != 0 or keys):
            problems.append(f"{tree}: not clean (exit {code}, {len(keys)} violations)")
        found.extend(keys)
    if files != s.n_files:
        problems.append(f"linted {files} files, expected {s.n_files}")
    return Outcome(
        digest=_digest({}, sorted(found)),
        work=files,
        problems=problems,
        counts=_counts({}),
        stats={"violations": len(found)},
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("single_magus_a100", _magus_setup, _magus_run, _check_single),
        Workload("faulted_ups_max1550", _faulted_setup, _faulted_run, _check_single),
        Workload("fleet_coordinated_64", _fleet_setup, _fleet_run, _check_fleet),
        Workload("lint_project", _lint_setup, _lint_run, _check_lint),
    )
}
