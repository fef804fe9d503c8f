"""Command-line interface.

Installed as ``python -m repro.cli`` (or via ``repro`` when packaged with
an entry point). Subcommands mirror the library's main workflows::

    repro list                                   # systems, workloads, governors
    repro run --system intel_a100 --workload unet --governor magus
    repro compare --system intel_a100 --workload srad --method magus --method ups
    repro overhead --system intel_a100 --governor ups --duration 120
    repro trace --workload srad --out trace.json # Chrome/Perfetto trace + slow cycles
    repro metrics --workload srad                # Prometheus dump + energy attribution
    repro suite --figure 4a                      # a Fig. 4 sweep
    repro experiments --quick                    # the full paper report
    repro experiments --trace-schema intel_a100  # the channels a run records
    repro resilience --seed 2 --check-repro      # fault campaign vs golden runs
    repro guard --seed 2 --gate-stuck-freeze     # silent-corruption detection coverage
    repro latency --preset gpu_dvfs              # switch-latency sensitivity report
    repro campaign run --outdir out --quick      # journaled, crash-resumable protocol
    repro campaign run --outdir out --resume     # skip journalled steps, rerun the rest
    repro fleet --job unet@0 --job bfs@5 --mtbf 300   # fleet under node failures
    repro coordinate --job sort@0 --job bfs@3 --gate  # leased power caps + chaos
    repro watch --job sort@0 --job bfs@3              # ASCII strip charts of the scrape
    repro alerts --job sort@0 --chaos uplink --gate   # SLO pack; exit 1 on a page
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.metrics import compare as compare_runs
from repro.analysis.report import format_table
from repro.backends.latency import LATENCY_PRESETS
from repro.errors import ReproError
from repro.hw.presets import PRESETS
from repro.runtime.overhead import measure_overhead
from repro.runtime.session import make_governor, run_application
from repro.workloads.registry import workload_names

__all__ = ["main", "build_parser"]

GOVERNORS = ("default", "static_max", "static_min", "ups", "magus")

#: Options several verbs share, declared once. A verb row names one by its
#: flag to take it as declared here, or as ``(flag, overrides)`` to change
#: its default or help text.
SHARED_OPTIONS: Dict[str, Dict[str, Any]] = {
    "--system": {"default": "intel_a100", "choices": sorted(PRESETS)},
    "--workload": {"default": "srad"},
    "--governor": {"default": "magus", "choices": GOVERNORS},
    "--seed": {"type": int, "default": 1},
    "--job": {"action": "append", "metavar": "WORKLOAD[@START]",
              "help": "workload name with optional start time, e.g. sort@0 bfs@3"},
    "--max-time": {"type": float, "metavar": "SECONDS", "help": "per-job simulation horizon"},
    "--duration": {"type": float, "help": "horizon in simulated seconds"},
    "--latency": {"default": None, "choices": sorted(LATENCY_PRESETS), "metavar": "PRESET"},
    "--budget": {"type": float, "default": None, "metavar": "WATTS",
                 "help": "explicit global power budget (default: --budget-frac of ample)"},
    "--budget-frac": {"type": float, "metavar": "FRACTION",
                      "help": "budget as a fraction of the ample (never-throttling) budget"},
    "--chaos": {"choices": ("none", "standard", "uplink"), "default": "none",
                "help": "control-plane fault campaign: the full coordinated mix, or "
                "the alert gate's single sustained uplink partition"},
    "--html": {"default": None, "metavar": "PATH", "help": "also export the static HTML dashboard"},
    "--json": {"action": "store_true"},
    "--out": {"default": None, "metavar": "PATH", "help": "also write the report to a file"},
    "--gate": {"action": "store_true"},
}

#: A verb's option: a shared flag, or ``(flag, keyword arguments)`` where the
#: arguments override a shared flag's declaration or declare a flag of its own.
Option = Union[str, Tuple[str, Dict[str, Any]]]


@dataclass(frozen=True)
class Verb:
    """One row of :data:`VERBS`: a subcommand, its options and its handler."""

    name: str
    help: str
    run: Optional[Callable[[argparse.Namespace], int]]
    options: Tuple[Option, ...] = ()
    #: Sub-verbs (``campaign run``, ``campaign status``); a verb with any
    #: has no handler of its own.
    sub: Tuple["Verb", ...] = ()


def _json(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


# ``_gate`` precedes its caller ``_report``: ``repro lint`` summarises
# functions in definition order, and a callee defined after its caller
# costs the whole tree one more summary pass.
def _gate(args, failures: Sequence[str], ok: str) -> int:
    """Under ``--gate``, each failure as a ``GATE:`` line on stderr and exit
    1, or ``gate: ok`` on stdout and exit 0."""
    if not getattr(args, "gate", False):
        return 0
    for failure in failures:
        print(f"GATE: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"gate: {ok}")
    return 0


def _report(
    args,
    text: str,
    payload: Optional[Callable[[], object]] = None,
    failures: Sequence[str] = (),
    ok: str = "",
) -> int:
    """Print a verb's report, write it to ``--out`` and apply ``--gate``.

    The report is ``text``, or under ``--json`` the JSON of what
    ``payload()`` returns (it is called only then). ``failures`` and ``ok``
    are the gate's verdict, see :func:`_gate`.
    """
    report = _json(payload()) if payload is not None and args.json else text
    if not report.endswith("\n"):
        report += "\n"
    print(report, end="")
    if getattr(args, "out", None):
        from repro.obs.exporters import write_text

        write_text(args.out, report)
    return _gate(args, failures, ok)


def _cmd_list(args) -> int:
    print(format_table(("system",), [(name,) for name in sorted(PRESETS)], title="Systems"))
    print()
    print(format_table(("governor",), [(g,) for g in GOVERNORS], title="Governors"))
    print()
    print(format_table(("workload",), [(w,) for w in workload_names()], title="Workloads"))
    return 0


def _cmd_run(args) -> int:
    result = run_application(
        args.system, args.workload, make_governor(args.governor),
        seed=args.seed, guard=args.guard,
    )
    lines = [
        ("workload", result.workload_name),
        ("system", result.system_name),
        ("governor", result.governor_name),
        ("completed", str(result.completed)),
        ("runtime (s)", f"{result.runtime_s:.2f}"),
        ("avg CPU power (W)", f"{result.avg_cpu_w:.1f}"),
        ("avg GPU power (W)", f"{result.avg_gpu_w:.1f}"),
        ("total energy (kJ)", f"{result.total_energy_j / 1000:.2f}"),
        ("decisions", str(len(result.decisions))),
    ]
    if result.guarded:
        lines.append(
            (
                "guard (quarantines/trips)",
                f"{result.guard_quarantines}/{result.guard_breaker_trips}",
            )
        )
    print(
        format_table(
            ("quantity", "value"),
            lines,
            title=f"{args.workload} on {args.system} under {args.governor}",
        )
    )
    return 0


def _cmd_compare(args) -> int:
    methods = args.method or ["magus", "ups"]
    baseline = run_application(args.system, args.workload, make_governor("default"), seed=args.seed)
    rows = []
    for method in methods:
        run = run_application(args.system, args.workload, make_governor(method), seed=args.seed)
        c = compare_runs(baseline, run)
        rows.append(
            (
                method,
                f"{c.performance_loss * 100:+.1f}%",
                f"{c.power_saving * 100:+.1f}%",
                f"{c.energy_saving * 100:+.1f}%",
            )
        )
    print(
        format_table(
            ("method", "perf loss", "power saving", "energy saving"),
            rows,
            title=f"{args.workload} on {args.system} vs default (seed {args.seed})",
        )
    )
    return 0


def _cmd_overhead(args) -> int:
    result = measure_overhead(
        args.system, make_governor(args.governor), duration_s=args.duration, seed=args.seed,
        actuation_latency=args.latency,
    )
    return _report(args, str(result), result.to_dict)


def _run_observed(args):
    """The run ``trace`` and ``metrics`` observe: one run with observability
    on (``--workload``), or a scraped, metered coordinated fleet (``--job``)."""
    if bool(args.workload) == bool(args.job):
        raise ReproError(
            f"repro {args.command}: pass exactly one of --workload (single run) "
            "or --job (coordinated fleet, repeatable)"
        )
    if args.job:
        if getattr(args, "latency", None) is not None:
            raise ReproError(
                f"repro {args.command}: --latency applies to a single run (--workload), "
                "not to a coordinated fleet (--job)"
            )
        from repro.cluster import ClusterSimulator
        from repro.coordinator.fleet import run_coordinated_fleet

        sim = ClusterSimulator(args.system, _parse_jobs(args.job, args.seed, args.max_time))
        return run_coordinated_fleet(sim, args.governor, obs=True, tsdb=True)
    from repro.obs import ObsConfig

    return run_application(
        args.system,
        args.workload,
        make_governor(args.governor),
        seed=args.seed,
        max_time_s=args.max_time,
        obs=ObsConfig(enabled=True),
        actuation_latency=getattr(args, "latency", None),
    )


def _opt(value, fmt: str) -> str:
    """Format an optional numeric span attribute for a table cell."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return format(value, fmt)
    return "-"


def _cmd_trace(args) -> int:
    from repro.obs.exporters import render_chrome_counter_trace, render_chrome_trace, write_text
    from repro.obs.report import slowest_cycles

    result = _run_observed(args)
    viewer = "open in chrome://tracing or https://ui.perfetto.dev"
    if args.job:
        write_text(args.out, render_chrome_counter_trace(result.tsdb))
        print(
            f"wrote {len(result.tsdb)} counter track(s) over "
            f"{result.tick_times_s.size} control tick(s) to {args.out} — {viewer}"
        )
        return 0
    write_text(
        args.out,
        render_chrome_trace(
            result.spans,
            process_name=f"{args.workload}@{args.system}/{args.governor}",
        ),
    )
    cycles = [s for s in result.spans if s.name == "daemon.cycle"]
    print(
        f"wrote {len(result.spans)} span(s) ({len(cycles)} decision cycle(s)) "
        f"to {args.out} — {viewer}"
    )
    rows = []
    for span in slowest_cycles(result.spans, args.top):
        a = span.attrs
        rows.append(
            (
                f"{span.start_s:.2f}",
                str(a.get("reason", "?")),
                _opt(a.get("invocation_s"), ".3f"),
                _opt(a.get("energy_j"), ".2f"),
                _opt(a.get("target_ghz"), ".2f"),
                _opt(a.get("trend_derivative"), ".1f"),
                _opt(a.get("high_freq_ratio"), ".2f"),
            )
        )
    if rows:
        print()
        print(
            format_table(
                (
                    "t (s)",
                    "reason",
                    "invocation (s)",
                    "energy (J)",
                    "target (GHz)",
                    "trend (MB/s²)",
                    "hi-freq ratio",
                ),
                rows,
                title=f"{len(rows)} slowest decision cycle(s)",
            )
        )
    return 0


def _cmd_metrics(args) -> int:
    from repro.obs.exporters import registry_to_dict, render_prometheus, write_text
    from repro.obs.report import attribute_decisions
    from repro.sim.trace import TimeSeries

    result = _run_observed(args)
    registry = result.metrics_rollup() if args.job else result.metrics
    if registry is None:
        raise ReproError("observability-enabled run returned no metrics registry")
    if args.format == "json":
        dump = _json(registry_to_dict(registry)) + "\n"
    else:
        dump = render_prometheus(registry)
    if args.out:
        write_text(args.out, dump)
        print(f"wrote {len(registry)} metric(s) to {args.out}")
    else:
        print(dump, end="" if dump.endswith("\n") else "\n")
    if args.job:
        return 0

    pkg = result.traces.get("pkg_w")
    dram = result.traces.get("dram_w")
    causes = []
    if pkg is not None and dram is not None and len(pkg) == len(dram):
        cpu_power = TimeSeries(pkg.times, pkg.values + dram.values, name="cpu_w")
        causes = attribute_decisions(result.decisions, cpu_power, result.runtime_s)
    if causes:
        rows = [
            (
                c.cause,
                str(c.decisions),
                f"{c.dwell_s:.1f}",
                f"{c.cpu_energy_j:.1f}",
                f"{c.delta_j:+.1f}",
                _opt(c.mean_target_ghz, ".2f"),
            )
            for c in causes
        ]
        print()
        print(
            format_table(
                ("cause", "decisions", "dwell (s)", "CPU energy (J)", "vs avg (J)", "mean GHz"),
                rows,
                title="energy by decision cause (negative = saved vs run average)",
            )
        )
    return 0


def _cmd_suite(args) -> int:
    from repro.experiments.fig4_end_to_end import format_fig4, run_fig4a, run_fig4b, run_fig4c

    runner = {"4a": run_fig4a, "4b": run_fig4b, "4c": run_fig4c}[args.figure]
    rows = runner(repeats=args.repeats, base_seed=args.seed)
    print(format_fig4(rows, f"Fig. {args.figure}"))
    return 0


def _parse_jobs(specs, seed: int, max_time_s: Optional[float] = None):
    """``WORKLOAD[@START]`` specs to :class:`ClusterJob`\\ s (shared syntax
    of every fleet-shaped verb)."""
    from repro.cluster import ClusterJob

    jobs = []
    for i, spec in enumerate(specs):
        name, _, start = spec.partition("@")
        jobs.append(
            ClusterJob(
                f"job{i}-{name}",
                name,
                float(start) if start else 0.0,
                seed=seed + i,
                max_time_s=max_time_s,
            )
        )
    return jobs


#: ``--chaos`` choice -> the ``chaos`` argument of ``run_coordination``.
_CHAOS = {"none": False, "standard": True, "uplink": "uplink"}


def _run_coordinated(args, **options):
    """The coordinated fleet run of ``coordinate``, ``watch`` and ``alerts``:
    the ``--job`` fleet under the budget of ``--budget``/``--budget-frac``."""
    from repro.experiments.coordination import run_coordination

    if not args.job:
        raise ReproError("at least one --job is required")
    return run_coordination(
        args.system,
        _parse_jobs(args.job, args.seed, args.max_time),
        args.governor,
        seed=args.seed,
        budget_frac=args.budget_frac,
        budget_w=args.budget,
        **options,
    )


def _write_dashboard(args, result) -> None:
    if not args.html:
        return
    from repro.obs.dashboard import render_dashboard_html
    from repro.obs.exporters import write_text

    write_text(
        args.html,
        render_dashboard_html(
            result.tsdb,
            result.alerts,
            title=f"{args.system} / {args.governor} (seed {args.seed}, "
            f"chaos {args.chaos})",
        ),
    )
    print(f"wrote dashboard to {args.html}")


def _cmd_watch(args) -> int:
    from repro.analysis.ascii_plot import tsdb_strip_chart
    from repro.obs.scrape import DEFAULT_WATCH_SERIES, SERIES_CATALOGUE

    if args.list_series:
        print(
            format_table(
                ("series", "meaning"),
                sorted(SERIES_CATALOGUE.items()),
                title="scrape series catalogue",
            )
        )
        return 0
    unknown = sorted(set(args.series or ()) - set(SERIES_CATALOGUE))
    if unknown:
        raise ReproError(
            f"unknown series {', '.join(unknown)}; `repro watch --list-series` "
            "prints the catalogue"
        )
    result, _ = _run_coordinated(args, chaos=_CHAOS[args.chaos], tsdb=True)
    names = args.series or DEFAULT_WATCH_SERIES
    print(
        f"{args.system} / {args.governor}: {result.n_nodes} node(s), "
        f"budget {result.config.budget_w:.0f} W, chaos {args.chaos} "
        f"(seed {args.seed})"
    )
    print()
    print(tsdb_strip_chart(result.tsdb, names, width=args.width))
    _write_dashboard(args, result)
    return 0


def _cmd_alerts(args) -> int:
    from repro.obs.exporters import write_text
    from repro.obs.scrape import default_fleet_rules

    result, _ = _run_coordinated(
        args, chaos=_CHAOS[args.chaos], tsdb=True, alert_rules=default_fleet_rules
    )
    engine = result.alerts
    document = _json(engine.to_dict())
    pages = engine.ever_fired("page")
    if args.json:
        print(document)
    else:
        rows = [
            (
                f"{ev.time_s:.2f}",
                ev.rule,
                "{" + ",".join(f"{k}={v}" for k, v in ev.labels) + "}"
                if ev.labels
                else "-",
                ev.severity,
                ev.state,
                ev.detail,
            )
            for ev in engine.events
        ]
        title = (
            f"alert transitions ({len(pages)} page(s), "
            f"{len(engine.ever_fired('warn'))} warn(s) "
            f"fired; {len(engine.firing())} still firing)"
        )
        if rows:
            print(
                format_table(
                    ("t (s)", "rule", "labels", "severity", "state", "detail"),
                    rows,
                    title=title,
                )
            )
        else:
            print(f"{title}\nno alert transitions")
    # --out is always the JSON document: CI compares two of them byte for byte.
    if args.out:
        write_text(args.out, document + "\n")
        print(f"wrote alerts JSON to {args.out}")
    _write_dashboard(args, result)
    return _gate(
        args,
        [f"page {ev.rule} fired at t={ev.time_s:.2f}s ({ev.detail})" for ev in pages],
        "no page-severity alert fired",
    )


def _cmd_fleet(args) -> int:
    from repro.cluster import ClusterSimulator, NodeFailureModel, compare_fleets
    from repro.cluster.simulator import check_fleet_budget

    if args.budget is not None:
        check_fleet_budget(args.budget)
    model = None
    if args.mtbf is not None:
        model = NodeFailureModel(
            mtbf_s=args.mtbf,
            seed=args.seed,
            restart_delay_s=args.restart_delay,
            lost_work_fraction=args.lost_work,
        )
    sim = ClusterSimulator(args.system, _parse_jobs(args.job, args.seed), n_nodes=args.nodes)
    baseline = sim.run_fleet("default", failure_model=model)
    method = sim.run_fleet(args.governor, failure_model=model)
    comparison = compare_fleets(baseline, method, budget_w=args.budget)
    tables = [
        format_table(
            ("policy", "peak power (W)", "fleet energy (kJ)", "makespan (s)", "queue wait (s)"),
            [
                (
                    f.governor,
                    f"{f.peak_power_w:.0f}",
                    f"{f.fleet_energy_j / 1000:.1f}",
                    f"{f.makespan_s:.1f}",
                    f"{f.total_queue_wait_s:.1f}",
                )
                for f in (baseline, method)
            ],
            title=f"{sim.n_nodes}-node fleet on {args.system}",
        )
    ]
    if model is not None:
        tables.append(
            format_table(
                (
                    "policy", "node deaths", "lost work (s)", "wasted energy (kJ)",
                    "restart delay (s)",
                ),
                [
                    (
                        f.governor,
                        str(f.n_failures),
                        f"{f.lost_work_s:.1f}",
                        f"{f.wasted_energy_j / 1000:.2f}",
                        f"{f.total_restart_delay_s:.1f}",
                    )
                    for f in (baseline, method)
                ],
                title=f"churn under MTBF {args.mtbf:.0f}s (failure seed {args.seed})",
            )
        )
    tables.append(str(comparison))
    return _report(
        args,
        "\n".join(tables),
        lambda: {
            "baseline": baseline.summary_dict(args.budget),
            "method": method.summary_dict(args.budget),
            "comparison": comparison.to_dict(),
        },
    )


def _cmd_coordinate(args) -> int:
    from repro.errors import ExperimentError
    from repro.experiments.coordination import (
        assert_coordination_safe,
        coordination_row_dict,
        format_coordination,
    )

    _, score = _run_coordinated(args, chaos=not args.no_chaos, journal_path=args.journal)
    failures = []
    try:
        assert_coordination_safe(score)
    except ExperimentError as exc:
        failures.append(str(exc))
    return _report(
        args,
        format_coordination(score),
        lambda: coordination_row_dict(score),
        failures,
        "granted caps never exceeded the budget on any tick; "
        "partitioned nodes reverted to the safe floor in time",
    )


def _cmd_campaign_run(args) -> int:
    from repro.campaign import run_campaign

    result = run_campaign(
        args.outdir,
        seed=args.seed,
        quick=args.quick,
        resume=args.resume,
        steps=args.steps.split(",") if args.steps else None,
        progress=print,
    )
    print(
        f"campaign complete: {len(result.executed)} step(s) ran, "
        f"{len(result.skipped)} cached; journal at {result.journal_path}"
    )
    return 0


def _cmd_campaign_status(args) -> int:
    from repro.campaign import JOURNAL_NAME, Journal

    journal = Journal(f"{args.outdir}/{JOURNAL_NAME}")
    entries = journal.entries()
    if not entries:
        print(f"no journal at {journal.path}")
        return 0
    print(
        format_table(
            ("step", "key", "artefacts", "duration (s)"),
            [
                (e.step, e.key[:12], ", ".join(e.artefacts), f"{e.duration_s:.1f}")
                for e in entries
            ],
            title=f"campaign journal ({journal.path})",
        )
    )
    return 0


def _cmd_resilience(args) -> int:
    from repro.experiments.resilience import (
        DEFAULT_GOVERNORS,
        format_resilience,
        resilience_row_dict,
        run_resilience,
    )
    from repro.faults.plan import standard_campaign

    plan = standard_campaign(args.seed, horizon_s=args.duration)
    rows = run_resilience(
        args.system,
        args.workload,
        governors=tuple(args.governor) if args.governor else DEFAULT_GOVERNORS,
        seed=args.seed,
        max_time_s=args.duration,
        plan=plan,
        check_reproducibility=args.check_repro,
        guard=args.guard,
    )
    text = format_resilience(rows, plan=plan)
    if args.incidents:
        from repro.faults.incidents import IncidentLog

        for row in rows:
            log = IncidentLog()
            for incident in row.incidents:
                log.append(incident)
            text += f"\n\n{row.governor} incident log:\n{log.format()}"
    return _report(args, text, lambda: [resilience_row_dict(r) for r in rows])


def _cmd_guard(args) -> int:
    from repro.experiments.resilience import (
        DETECTION_GOVERNORS,
        detection_row_dict,
        format_detection_coverage,
        run_detection_coverage,
        undetected_stuck_freeze,
    )

    rows = run_detection_coverage(
        args.system,
        args.workload,
        governors=tuple(args.governor) if args.governor else DETECTION_GOVERNORS,
        seed=args.seed,
        max_time_s=args.duration,
    )
    return _report(
        args,
        format_detection_coverage(rows),
        lambda: [detection_row_dict(r) for r in rows],
        [
            f"{governor} missed {window.device}/{window.kind} "
            f"[{window.start_s:.1f}, {window.end_s:.1f})s "
            f"({window.injections} corrupted access(es))"
            for governor, window in undetected_stuck_freeze(rows)
        ],
        "every fired stuck/freeze window >= 3 decision periods was detected",
    )


def _cmd_latency(args) -> int:
    from repro.experiments.actuation import (
        DEFAULT_GOVERNORS,
        format_latency_delta,
        run_latency_delta,
    )

    rows = run_latency_delta(
        args.system,
        args.workload,
        governors=tuple(args.governor) if args.governor else DEFAULT_GOVERNORS,
        preset=args.preset,
        seed=args.seed,
        max_time_s=args.duration,
    )
    return _report(args, format_latency_delta(rows))


def _cmd_verify(args) -> int:
    from repro.experiments.paper import format_verification, verify_reproduction

    results = verify_reproduction(seed=args.seed, quick=not args.full)
    print(format_verification(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_lint(args) -> int:
    from repro.lintkit import (
        Baseline,
        format_json,
        format_text,
        lint_project,
        load_baseline,
        rule_catalogue,
        save_baseline,
    )

    if args.list_rules:
        print(
            format_table(
                ("code", "name", "protects"),
                rule_catalogue(),
                title="repro lint rules",
            )
        )
        return 0
    violations, n_files, stats = lint_project(args.paths, root=args.package_root)
    stats_dict = stats.to_dict()
    if args.call_graph_dump:
        with open(args.call_graph_dump, "w") as fh:
            json.dump(stats_dict, fh, indent=2)
            fh.write("\n")
    if args.update_baseline:
        n = save_baseline(args.baseline, violations)
        print(f"baseline {args.baseline} rewritten with {n} entr{'y' if n == 1 else 'ies'}")
        return 0
    baseline = Baseline() if args.no_baseline else load_baseline(args.baseline)
    new = baseline.filter_new(violations)
    if args.format == "json":
        report = format_json(new, n_files, project_stats=stats_dict)
    else:
        report = format_text(new, n_files)
    _report(args, report)
    return 1 if new else 0


def _cmd_experiments(args) -> int:
    from repro.experiments.runner import describe_trace_schema, run_all

    if args.trace_schema is not None:
        print(describe_trace_schema(args.trace_schema))
        return 0
    for report in run_all(quick=args.quick, seed=args.seed):
        print(report)
    return 0


def _arg(flag: str, **declaration: Any) -> Option:
    """A table option: a shared flag's overrides, or a flag of the verb's own."""
    return (flag, declaration)


def _switch(flag: str, help: str, **declaration: Any) -> Option:
    """A ``store_true`` table option."""
    return (flag, {"action": "store_true", "help": help, **declaration})


_FLEET_SEED = _arg("--seed", help="job seed; also seeds the chaos campaign")
_RUN_SEED = _arg("--seed", help="run seed; also seeds the campaign")
#: The options ``watch`` and ``alerts`` share, in their order.
_SCRAPE_OPTIONS: Tuple[Option, ...] = (
    "--system", "--job", _arg("--governor", default="default"), _FLEET_SEED, "--budget",
    _arg("--budget-frac", default=1.0), _arg("--max-time", default=20.0), "--chaos", "--html",
)
_REQUIRED_WORKLOAD = _arg("--workload", required=True, default=None)

#: Every verb of ``repro``, in the order ``repro --help`` lists them.
VERBS: Tuple[Verb, ...] = (
    Verb("list", "list systems, workloads and governors", _cmd_list),
    Verb("run", "run one workload under one governor", _cmd_run, (
        "--system", _REQUIRED_WORKLOAD, "--governor", "--seed",
        _switch("--guard", "install the telemetry-integrity guard (validated reads, "
                "write-verified actuation, per-device circuit breakers)"),
    )),
    Verb("compare", "compare methods against the default baseline", _cmd_compare, (
        "--system", _REQUIRED_WORKLOAD,
        _arg("--method", action="append", default=None, choices=GOVERNORS), "--seed",
    )),
    Verb("overhead", "idle overhead measurement (Table 2 procedure)", _cmd_overhead, (
        "--system", _arg("--governor", choices=("magus", "ups")),
        _arg("--duration", default=120.0, help=None), "--seed",
        _arg("--latency", help="switch-latency preset for the managed run's control backend"),
        _arg("--json", help="machine-readable OverheadResult row"),
    )),
    Verb("trace", "decision-attributed Chrome trace of one run (open in Perfetto)", _cmd_trace, (
        "--system", _arg("--workload", default=None, help="single-run mode: the workload to trace"),
        _arg("--job", help="coordinated-fleet mode (repeatable): trace the fleet scrape "
             "as Chrome counter tracks instead of one run's spans"),
        "--governor", "--seed", _arg("--max-time", default=600.0, help=None),
        _arg("--out", default="trace.json", help=None),
        _arg("--top", type=int, default=10, metavar="N", help="slowest cycles to tabulate"),
    )),
    Verb("metrics", "run metrics (Prometheus/JSON) + by-cause energy attribution", _cmd_metrics, (
        "--system", _arg("--workload", default=None, help="single-run mode: the workload to meter"),
        _arg("--job", help="coordinated-fleet mode (repeatable): dump the coordinator + "
             "per-job metrics rollup instead of one run's registry"),
        "--governor", "--seed", _arg("--max-time", default=600.0, help=None),
        _arg("--latency",
             help="switch-latency preset; its charges appear in the actuation metrics"),
        _arg("--format", choices=("prom", "json"), default="prom"),
        _arg("--out",
             help="write the metrics dump to a file (e.g. metrics.prom) instead of stdout"),
    )),
    Verb("suite", "run one Fig. 4 end-to-end sweep", _cmd_suite, (
        _arg("--figure", default="4a", choices=("4a", "4b", "4c")),
        _arg("--repeats", type=int, default=1), "--seed",
    )),
    Verb("experiments", "run the full paper report", _cmd_experiments, (
        _switch("--quick", "reduced sweeps for a fast pass"), "--seed",
        _arg("--trace-schema", metavar="PRESET", choices=sorted(PRESETS),
             help="print the trace-channel schema recorded for PRESET and exit"),
    )),
    Verb("fleet", "aggregate power of a job fleet (§6.1 budget argument)", _cmd_fleet, (
        "--system",
        _arg("--job", required=True,
             help="workload name with optional start time, e.g. unet@0 bfs@5"),
        _arg("--nodes", type=int, default=None, help="fleet size (default: one per job)"),
        "--governor", _arg("--budget", metavar=None, help="power budget in watts"), "--seed",
        _arg("--mtbf", type=float, default=None, metavar="SECONDS",
             help="enable the node-failure model with this per-node MTBF"),
        _arg("--restart-delay", type=float, default=5.0, metavar="SECONDS",
             help="checkpoint-restart delay after a node death (with --mtbf)"),
        _arg("--lost-work", type=float, default=1.0, metavar="FRACTION",
             help="fraction of a killed segment's work lost (1.0 = no checkpointing)"),
        _arg("--json", help="machine-readable baseline/method summaries + comparison "
             "(schema shared with 'repro coordinate --json')"),
    )),
    Verb("coordinate", "fleet under the cluster power-budget coordinator with "
         "control-plane chaos (leased caps, never-exceed invariant)", _cmd_coordinate, (
        "--system", _arg("--job", required=True), _arg("--governor", default="default"),
        _FLEET_SEED, "--budget", _arg("--budget-frac", default=0.85),
        _arg("--max-time", default=60.0),
        _switch("--no-chaos", "skip the coordinated control-plane fault campaign"),
        _arg("--journal", default=None, metavar="PATH", help="write the fsynced grant "
             "journal to this file (an existing one is replaced)"),
        _arg("--json", help="machine-readable invariant scorecard instead of the report"),
        _arg("--gate", help="exit 1 on any budget-overshoot tick or fail-safe miss "
             "(the control-plane-chaos CI gate)"),
        "--out",
    )),
    Verb("watch", "scrape a coordinated fleet into the time-series store and "
         "render ASCII strip charts", _cmd_watch, (
        *_SCRAPE_OPTIONS,
        _arg("--series", action="append", default=None, metavar="NAME",
             help="series to chart (repeatable; default: the standard watch set)"),
        _arg("--width", type=int, default=72, help="characters per sparkline"),
        _switch("--list-series", "print the scrape series catalogue and exit"),
    )),
    Verb("alerts", "evaluate the fleet SLO alert pack over a coordinated run "
         "(burn rates, staleness, anomalies on the simulated clock)", _cmd_alerts, (
        *_SCRAPE_OPTIONS,
        _arg("--json", help="machine-readable rules + event stream instead of the table"),
        _arg("--out", help="also write the alerts JSON to a file"),
        _arg("--gate", help="exit 1 if any page-severity alert fired (the alert-gate CI job)"),
    )),
    Verb("campaign", "journaled, crash-resumable runs of the paper protocol", None, sub=(
        Verb("run", "run (or resume) a campaign", _cmd_campaign_run, (
            _arg("--outdir", required=True, help="campaign directory (artefacts + journal)"),
            "--seed", _switch("--quick", "reduced protocol"),
            _switch("--resume", "skip steps whose journal entry and artefacts are still valid"),
            _arg("--steps", default=None, metavar="NAME[,NAME...]",
                 help="comma-separated subset of steps (default: all)"),
        )),
        Verb("status", "show the campaign journal", _cmd_campaign_status, (
            _arg("--outdir", required=True, help="campaign directory"),
        )),
    )),
    Verb("resilience", "governors under a seeded fault campaign vs fault-free golden runs",
         _cmd_resilience, (
        "--system", "--workload",
        _arg("--governor", action="append", default=None,
             help="governors to compare (default: magus, ups, default)"),
        _RUN_SEED, _arg("--duration", default=20.0),
        _switch("--check-repro", "re-run each faulted leg and require an identical incident log"),
        _switch("--incidents", "print the full incident logs"),
        _switch("--guard", "run both legs of every pair with the telemetry guard installed"),
        _arg("--json", help="machine-readable rows instead of the table"), "--out",
    )),
    Verb("guard", "silent-corruption detection coverage of the telemetry guard", _cmd_guard, (
        "--system", "--workload",
        _arg("--governor", action="append", default=None,
             help="governors to score (default: magus, ups)"),
        _RUN_SEED, _arg("--duration", default=20.0),
        _arg("--json", help="machine-readable scorecards instead of the table"),
        _switch("--gate-stuck-freeze", "exit 1 if any fired stuck/freeze window at least 3 "
                "decision periods long went undetected (the chaos-CI gate)", dest="gate"),
        "--out",
    )),
    Verb("latency", "governor sensitivity to modeled frequency-switch latency", _cmd_latency, (
        "--system", "--workload",
        _arg("--governor", action="append", default=None,
             help="governors to compare (default: magus, static_max)"),
        _arg("--preset", default="gpu_dvfs", choices=sorted(LATENCY_PRESETS),
             help="switch-latency distribution to model"),
        _arg("--seed", help="run seed; also seeds the latency draws"),
        _arg("--duration", default=60.0), "--out",
    )),
    Verb("verify", "check every encoded paper claim", _cmd_verify, (
        _switch("--full", "full Fig. 4a suite + 10-min idle runs"), "--seed",
    )),
    Verb("lint", "AST invariant checks: determinism, MSR safety, units, meters, pickling, "
         "seed provenance, worker shared state", _cmd_lint, (
        _arg("paths", nargs="*", default=["src"], help="files/directories to check (default: src)"),
        _arg("--format", choices=("text", "json"), default="text"),
        _arg("--baseline", default="lint-baseline.json", metavar="PATH",
             help="baseline file of accepted violations (missing file = empty)"),
        _switch("--no-baseline", "report every violation, baseline ignored"),
        _switch("--update-baseline", "rewrite the baseline from the current violations and exit 0"),
        "--out", _switch("--list-rules", "print the rule catalogue and exit"),
        _arg("--package-root", default=None, metavar="DIR",
             help="directory standing in for the repro package root (fixture trees)"),
        _arg("--call-graph-dump", default=None, metavar="PATH",
             help="write call-graph construction stats as JSON"),
        # Kept so existing invocations still parse: every run is whole-program
        # and nothing is cached.
        _switch("--project", "no-op: every run is whole-program"),
        _switch("--no-cache", "no-op: there is no parse cache"),
    )),
)


def _add_verbs(sub, verbs: Sequence[Verb]) -> None:
    """One subparser per verb, its options declared from its row."""
    for verb in verbs:
        parser = sub.add_parser(verb.name, help=verb.help)
        for option in verb.options:
            flag, overrides = (option, {}) if isinstance(option, str) else option
            parser.add_argument(flag, **{**SHARED_OPTIONS.get(flag, {}), **overrides})
        if verb.sub:
            nested = parser.add_subparsers(dest=f"{verb.name}_command", required=True)
            _add_verbs(nested, verb.sub)
        else:
            parser.set_defaults(run=verb.run)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    _add_verbs(parser.add_subparsers(dest="command", required=True), VERBS)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed early (``repro lint --list-rules |
        # head``); that is their prerogative, not an error. Reopen stdout
        # on devnull so interpreter shutdown does not re-raise on flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
