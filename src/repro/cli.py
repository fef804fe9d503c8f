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
import os
import sys
from typing import List, Optional

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


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list systems, workloads and governors")

    run_p = sub.add_parser("run", help="run one workload under one governor")
    run_p.add_argument("--system", default="intel_a100", choices=sorted(PRESETS))
    run_p.add_argument("--workload", required=True)
    run_p.add_argument("--governor", default="magus", choices=GOVERNORS)
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument(
        "--guard", action="store_true",
        help="install the telemetry-integrity guard (validated reads, "
        "write-verified actuation, per-device circuit breakers)",
    )

    cmp_p = sub.add_parser("compare", help="compare methods against the default baseline")
    cmp_p.add_argument("--system", default="intel_a100", choices=sorted(PRESETS))
    cmp_p.add_argument("--workload", required=True)
    cmp_p.add_argument("--method", action="append", default=None, choices=GOVERNORS)
    cmp_p.add_argument("--seed", type=int, default=1)

    ovh_p = sub.add_parser("overhead", help="idle overhead measurement (Table 2 procedure)")
    ovh_p.add_argument("--system", default="intel_a100", choices=sorted(PRESETS))
    ovh_p.add_argument("--governor", default="magus", choices=("magus", "ups"))
    ovh_p.add_argument("--duration", type=float, default=120.0)
    ovh_p.add_argument("--seed", type=int, default=1)
    ovh_p.add_argument(
        "--latency", default=None, choices=sorted(LATENCY_PRESETS), metavar="PRESET",
        help="switch-latency preset for the managed run's control backend",
    )
    ovh_p.add_argument(
        "--json", action="store_true", help="machine-readable OverheadResult row"
    )

    trace_p = sub.add_parser(
        "trace", help="decision-attributed Chrome trace of one run (open in Perfetto)"
    )
    trace_p.add_argument("--system", default="intel_a100", choices=sorted(PRESETS))
    trace_p.add_argument(
        "--workload", default=None, help="single-run mode: the workload to trace"
    )
    trace_p.add_argument(
        "--job", action="append", default=None, metavar="WORKLOAD[@START]",
        help="coordinated-fleet mode (repeatable): trace the fleet scrape "
        "as Chrome counter tracks instead of one run's spans",
    )
    trace_p.add_argument("--governor", default="magus", choices=GOVERNORS)
    trace_p.add_argument("--seed", type=int, default=1)
    trace_p.add_argument("--max-time", type=float, default=600.0, metavar="SECONDS")
    trace_p.add_argument("--out", default="trace.json", metavar="PATH")
    trace_p.add_argument(
        "--top", type=int, default=10, metavar="N", help="slowest cycles to tabulate"
    )

    met_p = sub.add_parser(
        "metrics", help="run metrics (Prometheus/JSON) + by-cause energy attribution"
    )
    met_p.add_argument("--system", default="intel_a100", choices=sorted(PRESETS))
    met_p.add_argument(
        "--workload", default=None, help="single-run mode: the workload to meter"
    )
    met_p.add_argument(
        "--job", action="append", default=None, metavar="WORKLOAD[@START]",
        help="coordinated-fleet mode (repeatable): dump the coordinator + "
        "per-job metrics rollup instead of one run's registry",
    )
    met_p.add_argument("--governor", default="magus", choices=GOVERNORS)
    met_p.add_argument("--seed", type=int, default=1)
    met_p.add_argument("--max-time", type=float, default=600.0, metavar="SECONDS")
    met_p.add_argument(
        "--latency", default=None, choices=sorted(LATENCY_PRESETS), metavar="PRESET",
        help="switch-latency preset; its charges appear in the actuation metrics",
    )
    met_p.add_argument("--format", choices=("prom", "json"), default="prom")
    met_p.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the metrics dump to a file (e.g. metrics.prom) instead of stdout",
    )

    suite_p = sub.add_parser("suite", help="run one Fig. 4 end-to-end sweep")
    suite_p.add_argument("--figure", default="4a", choices=("4a", "4b", "4c"))
    suite_p.add_argument("--repeats", type=int, default=1)
    suite_p.add_argument("--seed", type=int, default=1)

    exp_p = sub.add_parser("experiments", help="run the full paper report")
    exp_p.add_argument("--quick", action="store_true")
    exp_p.add_argument("--seed", type=int, default=1)

    fleet_p = sub.add_parser("fleet", help="aggregate power of a job fleet (§6.1 budget argument)")
    fleet_p.add_argument("--system", default="intel_a100", choices=sorted(PRESETS))
    fleet_p.add_argument(
        "--job",
        action="append",
        required=True,
        metavar="WORKLOAD[@START]",
        help="workload name with optional start time, e.g. unet@0 bfs@5",
    )
    fleet_p.add_argument("--nodes", type=int, default=None, help="fleet size (default: one per job)")
    fleet_p.add_argument("--governor", default="magus", choices=GOVERNORS)
    fleet_p.add_argument("--budget", type=float, default=None, help="power budget in watts")
    fleet_p.add_argument("--seed", type=int, default=1)
    fleet_p.add_argument(
        "--mtbf", type=float, default=None, metavar="SECONDS",
        help="enable the node-failure model with this per-node MTBF",
    )
    fleet_p.add_argument(
        "--restart-delay", type=float, default=5.0, metavar="SECONDS",
        help="checkpoint-restart delay after a node death (with --mtbf)",
    )
    fleet_p.add_argument(
        "--lost-work", type=float, default=1.0, metavar="FRACTION",
        help="fraction of a killed segment's work lost (1.0 = no checkpointing)",
    )
    fleet_p.add_argument(
        "--json", action="store_true",
        help="machine-readable baseline/method summaries + comparison "
        "(schema shared with 'repro coordinate --json')",
    )

    coord_p = sub.add_parser(
        "coordinate",
        help="fleet under the cluster power-budget coordinator with "
        "control-plane chaos (leased caps, never-exceed invariant)",
    )
    coord_p.add_argument("--system", default="intel_a100", choices=sorted(PRESETS))
    coord_p.add_argument(
        "--job",
        action="append",
        required=True,
        metavar="WORKLOAD[@START]",
        help="workload name with optional start time, e.g. sort@0 bfs@3",
    )
    coord_p.add_argument("--governor", default="default", choices=GOVERNORS)
    coord_p.add_argument(
        "--seed", type=int, default=1, help="job seed; also seeds the chaos campaign"
    )
    coord_p.add_argument(
        "--budget", type=float, default=None, metavar="WATTS",
        help="explicit global power budget (default: --budget-frac of ample)",
    )
    coord_p.add_argument(
        "--budget-frac", type=float, default=0.85, metavar="FRACTION",
        help="budget as a fraction of the ample (never-throttling) budget",
    )
    coord_p.add_argument(
        "--max-time", type=float, default=60.0, metavar="SECONDS",
        help="per-job simulation horizon",
    )
    coord_p.add_argument(
        "--no-chaos", action="store_true",
        help="skip the coordinated control-plane fault campaign",
    )
    coord_p.add_argument(
        "--journal", default=None, metavar="PATH",
        help="write the fsynced grant journal to this file (an existing one is replaced)",
    )
    coord_p.add_argument(
        "--json", action="store_true",
        help="machine-readable invariant scorecard instead of the report",
    )
    coord_p.add_argument(
        "--gate", action="store_true",
        help="exit 1 on any budget-overshoot tick or fail-safe miss "
        "(the control-plane-chaos CI gate)",
    )
    coord_p.add_argument("--out", default=None, metavar="PATH", help="also write the report to a file")

    def add_scrape_run_args(p: argparse.ArgumentParser) -> None:
        """Options shared by the scrape-backed verbs (watch, alerts)."""
        p.add_argument("--system", default="intel_a100", choices=sorted(PRESETS))
        p.add_argument(
            "--job",
            action="append",
            default=None,
            metavar="WORKLOAD[@START]",
            help="workload name with optional start time, e.g. sort@0 bfs@3",
        )
        p.add_argument("--governor", default="default", choices=GOVERNORS)
        p.add_argument(
            "--seed", type=int, default=1, help="job seed; also seeds the chaos campaign"
        )
        p.add_argument(
            "--budget", type=float, default=None, metavar="WATTS",
            help="explicit global power budget (default: --budget-frac of ample)",
        )
        p.add_argument(
            "--budget-frac", type=float, default=1.0, metavar="FRACTION",
            help="budget as a fraction of the ample (never-throttling) budget",
        )
        p.add_argument(
            "--max-time", type=float, default=20.0, metavar="SECONDS",
            help="per-job simulation horizon",
        )
        p.add_argument(
            "--chaos", choices=("none", "standard", "uplink"), default="none",
            help="control-plane fault campaign: the full coordinated mix, or "
            "the alert gate's single sustained uplink partition",
        )
        p.add_argument(
            "--html", default=None, metavar="PATH",
            help="also export the static HTML dashboard",
        )

    watch_p = sub.add_parser(
        "watch",
        help="scrape a coordinated fleet into the time-series store and "
        "render ASCII strip charts",
    )
    add_scrape_run_args(watch_p)
    watch_p.add_argument(
        "--series", action="append", default=None, metavar="NAME",
        help="series to chart (repeatable; default: the standard watch set)",
    )
    watch_p.add_argument(
        "--width", type=int, default=72, help="characters per sparkline"
    )
    watch_p.add_argument(
        "--list-series", action="store_true",
        help="print the scrape series catalogue and exit",
    )

    alerts_p = sub.add_parser(
        "alerts",
        help="evaluate the fleet SLO alert pack over a coordinated run "
        "(burn rates, staleness, anomalies on the simulated clock)",
    )
    add_scrape_run_args(alerts_p)
    alerts_p.add_argument(
        "--json", action="store_true",
        help="machine-readable rules + event stream instead of the table",
    )
    alerts_p.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the alerts JSON to a file",
    )
    alerts_p.add_argument(
        "--gate", action="store_true",
        help="exit 1 if any page-severity alert fired (the alert-gate CI job)",
    )

    camp_p = sub.add_parser(
        "campaign", help="journaled, crash-resumable runs of the paper protocol"
    )
    camp_sub = camp_p.add_subparsers(dest="campaign_command", required=True)
    camp_run = camp_sub.add_parser("run", help="run (or resume) a campaign")
    camp_run.add_argument("--outdir", required=True, help="campaign directory (artefacts + journal)")
    camp_run.add_argument("--seed", type=int, default=1)
    camp_run.add_argument("--quick", action="store_true", help="reduced protocol")
    camp_run.add_argument(
        "--resume", action="store_true",
        help="skip steps whose journal entry and artefacts are still valid",
    )
    camp_run.add_argument(
        "--steps", default=None, metavar="NAME[,NAME...]",
        help="comma-separated subset of steps (default: all)",
    )
    camp_status = camp_sub.add_parser("status", help="show the campaign journal")
    camp_status.add_argument("--outdir", required=True, help="campaign directory")

    res_p = sub.add_parser(
        "resilience", help="governors under a seeded fault campaign vs fault-free golden runs"
    )
    res_p.add_argument("--system", default="intel_a100", choices=sorted(PRESETS))
    res_p.add_argument("--workload", default="srad")
    res_p.add_argument(
        "--governor", action="append", default=None, choices=GOVERNORS,
        help="governors to compare (default: magus, ups, default)",
    )
    res_p.add_argument("--seed", type=int, default=1, help="run seed; also seeds the campaign")
    res_p.add_argument("--duration", type=float, default=20.0, help="horizon in simulated seconds")
    res_p.add_argument(
        "--check-repro", action="store_true",
        help="re-run each faulted leg and require an identical incident log",
    )
    res_p.add_argument("--incidents", action="store_true", help="print the full incident logs")
    res_p.add_argument(
        "--guard", action="store_true",
        help="run both legs of every pair with the telemetry guard installed",
    )
    res_p.add_argument(
        "--json", action="store_true", help="machine-readable rows instead of the table"
    )
    res_p.add_argument("--out", default=None, metavar="PATH", help="also write the report to a file")

    guard_p = sub.add_parser(
        "guard", help="silent-corruption detection coverage of the telemetry guard"
    )
    guard_p.add_argument("--system", default="intel_a100", choices=sorted(PRESETS))
    guard_p.add_argument("--workload", default="srad")
    guard_p.add_argument(
        "--governor", action="append", default=None, choices=GOVERNORS,
        help="governors to score (default: magus, ups)",
    )
    guard_p.add_argument("--seed", type=int, default=1, help="run seed; also seeds the campaign")
    guard_p.add_argument("--duration", type=float, default=20.0, help="horizon in simulated seconds")
    guard_p.add_argument(
        "--json", action="store_true", help="machine-readable scorecards instead of the table"
    )
    guard_p.add_argument(
        "--gate-stuck-freeze", action="store_true",
        help="exit 1 if any fired stuck/freeze window at least 3 decision "
        "periods long went undetected (the chaos-CI gate)",
    )
    guard_p.add_argument("--out", default=None, metavar="PATH", help="also write the report to a file")

    lat_p = sub.add_parser(
        "latency", help="governor sensitivity to modeled frequency-switch latency"
    )
    lat_p.add_argument("--system", default="intel_a100", choices=sorted(PRESETS))
    lat_p.add_argument("--workload", default="srad")
    lat_p.add_argument(
        "--governor", action="append", default=None, choices=GOVERNORS,
        help="governors to compare (default: magus, static_max)",
    )
    lat_p.add_argument(
        "--preset", default="gpu_dvfs", choices=sorted(LATENCY_PRESETS),
        help="switch-latency distribution to model",
    )
    lat_p.add_argument("--seed", type=int, default=1, help="run seed; also seeds the latency draws")
    lat_p.add_argument("--duration", type=float, default=60.0, help="horizon in simulated seconds")
    lat_p.add_argument("--out", default=None, metavar="PATH", help="also write the report to a file")

    ver_p = sub.add_parser("verify", help="check every encoded paper claim")
    ver_p.add_argument("--full", action="store_true", help="full Fig. 4a suite + 10-min idle runs")
    ver_p.add_argument("--seed", type=int, default=1)

    lint_p = sub.add_parser(
        "lint",
        help="AST invariant checks: determinism, MSR safety, units, meters, pickling, "
        "seed provenance, worker shared state",
    )
    lint_p.add_argument(
        "paths", nargs="*", default=["src"], help="files/directories to check (default: src)"
    )
    lint_p.add_argument("--format", choices=("text", "json"), default="text")
    lint_p.add_argument(
        "--baseline", default="lint-baseline.json", metavar="PATH",
        help="baseline file of accepted violations (missing file = empty)",
    )
    lint_p.add_argument(
        "--no-baseline", action="store_true", help="report every violation, baseline ignored"
    )
    lint_p.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current violations and exit 0",
    )
    lint_p.add_argument("--out", default=None, metavar="PATH", help="also write the report to a file")
    lint_p.add_argument("--list-rules", action="store_true", help="print the rule catalogue and exit")
    lint_p.add_argument(
        "--package-root", default=None, metavar="DIR",
        help="directory standing in for the repro package root (fixture trees)",
    )
    lint_p.add_argument(
        "--call-graph-dump", default=None, metavar="PATH",
        help="write call-graph construction stats as JSON",
    )
    # Kept so existing invocations still parse: every run is whole-program
    # and nothing is cached.
    lint_p.add_argument("--project", action="store_true", help="no-op: every run is whole-program")
    lint_p.add_argument("--no-cache", action="store_true", help="no-op: there is no parse cache")

    return parser


def _cmd_list() -> int:
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
    if args.json:
        import json

        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(str(result))
    return 0


def _run_observed(args):
    """One observability-enabled run shared by ``trace`` and ``metrics``."""
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


def _require_one_target(args) -> None:
    """``trace``/``metrics`` take a --workload XOR a fleet of --job specs."""
    if bool(args.workload) == bool(args.job):
        raise ReproError(
            f"repro {args.command}: pass exactly one of --workload (single run) "
            "or --job (coordinated fleet, repeatable)"
        )


def _run_coordinated_observed(args):
    """One scraped, metrics-enabled coordinated run for trace/metrics --job."""
    from repro.cluster import ClusterSimulator
    from repro.coordinator.fleet import run_coordinated_fleet

    sim = ClusterSimulator(args.system, _parse_jobs(args.job, args.seed, args.max_time))
    return run_coordinated_fleet(sim, args.governor, obs=True, tsdb=True)


def _cmd_trace(args) -> int:
    from repro.obs.exporters import render_chrome_trace, write_text
    from repro.obs.report import slowest_cycles

    _require_one_target(args)
    if args.job:
        from repro.obs.exporters import render_chrome_counter_trace

        result = _run_coordinated_observed(args)
        write_text(args.out, render_chrome_counter_trace(result.tsdb))
        print(
            f"wrote {len(result.tsdb)} counter track(s) over "
            f"{result.tick_times_s.size} control tick(s) to {args.out} — "
            "open in chrome://tracing or https://ui.perfetto.dev"
        )
        return 0
    result = _run_observed(args)
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
        f"to {args.out} — open in chrome://tracing or https://ui.perfetto.dev"
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

    _require_one_target(args)
    if args.job:
        result = _run_coordinated_observed(args)
        registry = result.metrics_rollup()
        if registry is None:
            raise ReproError("coordinated run returned no metrics rollup")
        if args.format == "json":
            import json

            dump = json.dumps(registry_to_dict(registry), indent=2, sort_keys=True) + "\n"
        else:
            dump = render_prometheus(registry)
        if args.out:
            write_text(args.out, dump)
            print(f"wrote {len(registry)} metric(s) to {args.out}")
        else:
            print(dump, end="" if dump.endswith("\n") else "\n")
        return 0
    result = _run_observed(args)
    registry = result.metrics
    if registry is None:
        raise ReproError("observability-enabled run returned no metrics registry")
    if args.format == "json":
        import json

        dump = json.dumps(registry_to_dict(registry), indent=2, sort_keys=True) + "\n"
    else:
        dump = render_prometheus(registry)
    if args.out:
        write_text(args.out, dump)
        print(f"wrote {len(registry)} metric(s) to {args.out}")
    else:
        print(dump, end="" if dump.endswith("\n") else "\n")

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


def _run_scraped(args, *, with_alerts: bool):
    """One scraped coordinated run shared by ``watch`` and ``alerts``."""
    from repro.experiments.coordination import run_coordination
    from repro.obs.scrape import default_fleet_rules

    if not args.job:
        raise ReproError("at least one --job is required")
    chaos = {"none": False, "standard": True, "uplink": "uplink"}[args.chaos]
    result, score = run_coordination(
        args.system,
        _parse_jobs(args.job, args.seed, args.max_time),
        args.governor,
        seed=args.seed,
        budget_frac=args.budget_frac,
        budget_w=args.budget,
        chaos=chaos,
        tsdb=True,
        alert_rules=default_fleet_rules if with_alerts else None,
    )
    if result.tsdb is None:
        raise ReproError("scraped run returned no time-series store")
    return result, score


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
    result, _ = _run_scraped(args, with_alerts=False)
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
    import json

    result, _ = _run_scraped(args, with_alerts=True)
    engine = result.alerts
    if engine is None:
        raise ReproError("alert-enabled run returned no alert engine")
    if args.json:
        report = json.dumps(engine.to_dict(), indent=2, sort_keys=True)
        print(report)
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
        pages = engine.ever_fired("page")
        warns = engine.ever_fired("warn")
        title = (
            f"alert transitions ({len(pages)} page(s), {len(warns)} warn(s) "
            f"fired; {len(engine.firing())} still firing)"
        )
        if rows:
            report = format_table(
                ("t (s)", "rule", "labels", "severity", "state", "detail"),
                rows,
                title=title,
            )
        else:
            report = f"{title}\nno alert transitions"
        print(report)
    if args.out:
        from repro.obs.exporters import write_text

        write_text(
            args.out, json.dumps(engine.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote alerts JSON to {args.out}")
    _write_dashboard(args, result)
    if args.gate:
        pages = engine.ever_fired("page")
        if pages:
            for ev in pages:
                print(
                    f"GATE: page {ev.rule} fired at t={ev.time_s:.2f}s ({ev.detail})",
                    file=sys.stderr,
                )
            return 1
        print("gate: no page-severity alert fired")
    return 0


def _cmd_fleet(args) -> int:
    from repro.cluster import ClusterSimulator, NodeFailureModel, compare_fleets

    jobs = _parse_jobs(args.job, args.seed)
    model = None
    if args.mtbf is not None:
        model = NodeFailureModel(
            mtbf_s=args.mtbf,
            seed=args.seed,
            restart_delay_s=args.restart_delay,
            lost_work_fraction=args.lost_work,
        )
    sim = ClusterSimulator(args.system, jobs, n_nodes=args.nodes)
    baseline = sim.run_fleet("default", failure_model=model)
    method = sim.run_fleet(args.governor, failure_model=model)
    comparison = compare_fleets(baseline, method, budget_w=args.budget)
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "baseline": baseline.summary_dict(args.budget),
                    "method": method.summary_dict(args.budget),
                    "comparison": comparison.to_dict(),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(
        format_table(
            ("policy", "peak power (W)", "fleet energy (kJ)", "makespan (s)", "queue wait (s)"),
            [
                (f.governor, f"{f.peak_power_w:.0f}", f"{f.fleet_energy_j / 1000:.1f}", f"{f.makespan_s:.1f}", f"{f.total_queue_wait_s:.1f}")
                for f in (baseline, method)
            ],
            title=f"{sim.n_nodes}-node fleet on {args.system}",
        )
    )
    if model is not None:
        rows = [
            (
                f.governor,
                str(f.n_failures),
                f"{f.lost_work_s:.1f}",
                f"{f.wasted_energy_j / 1000:.2f}",
                f"{f.total_restart_delay_s:.1f}",
            )
            for f in (baseline, method)
        ]
        print(
            format_table(
                ("policy", "node deaths", "lost work (s)", "wasted energy (kJ)", "restart delay (s)"),
                rows,
                title=f"churn under MTBF {args.mtbf:.0f}s (failure seed {args.seed})",
            )
        )
    print(str(comparison))
    return 0


def _cmd_coordinate(args) -> int:
    import json

    from repro.errors import ExperimentError
    from repro.experiments.coordination import (
        assert_coordination_safe,
        coordination_row_dict,
        format_coordination,
        run_coordination,
    )

    jobs = _parse_jobs(args.job, args.seed, args.max_time)
    _, score = run_coordination(
        args.system,
        jobs,
        args.governor,
        seed=args.seed,
        budget_frac=args.budget_frac,
        budget_w=args.budget,
        chaos=not args.no_chaos,
        journal_path=args.journal,
    )
    if args.json:
        report = json.dumps(coordination_row_dict(score), indent=2, sort_keys=True)
    else:
        report = format_coordination(score)
    print(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report + "\n")
    if args.gate:
        try:
            assert_coordination_safe(score)
        except ExperimentError as exc:
            print(f"GATE: {exc}", file=sys.stderr)
            return 1
        print(
            "gate: granted caps never exceeded the budget on any tick; "
            "partitioned nodes reverted to the safe floor in time"
        )
    return 0


def _cmd_campaign(args) -> int:
    from repro.campaign import JOURNAL_NAME, Journal, run_campaign

    if args.campaign_command == "status":
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
    steps = args.steps.split(",") if args.steps else None
    result = run_campaign(
        args.outdir,
        seed=args.seed,
        quick=args.quick,
        resume=args.resume,
        steps=steps,
        progress=print,
    )
    print(
        f"campaign complete: {len(result.executed)} step(s) ran, "
        f"{len(result.skipped)} cached; journal at {result.journal_path}"
    )
    return 0


def _cmd_resilience(args) -> int:
    import json

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
    if args.json:
        report = json.dumps([resilience_row_dict(r) for r in rows], indent=2)
    else:
        report = format_resilience(rows, plan=plan)
        if args.incidents:
            from repro.faults.incidents import IncidentLog

            for row in rows:
                log = IncidentLog()
                for incident in row.incidents:
                    log.append(incident)
                report += f"\n\n{row.governor} incident log:\n{log.format()}"
    print(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report + "\n")
    return 0


def _cmd_guard(args) -> int:
    import json

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
    if args.json:
        report = json.dumps([detection_row_dict(r) for r in rows], indent=2)
    else:
        report = format_detection_coverage(rows)
    print(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report + "\n")
    if args.gate_stuck_freeze:
        violations = undetected_stuck_freeze(rows)
        if violations:
            for governor, window in violations:
                print(
                    f"GATE: {governor} missed {window.device}/{window.kind} "
                    f"[{window.start_s:.1f}, {window.end_s:.1f})s "
                    f"({window.injections} corrupted access(es))",
                    file=sys.stderr,
                )
            return 1
        print("gate: every fired stuck/freeze window >= 3 decision periods was detected")
    return 0


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
    report = format_latency_delta(rows)
    print(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report + "\n")
    return 0


def _cmd_verify(args) -> int:
    from repro.experiments.paper import format_verification, verify_reproduction

    results = verify_reproduction(seed=args.seed, quick=not args.full)
    print(format_verification(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_lint(args) -> int:
    import json as _json

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
            _json.dump(stats_dict, fh, indent=2)
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
    print(report, end="" if report.endswith("\n") else "\n")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report if report.endswith("\n") else report + "\n")
    return 1 if new else 0


def _cmd_experiments(args) -> int:
    from repro.experiments.runner import run_all

    for report in run_all(quick=args.quick, seed=args.seed):
        print(report)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "overhead":
            return _cmd_overhead(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "suite":
            return _cmd_suite(args)
        if args.command == "experiments":
            return _cmd_experiments(args)
        if args.command == "resilience":
            return _cmd_resilience(args)
        if args.command == "guard":
            return _cmd_guard(args)
        if args.command == "latency":
            return _cmd_latency(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "fleet":
            return _cmd_fleet(args)
        if args.command == "coordinate":
            return _cmd_coordinate(args)
        if args.command == "watch":
            return _cmd_watch(args)
        if args.command == "alerts":
            return _cmd_alerts(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "lint":
            return _cmd_lint(args)
        parser.error(f"unknown command {args.command!r}")
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
