"""CSV export of every experiment's data series.

``repro campaign run --outdir results/`` runs :data:`EXPORT_STEPS` and
writes one CSV per paper artefact, so the figures can be re-plotted with
any external tool: each file carries exactly the series the corresponding
figure draws or the rows the table lists.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, Union

from repro.errors import ExperimentError
from repro.sim.trace import TimeSeries

__all__ = [
    "export_series_csv",
    "export_rows_csv",
    "EXPORT_STEPS",
    "export_fig1",
    "export_fig2",
    "export_fig4a",
    "export_fig4b",
    "export_fig4c",
    "export_fig5",
    "export_fig6",
    "export_table1",
    "export_fig7",
    "export_table2",
]


def export_series_csv(path: Union[str, Path], series: Dict[str, TimeSeries], *, period_s: float = 0.5) -> None:
    """Write aligned time series (one column per label) to a CSV file.

    Series are resampled to a common ``period_s`` grid; shorter series are
    padded with empty cells past their end.
    """
    if not series:
        raise ExperimentError("no series to export")
    resampled = {label: ts.resample(period_s) for label, ts in series.items()}
    n = max(len(ts) for ts in resampled.values())
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", *resampled])
        for i in range(n):
            row: List[str] = [f"{(i + 1) * period_s:.3f}"]
            for ts in resampled.values():
                row.append(f"{ts.values[i]:.6g}" if i < len(ts) else "")
            writer.writerow(row)


def export_rows_csv(path: Union[str, Path], header: List[str], rows: List[List]) -> None:
    """Write tabular rows to a CSV file."""
    if len(header) == 0:
        raise ExperimentError("empty header")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if len(row) != len(header):
                raise ExperimentError(f"row width {len(row)} != header width {len(header)}")
            writer.writerow(row)


def _fig4_step(figure: str):
    """Build the exporter for one Fig. 4 panel (shared row schema)."""

    def _export(outdir: Union[str, Path], *, seed: int = 1, quick: bool = True) -> List[Path]:
        from repro.experiments.fig4_end_to_end import run_fig4a, run_fig4b, run_fig4c

        runner = {"fig4a": run_fig4a, "fig4b": run_fig4b, "fig4c": run_fig4c}[figure]
        rows = runner(repeats=1 if quick else 5, base_seed=seed)
        path = Path(outdir) / f"{figure}_end_to_end.csv"
        export_rows_csv(
            path,
            ["workload", "method", "performance_loss", "power_saving", "energy_saving"],
            [[r.workload, r.method, f"{r.performance_loss:.5f}", f"{r.power_saving:.5f}", f"{r.energy_saving:.5f}"] for r in rows],
        )
        return [path]

    _export.__name__ = f"export_{figure}"
    _export.__doc__ = f"Write the Fig. {figure[3:]} end-to-end sweep CSV."
    return _export


def export_fig1(outdir: Union[str, Path], *, seed: int = 1, quick: bool = True) -> List[Path]:
    """Write the Fig. 1 profiling traces CSV."""
    from repro.experiments.fig1_profiling import run_fig1

    fig1 = run_fig1(seed=seed)
    path = Path(outdir) / "fig1_profiling.csv"
    export_series_csv(
        path,
        {**fig1.core_freq_traces, "gpu_clock_ghz": fig1.gpu_clock_trace, "uncore_ghz": fig1.uncore_freq_trace},
    )
    return [path]


def export_fig2(outdir: Union[str, Path], *, seed: int = 1, quick: bool = True) -> List[Path]:
    """Write the Fig. 2 power-profiles CSV."""
    from repro.experiments.fig2_power_profiles import run_fig2

    fig2 = run_fig2(seed=seed)
    path = Path(outdir) / "fig2_power_profiles.csv"
    export_series_csv(
        path,
        {"cpu_w_max_uncore": fig2.max_cpu_power_trace, "cpu_w_min_uncore": fig2.min_cpu_power_trace},
    )
    return [path]


export_fig4a = _fig4_step("fig4a")
export_fig4b = _fig4_step("fig4b")
export_fig4c = _fig4_step("fig4c")


def export_fig5(outdir: Union[str, Path], *, seed: int = 1, quick: bool = True) -> List[Path]:
    """Write the Fig. 5 SRAD memory-throughput CSV."""
    from repro.experiments.fig5_srad_throughput import run_fig5

    fig5 = run_fig5(seed=seed)
    path = Path(outdir) / "fig5_srad_throughput.csv"
    export_series_csv(path, fig5.throughput_traces, period_s=0.2)
    return [path]


def export_fig6(outdir: Union[str, Path], *, seed: int = 1, quick: bool = True) -> List[Path]:
    """Write the Fig. 6 SRAD uncore-frequency CSV."""
    from repro.experiments.fig6_srad_uncore import run_fig6

    fig6 = run_fig6(seed=seed)
    path = Path(outdir) / "fig6_srad_uncore.csv"
    export_series_csv(path, fig6.uncore_traces, period_s=0.2)
    return [path]


def export_table1(outdir: Union[str, Path], *, seed: int = 1, quick: bool = True) -> List[Path]:
    """Write the Table 1 Jaccard-similarity CSV."""
    from repro.experiments.table1_jaccard import PAPER_JACCARD, run_table1

    table1 = run_table1(seed=seed)
    path = Path(outdir) / "table1_jaccard.csv"
    export_rows_csv(
        path,
        ["application", "jaccard_measured", "jaccard_paper"],
        [[r.workload, f"{r.jaccard:.3f}", PAPER_JACCARD.get(r.workload, "")] for r in table1],
    )
    return [path]


def export_fig7(outdir: Union[str, Path], *, seed: int = 1, quick: bool = True) -> List[Path]:
    """Write the Fig. 7 threshold-sensitivity CSV."""
    from repro.experiments.fig7_sensitivity import run_fig7, threshold_grid

    grid = threshold_grid() if not quick else threshold_grid()[::4]
    fig7 = run_fig7(seed=seed, grid=grid)
    fig7_rows = []
    for app, points in fig7.points.items():
        front = {id(p) for p in fig7.fronts[app]}
        for p in points:
            fig7_rows.append([app, p.label, f"{p.runtime_s:.4f}", f"{p.energy_j:.1f}", int(id(p) in front)])
    path = Path(outdir) / "fig7_sensitivity.csv"
    export_rows_csv(path, ["application", "config", "runtime_s", "energy_j", "on_front"], fig7_rows)
    return [path]


def export_table2(outdir: Union[str, Path], *, seed: int = 1, quick: bool = True) -> List[Path]:
    """Write the Table 2 runtime-overheads CSV."""
    from repro.experiments.table2_overhead import run_table2

    table2 = run_table2(duration_s=120.0 if quick else 600.0, seed=seed)
    path = Path(outdir) / "table2_overhead.csv"
    export_rows_csv(
        path,
        ["system", "method", "power_overhead_frac", "invocation_s", "decision_period_s"],
        [[r.system, r.method, f"{r.power_overhead_frac:.5f}", f"{r.invocation_s:.4f}", f"{r.decision_period_s:.4f}"] for r in table2],
    )
    return [path]


#: Paper artefact exporters in campaign order: step name -> exporter.  The
#: journaled-campaign runner (:mod:`repro.campaign`) wraps these as named,
#: individually cacheable steps.
EXPORT_STEPS = {
    "fig1": export_fig1,
    "fig2": export_fig2,
    "fig4a": export_fig4a,
    "fig4b": export_fig4b,
    "fig4c": export_fig4c,
    "fig5": export_fig5,
    "fig6": export_fig6,
    "table1": export_table1,
    "fig7": export_fig7,
    "table2": export_table2,
}
