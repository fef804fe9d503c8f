"""Run every experiment and print the paper-shaped reports.

Usage::

    repro experiments [--quick] [--seed N]
    repro experiments --trace-schema PRESET

``--quick`` shrinks the expensive sweeps (single repeat, reduced Fig. 7
grid, 2-minute overhead runs) for a fast end-to-end pass; the full mode
matches the paper's protocol (5 repeats, full grid, 10-minute idle runs).
"""

from __future__ import annotations

import time
from typing import List

from repro.analysis.report import format_table
from repro.experiments.fig1_profiling import run_fig1
from repro.experiments.fig2_power_profiles import run_fig2
from repro.experiments.fig4_end_to_end import (
    format_fig4,
    run_fig4a,
    run_fig4b,
    run_fig4c,
    summary_stats,
)
from repro.experiments.fig5_srad_throughput import run_fig5
from repro.experiments.fig6_srad_uncore import run_fig6
from repro.experiments.fig7_sensitivity import run_fig7, threshold_grid
from repro.experiments.table1_jaccard import format_table1, run_table1
from repro.experiments.table2_overhead import format_table2, run_table2

__all__ = ["run_all", "describe_trace_schema"]


def _banner(text: str) -> str:
    bar = "#" * max(len(text) + 4, 30)
    return f"\n{bar}\n# {text}\n{bar}"


def describe_trace_schema(preset_name: str = "intel_a100") -> str:
    """Render the trace-channel schema a run on ``preset_name`` records.

    Builds the standard observer stack for the preset's node and lets each
    observer declare its channels into a fresh
    :class:`~repro.sim.channels.ChannelRegistry` — the same composition
    path the runners use — then formats one row per block owner. The
    per-core block is summarised rather than listed (80 rows of
    ``coreN_freq_ghz`` help nobody).
    """
    from repro.hw.presets import get_preset
    from repro.sim.channels import ChannelRegistry
    from repro.sim.observers import standard_observers
    from repro.sim.rng import RngStreams
    from repro.telemetry.hub import TelemetryHub

    preset = get_preset(preset_name)
    node = preset.build_node(RngStreams(0))
    hub = TelemetryHub(node, preset.telemetry, vendor=preset.vendor)
    registry = ChannelRegistry()
    for obs in standard_observers(node, hub):
        declare = getattr(obs, "declare_channels", None)
        if declare is not None:
            declare(registry)
    registry.freeze()
    rows = []
    for block in registry.blocks:
        if len(block) > 8:
            listing = f"{block.names[0]} .. {block.names[-1]} ({len(block)} channels)"
        else:
            listing = ", ".join(block.names)
        rows.append((block.owner, f"[{block.start}:{block.stop}]", listing))
    return format_table(("owner", "columns", "channels"), rows)


def run_all(*, quick: bool = True, seed: int = 1) -> List[str]:
    """Execute every experiment; return the list of rendered reports."""
    reports: List[str] = []
    repeats = 1 if quick else 5

    t0 = time.time()
    fig1 = run_fig1(seed=seed)
    reports.append(
        _banner("Fig. 1 — UNet profiling under default management")
        + "\n"
        + format_table(
            ("quantity", "value"),
            [
                ("uncore at max (fraction of samples)", f"{fig1.uncore_at_max_fraction:.3f}"),
                ("core-frequency dynamic range (GHz)", f"{fig1.core_freq_dynamic_range_ghz:.2f}"),
                ("GPU-clock dynamic range (GHz)", f"{fig1.gpu_clock_dynamic_range_ghz:.2f}"),
                ("peak package power / TDP", f"{fig1.peak_pkg_power_fraction_of_tdp:.2f}"),
            ],
        )
    )

    fig2 = run_fig2(seed=seed)
    reports.append(_banner("Fig. 2 — UNet power profiles (max vs min uncore)") + "\n" + str(fig2))

    fig4a = run_fig4a(repeats=repeats, base_seed=seed)
    stats = summary_stats(fig4a, "magus")
    reports.append(
        _banner("Fig. 4a — Intel+A100 end-to-end")
        + "\n"
        + format_fig4(fig4a, "Fig. 4a")
        + f"\nMAGUS: max perf loss {stats['max_performance_loss'] * 100:.1f}%, "
        + f"max energy saving {stats['max_energy_saving'] * 100:.1f}%"
    )

    fig4b = run_fig4b(repeats=repeats, base_seed=seed)
    reports.append(_banner("Fig. 4b — Intel+Max1550 end-to-end") + "\n" + format_fig4(fig4b, "Fig. 4b"))

    fig4c = run_fig4c(repeats=repeats, base_seed=seed)
    reports.append(_banner("Fig. 4c — Intel+4A100 end-to-end") + "\n" + format_fig4(fig4c, "Fig. 4c"))

    from repro.analysis.ascii_plot import strip_chart

    fig5 = run_fig5(seed=seed)
    reports.append(
        _banner("Fig. 5 — SRAD memory-throughput case study")
        + "\n"
        + strip_chart(
            {k: fig5.throughput_traces[k] for k in ("max", "min", "magus", "ups")},
            period_s=0.5,
        )
        + "\n"
        + str(fig5)
    )

    fig6 = run_fig6(seed=seed)
    reports.append(
        _banner("Fig. 6 — SRAD uncore-frequency case study")
        + "\n"
        + strip_chart(fig6.uncore_traces, period_s=0.5)
        + "\n"
        + str(fig6)
    )

    table1 = run_table1(seed=seed)
    reports.append(_banner("Table 1 — Jaccard similarity") + "\n" + format_table1(table1))

    grid = threshold_grid() if not quick else threshold_grid()[::4]
    fig7 = run_fig7(seed=seed, grid=grid)
    reports.append(_banner("Fig. 7 — threshold sensitivity") + "\n" + str(fig7))

    table2 = run_table2(duration_s=120.0 if quick else 600.0, seed=seed)
    reports.append(_banner("Table 2 — runtime overheads") + "\n" + format_table2(table2))

    reports.append(f"\nTotal experiment wall time: {time.time() - t0:.0f}s")
    return reports
