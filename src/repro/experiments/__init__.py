"""Experiment harness: one module per figure/table of the paper.

=========== ==================================================== =========
Module      Paper artefact                                       Section
=========== ==================================================== =========
``fig1``    UNet profiling: core freq / GPU clock / uncore freq  §2
``fig2``    UNet power profiles at max vs min uncore             §2
``fig4``    End-to-end perf/power/energy on all three systems    §6.1
``fig5``    SRAD memory-throughput case study                    §6.2
``fig6``    SRAD uncore-frequency case study                     §6.2
``table1``  Jaccard prediction-accuracy analysis                 §6.3
``fig7``    Threshold sensitivity Pareto frontiers               §6.4
``table2``  Idle power/invocation overheads                      §6.5
=========== ==================================================== =========

``runner`` executes everything and prints the paper-shaped reports
(``repro experiments``).

``resilience`` is not a paper artefact: it measures each governor under a
seeded telemetry-fault campaign against its fault-free golden run (energy
delta, slowdown, incident accounting) — the chaos CI job's workload.

``coordination`` is its fleet-scale sibling: a schedule under the cluster
power-budget coordinator with control-plane chaos, scored for the
never-exceed budget invariant, fail-safe floor reversion and
reconvergence — the control-plane-chaos CI job's workload.
"""

from repro.experiments.fig1_profiling import Fig1Result, run_fig1
from repro.experiments.fig2_power_profiles import Fig2Result, run_fig2
from repro.experiments.fig4_end_to_end import (
    Fig4Row,
    run_fig4a,
    run_fig4b,
    run_fig4c,
    run_suite,
    format_fig4,
)
from repro.experiments.fig5_srad_throughput import Fig5Result, run_fig5
from repro.experiments.fig6_srad_uncore import Fig6Result, run_fig6
from repro.experiments.fig7_sensitivity import Fig7Result, run_fig7, threshold_grid
from repro.experiments.table1_jaccard import Table1Row, run_table1, format_table1
from repro.experiments.table2_overhead import Table2Row, run_table2, format_table2
from repro.experiments.resilience import ResilienceRow, run_resilience, format_resilience
from repro.experiments.coordination import (
    CoordinationScore,
    run_coordination,
    score_coordination,
    format_coordination,
    assert_coordination_safe,
)
from repro.experiments.paper import PAPER, PaperClaim, ClaimResult, verify_reproduction, format_verification
from repro.experiments.export import export_rows_csv, export_series_csv

__all__ = [
    "Fig1Result",
    "run_fig1",
    "Fig2Result",
    "run_fig2",
    "Fig4Row",
    "run_fig4a",
    "run_fig4b",
    "run_fig4c",
    "run_suite",
    "format_fig4",
    "Fig5Result",
    "run_fig5",
    "Fig6Result",
    "run_fig6",
    "Fig7Result",
    "run_fig7",
    "threshold_grid",
    "Table1Row",
    "run_table1",
    "format_table1",
    "Table2Row",
    "run_table2",
    "format_table2",
    "ResilienceRow",
    "run_resilience",
    "format_resilience",
    "CoordinationScore",
    "run_coordination",
    "score_coordination",
    "format_coordination",
    "assert_coordination_safe",
    "PAPER",
    "PaperClaim",
    "ClaimResult",
    "verify_reproduction",
    "format_verification",
    "export_rows_csv",
    "export_series_csv",
]
