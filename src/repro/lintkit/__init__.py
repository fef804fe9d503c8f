"""``repro lint`` — AST-based invariant checking for this repository.

A domain-specific static-analysis pass that turns the repo's core
invariants (bit-reproducibility, MSR table discipline, unit-suffix
hygiene, meter-preserving exception handling, picklable pool tasks) from
tribal knowledge into CI-enforced rules.  One pass parses the full tree
into a :class:`~repro.lintkit.project.Project` — module graph, symbol
table, call graph — and runs every rule against it, the interprocedural
ones (seed provenance, parallel shared-state hygiene, units inference)
included.  See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue and
suppression syntax.
"""

from repro.lintkit.baseline import Baseline, load_baseline, save_baseline
from repro.lintkit.core import Rule, Violation
from repro.lintkit.engine import collect_files, lint_project
from repro.lintkit.project import Project, ProjectStats, build_project
from repro.lintkit.reporters import format_json, format_text
from repro.lintkit.rules import default_rules, rule_catalogue
from repro.lintkit.suppressions import SuppressionIndex, scan_suppressions

__all__ = [
    "Baseline",
    "Project",
    "ProjectStats",
    "Rule",
    "SuppressionIndex",
    "Violation",
    "build_project",
    "collect_files",
    "default_rules",
    "format_json",
    "format_text",
    "lint_project",
    "load_baseline",
    "rule_catalogue",
    "save_baseline",
    "scan_suppressions",
]
