"""Rule dispatch for ``repro lint``: one pass over one linked project.

The engine is deliberately import-free with respect to the linted code:
files are read and parsed with :mod:`ast` (via
:mod:`repro.lintkit.loader`), never executed, so the linter can check a
tree whose dependencies are absent (CI bootstraps) or whose modules
would have import-time side effects.

:func:`lint_project` is the only entry point.  It collects the files,
parses each once into a :class:`~repro.lintkit.project.Project`, scans
each module's suppression comments once, and runs every rule against
that one model.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.lintkit.core import Violation
from repro.lintkit.loader import collect_files
from repro.lintkit.project import ProjectStats, build_project
from repro.lintkit.rules import default_rules
from repro.lintkit.suppressions import scan_suppressions

__all__ = [
    "collect_files",
    "lint_project",
]


def _anchor_for(paths: Sequence[str], root: Optional[str]) -> Optional[Path]:
    """The directory standing in for the package root (see ``lint_project``)."""
    if root is not None:
        return Path(root)
    roots = [Path(p) for p in paths if Path(p).is_dir()]
    return roots[0] if len(roots) == 1 else None


def lint_project(
    paths: Sequence[str], *, root: Optional[str] = None
) -> Tuple[List[Violation], int, ProjectStats]:
    """Lint every file under ``paths`` with every rule.

    A file the parser rejects yields a single ``RL000`` violation at the
    offending line rather than aborting the run.  A
    ``# repro-lint: disable=RL008`` comment on the flagged line wins over
    any rule (see :mod:`repro.lintkit.suppressions`).

    Parameters
    ----------
    paths:
        Files and/or directories to check.
    root:
        Directory that stands in for the ``repro`` package root when a
        file is outside any ``repro`` directory (fixture trees).  When
        omitted and exactly one directory was passed, that directory is
        the root.

    Returns
    -------
    (violations, n_files, stats)
        Sorted suppression-filtered violations, the number of files
        checked, and the call-graph construction stats.

    Raises
    ------
    LintError
        If a path does not exist or two files map to one module name.
    """
    files = collect_files(paths)
    project = build_project(files, root=_anchor_for(paths, root))
    violations = [
        Violation(path, exc.line, 0, "RL000", exc.message) for path, exc in project.unparsed
    ]
    suppressions = {
        mod.path: scan_suppressions(mod.source) for mod in project.modules.values()
    }
    for rule in default_rules():
        for violation in rule.check(project):
            if not suppressions[violation.path].is_suppressed(violation.rule, violation.line):
                violations.append(violation)
    return sorted(violations), len(files), project.stats()
