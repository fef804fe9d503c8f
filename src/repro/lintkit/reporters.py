"""Text and JSON reporters for ``repro lint``.

The text form is one greppable/clickable line per violation plus a
per-rule summary; the JSON form is a stable machine-readable document CI
uploads as an artifact (schema version 1: ``{"version", "files",
"violations": [{"path","line","col","rule","message"}], "counts",
"project"}``).
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Sequence

from repro.lintkit.core import Violation

__all__ = ["format_text", "format_json"]


def format_text(violations: Sequence[Violation], n_files: int) -> str:
    """Render violations as ``path:line:col: CODE message`` lines."""
    lines: List[str] = [f"{v.location()}: {v.rule} {v.message}" for v in violations]
    if violations:
        counts = Counter(v.rule for v in violations)
        summary = ", ".join(f"{rule} ×{n}" for rule, n in sorted(counts.items()))
        lines.append("")
        lines.append(
            f"{len(violations)} violation(s) in {n_files} file(s) checked ({summary})"
        )
    else:
        lines.append(f"clean: 0 violations in {n_files} file(s) checked")
    return "\n".join(lines)


def format_json(
    violations: Sequence[Violation],
    n_files: int,
    *,
    project_stats: Dict[str, int],
) -> str:
    """Render violations as the version-1 JSON report document.

    ``project_stats`` (the call-graph construction stats) lands under the
    ``"project"`` key; the document stays schema version 1 — consumers
    that ignore unknown keys are unaffected.
    """
    payload: Dict[str, object] = {
        "version": 1,
        "files": n_files,
        "violations": [
            {
                "path": v.path,
                "line": v.line,
                "col": v.col,
                "rule": v.rule,
                "message": v.message,
            }
            for v in violations
        ],
        "counts": dict(sorted(Counter(v.rule for v in violations).items())),
        "project": dict(project_stats),
    }
    return json.dumps(payload, indent=2) + "\n"
