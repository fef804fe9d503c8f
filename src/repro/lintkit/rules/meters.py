"""RL004 — meter/exception safety: no silent swallowing in runtime paths.

The supervised runtime's whole contract is that *every* failure is either
propagated or booked: retries charge their backoff to the cycle meter,
containment writes an :class:`~repro.faults.incidents.IncidentLog` entry,
and abandoned cycles book their wasted energy.  Related energy runtimes
(Cuttlefish's accounting bugs, PAPERS.md) show exactly how a broad
``except Exception: pass`` in a monitoring loop turns into unaccounted
joules.  Inside ``runtime/`` and ``faults/`` a broad handler must
therefore re-raise or visibly record what it caught.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lintkit.core import Rule, Violation, dotted_name
from repro.lintkit.project import Project

__all__ = ["MeterExceptionRule"]

#: Packages whose exception paths must keep the energy/incident books.
_SCOPED_DIRS = frozenset({"runtime", "faults"})

#: A call whose dotted target contains one of these substrings counts as
#: recording the failure (incident logs, meters, loggers, charges).
_RECORDING_MARKERS = ("log", "record", "incident", "charge", "meter")


def _is_broad(handler: ast.ExceptHandler) -> bool:
    """True for ``except:``, ``except Exception`` and ``except BaseException``."""
    if handler.type is None:
        return True
    names = []
    if isinstance(handler.type, ast.Tuple):
        names = [getattr(el, "id", None) for el in handler.type.elts]
    else:
        names = [getattr(handler.type, "id", None)]
    return any(n in ("Exception", "BaseException") for n in names)


def _handles_visibly(handler: ast.ExceptHandler) -> bool:
    """Whether the handler re-raises or records what it caught."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            target = (dotted_name(node.func) or "").lower()
            if any(marker in target for marker in _RECORDING_MARKERS):
                return True
    return False


class MeterExceptionRule(Rule):
    """Flag broad exception handlers that neither re-raise nor record."""

    code = "RL004"
    name = "meter-exception-safety"
    rationale = (
        "a broad except in runtime/faults that swallows silently leaves "
        "time and energy unaccounted and hides injected faults from the "
        "incident log"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        """Yield a violation for every silently-swallowing broad handler."""
        for mod in project.modules.values():
            if mod.top_dir not in _SCOPED_DIRS:
                continue
            for node in mod.nodes:
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if _is_broad(node) and not _handles_visibly(node):
                    caught = "bare except" if node.type is None else "except Exception"
                    yield self.hit(
                        mod,
                        node,
                        f"{caught} swallows silently in a metered path; re-raise, "
                        f"or record to the IncidentLog / charge the AccessMeter "
                        f"before continuing",
                    )
