"""Core datatypes of the ``repro lint`` static-analysis engine.

A lint run is a pipeline: collect files → parse each into an AST once →
link the :class:`~repro.lintkit.project.Project` → hand it to every
registered :class:`Rule` → filter the resulting :class:`Violation`
stream through suppression comments and the committed baseline.  This
module owns the pieces every rule sees: the violation record and the
rule base class.

Rules are pure functions of the project — no filesystem access, no
imports of the linted code (the checker must be able to lint a file that
does not even import) — which is what keeps the engine fast and safe to
run on arbitrary trees.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # circular only at type-check time: project imports core
    from repro.lintkit.project import ModuleInfo, Project

__all__ = [
    "Violation",
    "Rule",
    "dotted_name",
    "last_segment",
]


@dataclass(frozen=True, order=True)
class Violation:
    """One rule hit at one source location.

    Attributes
    ----------
    path:
        Path of the offending file as given to the engine (posix form).
    line:
        1-based source line.
    col:
        0-based column of the offending node.
    rule:
        The rule code (``RL001``...).
    message:
        Human-readable explanation with the suggested fix.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def location(self) -> str:
        """``path:line:col`` — the clickable prefix of the text reporter."""
        return f"{self.path}:{self.line}:{self.col}"

    def key(self) -> Tuple[str, str, int]:
        """The identity used by baseline matching (path, rule, line)."""
        return (self.path, self.rule, self.line)


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`code` / :attr:`name` / :attr:`rationale` and
    implement :meth:`check`, yielding :class:`Violation` records for the
    whole :class:`~repro.lintkit.project.Project` — its modules, symbol
    table and call graph.  The engine instantiates each rule once per
    run.
    """

    #: Stable rule code used in reports, suppressions and the baseline.
    code: str = "RL000"
    #: Short kebab-ish name shown by ``repro lint --list-rules``.
    name: str = "abstract-rule"
    #: One-line statement of the invariant the rule protects.
    rationale: str = ""
    #: ``(code, name, rationale)`` of the per-file twin this rule's walk
    #: also reports: the zero-hop case of an interprocedural rule.
    twin: Optional[Tuple[str, str, str]] = None

    def catalogue(self) -> List[Tuple[str, str, str]]:
        """Every ``(code, name, rationale)`` this rule reports."""
        entries = [(self.code, self.name, self.rationale)]
        return entries + [self.twin] if self.twin is not None else entries

    def check(self, project: "Project") -> Iterator[Violation]:
        """Yield every violation of this rule across ``project``."""
        raise NotImplementedError
        yield  # pragma: no cover - makes the abstract method a generator

    def hit(
        self, mod: "ModuleInfo", node: ast.AST, message: str, *, code: Optional[str] = None
    ) -> Violation:
        """Build a :class:`Violation` at ``node`` in ``mod`` (default code: :attr:`code`)."""
        return Violation(
            path=mod.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=code or self.code,
            message=message,
        )


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render a ``Name``/``Attribute`` chain as ``a.b.c`` (else ``None``).

    >>> import ast
    >>> dotted_name(ast.parse("self.meter.charge", mode="eval").body)
    'self.meter.charge'
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def last_segment(node: ast.AST) -> Optional[str]:
    """The final attribute/name of a call target (``a.b.c`` → ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def iter_child_rules(rules: Sequence[Rule]) -> List[Rule]:
    """Validate a rule set: unique, well-formed codes; returns a list.

    Raises ``ValueError`` on duplicate or malformed codes (twins
    included) so a bad registry fails at configuration time, not mid-run.
    """
    seen = set()
    out: List[Rule] = []
    for rule in rules:
        for code, _, _ in rule.catalogue():
            if not code.startswith("RL") or not code[2:].isdigit():
                raise ValueError(f"malformed rule code {code!r} on {type(rule).__name__}")
            if code in seen:
                raise ValueError(f"duplicate rule code {code}")
            seen.add(code)
        out.append(rule)
    return out
