"""RL006 — metric/span name hygiene: static, lowercase, dotted.

The observability layer's merge/export pipeline only works when metric
and span names form a *small, closed* set: Prometheus scrapes explode on
unbounded name cardinality, registry merges across pool workers rely on
identical names meeting each other, and the Chrome-trace viewer groups
rows by exact name. A name built with an f-string (``f"cycle.{i}"``)
silently mints a new time series per value — the classic cardinality
leak — and a name like ``"CycleEnergy"`` never merges with its
snake_case sibling.

The grammar is the one :func:`repro.obs.registry.validate_metric_name`
enforces at runtime (lowercase dotted, ``repro.daemon.cycles``-style);
this rule moves the check to lint time for every *literal* name and
outlaws every *dynamic* construction (f-string, concatenation, ``%``,
``str.format``) outright. Names passed as variables are allowed — the
runtime validator still covers them, and tables like
``ACCESS_COUNTER_NAMES`` are the sanctioned way to map dynamic inputs
onto the closed name set.

The same grammar (and the same cardinality argument) covers the
time-series store and the alert engine: ``tsdb.series(...)`` /
``tsdb.record(...)`` names key ring buffers that must meet their
siblings in cross-worker merges, and alert-rule names/series references
(:class:`~repro.obs.alerts.ThresholdRule` and friends) land verbatim in
the incident log and the alerts JSON artifact.  Varying dimensions
belong in labels (``{"node": "3"}``), never in names.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lintkit.core import Rule, Violation, last_segment
from repro.lintkit.project import ModuleInfo, Project
from repro.obs.registry import METRIC_NAME_RE

__all__ = ["MetricNameRule"]

#: Registry instrument constructors (first argument is the metric name).
_REGISTRY_METHODS = frozenset({"counter", "gauge", "histogram"})

#: Tracer recording calls (first argument is the span name).
_TRACER_METHODS = frozenset({"begin", "instant"})

#: Receiver name fragments that identify a metrics registry.
_REGISTRY_RECEIVERS = ("registry", "metrics")

#: Receiver name fragments that identify a span tracer.
_TRACER_RECEIVERS = ("tracer",)

#: Time-series store write path (first argument is the series name).
_TSDB_METHODS = frozenset({"series", "record"})

#: Receiver name fragments that identify a time-series store.
_TSDB_RECEIVERS = ("tsdb", "db")

#: Alert-rule constructors; receiver-less, so matched by name alone.
_ALERT_RULE_CTORS = frozenset(
    {"ThresholdRule", "BurnRateRule", "AbsenceRule", "AnomalyRule"}
)

#: Every name-bearing alert-rule parameter: the rule's own name, the
#: series it targets, and (burn rate) the threshold staircase series.
_ALERT_NAME_PARAMS = ("name", "series", "threshold_series")


def _receiver_hint(func: ast.AST) -> Optional[str]:
    """The receiver identifier of a method call (``obs.tracer.begin`` →
    ``tracer``), or ``None`` for plain-name calls."""
    if isinstance(func, ast.Attribute):
        return last_segment(func.value)
    return None


def _name_argument(call: ast.Call) -> Optional[ast.expr]:
    """The expression bound to the call's ``name`` parameter."""
    if call.args:
        return call.args[0]
    for kw in call.keywords:
        if kw.arg == "name":
            return kw.value
    return None


def _alert_name_arguments(call: ast.Call) -> Iterator[ast.expr]:
    """Every name-bearing argument of an alert-rule constructor.

    Positionally ``(name, series, ...)``; ``threshold_series`` is
    keyword-only in every rule that has it.
    """
    for arg in call.args[:2]:
        yield arg
    for kw in call.keywords:
        if kw.arg in _ALERT_NAME_PARAMS:
            yield kw.value


def _dynamic_form(node: ast.expr) -> Optional[str]:
    """How a name expression is dynamically built (``None`` if it isn't)."""
    if isinstance(node, ast.JoinedStr):
        return "an f-string"
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod)):
        return "string concatenation" if isinstance(node.op, ast.Add) else "%-formatting"
    if isinstance(node, ast.Call) and last_segment(node.func) == "format":
        return "str.format()"
    return None


class MetricNameRule(Rule):
    """Flag dynamic or grammar-breaking metric/span names."""

    code = "RL006"
    name = "metric-name-hygiene"
    rationale = (
        "a metric/span name built at runtime mints unbounded Prometheus "
        "series and breaks registry merges; names must be static "
        "lowercase dotted literals"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        """Yield a violation for every suspect instrument/span/series name."""
        for mod in project.modules.values():
            yield from self._check_module(mod)

    def _check_module(self, mod: ModuleInfo) -> Iterator[Violation]:
        for node in mod.nodes:
            if not isinstance(node, ast.Call):
                continue
            method = last_segment(node.func)
            if method in _ALERT_RULE_CTORS:
                # Receiver-less constructors: every name-bearing argument
                # (rule name, target series, threshold series) is checked.
                for arg in _alert_name_arguments(node):
                    yield from self._check_name(mod, f"{method}(...)", arg)
                continue
            receiver = (_receiver_hint(node.func) or "").lower()
            if method in _REGISTRY_METHODS:
                hints = _REGISTRY_RECEIVERS
            elif method in _TRACER_METHODS:
                hints = _TRACER_RECEIVERS
            elif method in _TSDB_METHODS:
                hints = _TSDB_RECEIVERS
            else:
                continue
            if not any(hint in receiver for hint in hints):
                continue
            arg = _name_argument(node)
            if arg is None:
                continue
            yield from self._check_name(mod, f".{method}()", arg)

    def _check_name(
        self, mod: ModuleInfo, where: str, arg: ast.expr
    ) -> Iterator[Violation]:
        """One name expression: outlaw dynamic builds, grammar-check literals."""
        form = _dynamic_form(arg)
        if form is not None:
            yield self.hit(
                mod,
                arg,
                f"metric/span/series name for {where} is built with {form}; "
                f"dynamic names mint unbounded series — use a static "
                f"literal and put the varying part in an attribute or label",
            )
        elif isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if not METRIC_NAME_RE.match(arg.value):
                yield self.hit(
                    mod,
                    arg,
                    f"metric/span/series name {arg.value!r} breaks the lowercase "
                    f"dotted grammar {METRIC_NAME_RE.pattern!r} "
                    f"(e.g. 'repro.daemon.cycles')",
                )
