"""SpanTracer: nested, decision-attributed spans on the simulation clock.

A span is one timed region of *simulated* time — a daemon decision cycle,
the PCM sample inside it, the MSR actuation write. Timestamps are always
passed in by the caller (``now_s + meter.time_s``-style), never read from
a clock, so tracing is deterministic and RL001-clean by construction.

Nesting is tracked with an explicit stack: ``begin`` pushes, ``end`` pops
(closing any still-open children first, so an exception that unwinds past
an inner span cannot corrupt the tree). Span ids are consecutive integers
— two runs with the same seed produce byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import ObsError
from repro.obs.registry import validate_metric_name

__all__ = ["Span", "SpanTracer"]

#: Attribute types kept as they are, matched exactly: a cycle's attributes
#: are almost all of these, and one set lookup is cheaper than the checks.
_PLAIN_TYPES = frozenset({type(None), bool, int, float, str})


def _coerce_attr(value: object) -> object:
    """Normalise an attribute value for lossless JSON export."""
    if type(value) in _PLAIN_TYPES:
        return value
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    try:
        # numpy scalars and friends: keep the number, drop the dtype.
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return str(value)


@dataclass
class Span:
    """One timed region of simulated time.

    ``end_s`` is ``None`` while the span is open; ``ok`` flips to False
    when the span was aborted (its cycle raised).
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start_s: float
    end_s: Optional[float] = None
    ok: bool = True
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Span duration (0 while still open)."""
        return 0.0 if self.end_s is None else self.end_s - self.start_s


def _coerce_attrs(attrs: Dict[str, object]) -> Dict[str, object]:
    """``attrs`` normalised for export (see :func:`_coerce_attr`)."""
    return {k: _coerce_attr(v) for k, v in attrs.items()}


class SpanTracer:
    """Records nested spans with caller-supplied simulated timestamps.

    A decision cycle records a handful of spans, so each call is kept to a
    positional :class:`Span`, a set lookup for the name and one C-level pass
    over the attribute types (attributes that are all of plain types are
    kept as passed).
    """

    __slots__ = ("spans", "_stack", "_next_id", "_names")

    def __init__(self) -> None:
        #: Every span ever begun, in begin order (open spans included).
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1
        # Names already validated; a run reuses a handful of them.
        self._names: Set[str] = set()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record(
        self, name: str, start_s: float, end_s: Optional[float], category: str, attrs
    ) -> Span:
        if name not in self._names:
            self._names.add(validate_metric_name(name))
        stack = self._stack
        if not all(map(_PLAIN_TYPES.__contains__, map(type, attrs.values()))):
            attrs = _coerce_attrs(attrs)
        span = Span(
            self._next_id,
            stack[-1].span_id if stack else None,
            name,
            category,
            start_s,
            end_s,
            True,
            attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def begin(self, name: str, start_s: float, category: str = "span", **attrs: object) -> int:
        """Open a span at simulated time ``start_s``; returns its id."""
        span = self._record(name, start_s, None, category, attrs)
        self._stack.append(span)
        return span.span_id

    def end(self, span_id: int, end_s: float, **attrs: object) -> Span:
        """Close the span ``span_id`` at ``end_s``, merging extra attributes.

        Any children still open above it on the stack are closed at the
        same timestamp (an exception unwound past them).
        """
        return self._close(span_id, end_s, True, attrs)

    def abort(self, span_id: int, end_s: float, **attrs: object) -> Span:
        """Close ``span_id`` marking it (and unwound children) failed."""
        return self._close(span_id, end_s, False, attrs)

    def _close(self, span_id: int, end_s: float, ok: bool, attrs) -> Span:
        span = self._pop_to(span_id)
        stack = self._stack
        while stack[-1] is not span:
            orphan = stack.pop()
            orphan.end_s = end_s
            if not ok:
                orphan.ok = False
        stack.pop()
        span.end_s = end_s
        if not ok:
            span.ok = False
        if not all(map(_PLAIN_TYPES.__contains__, map(type, attrs.values()))):
            attrs = _coerce_attrs(attrs)
        span.attrs.update(attrs)
        return span

    def instant(self, name: str, time_s: float, category: str = "span", **attrs: object) -> Span:
        """Record a zero-duration span at ``time_s``."""
        return self._record(name, time_s, time_s, category, attrs)

    def finish(self, end_s: float) -> None:
        """Close every still-open span (end of run)."""
        while self._stack:
            self._stack.pop().end_s = end_s

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def open_count(self) -> int:
        """Number of spans currently open."""
        return len(self._stack)

    def named(self, name: str) -> List[Span]:
        """All spans called ``name``, in begin order."""
        return [s for s in self.spans if s.name == name]

    def _pop_to(self, span_id: int) -> Span:
        for span in reversed(self._stack):
            if span.span_id == span_id:
                return span
        raise ObsError(f"span id {span_id} is not open (double end, or never begun)")

    def __len__(self) -> int:
        return len(self.spans)
