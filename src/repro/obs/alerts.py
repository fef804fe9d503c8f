"""Alert rules evaluated on *simulated* time over the TSDB.

The engine is a deterministic SLO checker, not a monitoring daemon: rules
are evaluated at explicit simulation timestamps (the coordinated-fleet
control loop calls :meth:`AlertEngine.evaluate` once per epoch), so two
runs with the same seed produce the identical alert stream — firings are
artefacts of the simulation, never of wall-clock scheduling jitter.

Four rule families cover the fleet failure modes the paper's power-budget
regime cares about:

* :class:`ThresholdRule` — instantaneous comparison with an optional
  ``for_s`` hold (fire only after the condition has held that long);
* :class:`BurnRateRule` — time-weighted fraction of a rolling window in
  violation (``demand > granted`` for more than X% of the last N seconds),
  against a static threshold or a second series' staircase;
* :class:`AbsenceRule` — staleness: no sample within ``stale_after_s``
  (silent node, stalled heartbeat);
* :class:`AnomalyRule` — EWMA mean/variance z-score on new samples
  (governor oscillation, predicted-vs-observed drift).

Rule names use the RL006 dotted grammar (``repro.alert.fleet.overload``)
so the lint pass can audit the alert namespace exactly like the metric
namespace. Each rule fans out over every label-set of its series, and
every (rule, label-set) pair keeps an independent firing/resolved
lifecycle. Transitions append :class:`AlertEvent` records and mirror into
the shared :class:`~repro.faults.incidents.IncidentLog` under
``source="alerts"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ObsError
from repro.faults.incidents import Incident, IncidentLog
from repro.obs.registry import validate_metric_name
from repro.obs.tsdb import Series, TimeSeriesDB
from repro.units import require_finite

__all__ = [
    "SEV_WARN",
    "SEV_PAGE",
    "AlertEvent",
    "AlertRule",
    "ThresholdRule",
    "BurnRateRule",
    "AbsenceRule",
    "AnomalyRule",
    "AlertEngine",
]

SEV_WARN = "warn"
SEV_PAGE = "page"
_SEVERITIES = (SEV_WARN, SEV_PAGE)

#: What a rule's check leaves for its detail text: a ``str.format``
#: template, then the values it formats.
Facts = Tuple[object, ...]

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


def _number(rule: str, field: str, value: float) -> float:
    """``value`` as a float; NaN raises (no comparison with it ever holds)."""
    value = float(value)
    require_finite(
        value,
        error=lambda _: ObsError(f"alert rule {rule!r}: {field} must not be NaN"),
        allow_inf=True,
    )
    return value


@dataclass(frozen=True)
class AlertEvent:
    """One firing/resolved transition of one (rule, label-set) pair."""

    time_s: float
    rule: str
    severity: str
    state: str  # "firing" | "resolved"
    labels: Tuple[Tuple[str, str], ...]
    value: float
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "time_s": self.time_s,
            "rule": self.rule,
            "severity": self.severity,
            "state": self.state,
            "labels": dict(self.labels),
            "value": self.value,
            "detail": self.detail,
        }


class AlertRule:
    """Base rule: a named, severity-tagged condition over one series."""

    def __init__(self, name: str, series: str, *, severity: str = SEV_WARN) -> None:
        self.name = validate_metric_name(name)
        self.series = series
        if severity not in _SEVERITIES:
            raise ObsError(f"alert rule {name!r}: severity must be one of {_SEVERITIES}")
        self.severity = severity

    def targets(self, tsdb: TimeSeriesDB) -> List[Series]:
        """The label-sets this rule fans out over (sorted, deterministic)."""
        return tsdb.query(self.series)

    def check(
        self, tsdb: TimeSeriesDB, target: Series, now_s: float, state: Dict[str, float]
    ) -> Tuple[bool, float, Facts]:
        """Evaluate on one label-set: (violated, observed value, facts).

        ``state`` is this (rule, label-set) pair's private mutable dict,
        persisted across evaluations (hold timers, EWMA moments). ``facts``
        are what :meth:`detail` formats: a ``str.format`` template and the
        values it reads, kept unformatted because most checks flip nothing.
        """
        raise NotImplementedError

    @staticmethod
    def detail(facts: Facts) -> str:
        """The detail text of a check's ``facts``; formatted only for a
        transition."""
        return facts[0].format(*facts[1:])


class ThresholdRule(AlertRule):
    """``series <op> threshold``, with an optional ``for_s`` hold time."""

    def __init__(
        self,
        name: str,
        series: str,
        op: str,
        threshold: float,
        *,
        for_s: float = 0.0,
        severity: str = SEV_WARN,
    ) -> None:
        super().__init__(name, series, severity=severity)
        if op not in _OPS:
            raise ObsError(f"alert rule {name!r}: unknown comparison {op!r}")
        self.op = op
        self.threshold = _number(name, "threshold", threshold)
        self.for_s = _number(name, "for_s", for_s)

    def check(
        self, tsdb: TimeSeriesDB, target: Series, now_s: float, state: Dict[str, float]
    ) -> Tuple[bool, float, Facts]:
        value = target.value_at(now_s)
        if value is None:
            state.pop("held_since", None)
            return False, 0.0, ("no data",)
        violated = _OPS[self.op](value, self.threshold)
        if not violated:
            state.pop("held_since", None)
            return False, value, ("{:.6g} !{} {:.6g}", value, self.op, self.threshold)
        held_since = state.setdefault("held_since", now_s)
        if now_s - held_since < self.for_s:
            return False, value, ("holding since t={:.6g}", held_since)
        return (
            True,
            value,
            ("{:.6g} {} {:.6g} for {:.6g}s", value, self.op, self.threshold, now_s - held_since),
        )


class BurnRateRule(AlertRule):
    """Time-weighted violation fraction over a rolling window.

    The condition ``series <op> threshold`` is integrated over
    ``[now - window_s, now]`` with staircase semantics (each sample's
    value holds until the next sample); the rule fires when the violating
    fraction exceeds ``burn_frac``. ``threshold_series`` makes the
    threshold itself a staircase — e.g. fleet demand vs the coordinator's
    granted sum, the page that catches a partitioned coordinator starving
    live nodes.

    When the threshold is a per-fan-out series (same labels as the
    target), each label-set compares against its own threshold staircase;
    a label-less threshold series is shared by every target.
    """

    def __init__(
        self,
        name: str,
        series: str,
        op: str,
        *,
        window_s: float,
        burn_frac: float,
        threshold: Optional[float] = None,
        threshold_series: Optional[str] = None,
        severity: str = SEV_WARN,
    ) -> None:
        super().__init__(name, series, severity=severity)
        if op not in _OPS:
            raise ObsError(f"alert rule {name!r}: unknown comparison {op!r}")
        if (threshold is None) == (threshold_series is None):
            raise ObsError(
                f"alert rule {name!r}: exactly one of threshold/threshold_series"
            )
        window_s = _number(name, "window_s", window_s)
        if window_s <= 0 or not (0.0 < burn_frac <= 1.0):
            raise ObsError(f"alert rule {name!r}: invalid window/burn_frac")
        self.op = op
        self.window_s = window_s
        self.burn_frac = float(burn_frac)
        self.threshold = None if threshold is None else _number(name, "threshold", threshold)
        self.threshold_series = threshold_series

    def _threshold_ref(self, tsdb: TimeSeriesDB, target: Series) -> Optional[Series]:
        """The threshold staircase for ``target``: same labels, else label-less."""
        assert self.threshold_series is not None
        ref = tsdb.get(self.threshold_series, dict(target.labels))
        if ref is None:
            ref = tsdb.get(self.threshold_series, None)
        return ref

    def check(
        self, tsdb: TimeSeriesDB, target: Series, now_s: float, state: Dict[str, float]
    ) -> Tuple[bool, float, Facts]:
        t0 = now_s - self.window_s
        # Segments run from the window start to each distinct target
        # sample time inside the window, then to ``now_s``. Each segment
        # holds the target's and the threshold's staircase values at its
        # left end (exact when both series share the scrape cadence,
        # conservative otherwise). One walk over both series' breakpoints
        # reads what ``value_at(left)`` reads; before a series' first raw
        # breakpoint it asks ``value_at`` itself, which falls back to the
        # buckets (DESIGN.md §6k).
        times, values = target.steps(t0, now_s)
        n = len(times)
        i = 0
        if n and times[0] <= t0:
            value: Optional[float] = values[0]
            i = 1
        else:
            value = target.value_at(t0)
        # Resolved once: a missing threshold series leaves ``limit`` None.
        ref = self._threshold_ref(tsdb, target) if self.threshold is None else None
        limit = self.threshold
        if ref is not None:
            ref_times, ref_values = ref.steps(t0, now_s)
        else:
            ref_times, ref_values = [], []
        ref_n = len(ref_times)
        j = 0
        op = _OPS[self.op]
        violating_s = 0.0
        covered_s = 0.0
        left = t0
        while True:
            right = times[i] if i < n else now_s
            if right > left:
                if ref is not None:
                    while j < ref_n and ref_times[j] <= left:
                        j += 1
                    limit = ref_values[j - 1] if j else ref.value_at(left)
                if value is not None and limit is not None:
                    covered_s += right - left
                    if op(value, limit):
                        violating_s += right - left
                left = right
            if i >= n:
                break
            # Equal timestamps: the last one's value holds from ``left``.
            value = values[i]
            i += 1
        if covered_s <= 0.0:
            return False, 0.0, ("no data in window",)
        frac = violating_s / self.window_s
        return (
            frac > self.burn_frac,
            frac,
            (
                "violating {:.1f}% of {:.6g}s window (gate {:.1f}%)",
                frac * 100,
                self.window_s,
                self.burn_frac * 100,
            ),
        )


class AbsenceRule(AlertRule):
    """Fires when a series goes silent for longer than ``stale_after_s``."""

    def __init__(
        self,
        name: str,
        series: str,
        *,
        stale_after_s: float,
        severity: str = SEV_WARN,
    ) -> None:
        super().__init__(name, series, severity=severity)
        stale_after_s = _number(name, "stale_after_s", stale_after_s)
        if stale_after_s <= 0:
            raise ObsError(f"alert rule {name!r}: stale_after_s must be > 0")
        self.stale_after_s = stale_after_s

    def check(
        self, tsdb: TimeSeriesDB, target: Series, now_s: float, state: Dict[str, float]
    ) -> Tuple[bool, float, Facts]:
        latest = target.latest()
        if latest is None:
            return False, 0.0, ("never reported",)
        age_s = now_s - latest[0]
        return (
            age_s > self.stale_after_s,
            age_s,
            ("last sample {:.6g}s ago (stale after {:.6g}s)", age_s, self.stale_after_s),
        )


class AnomalyRule(AlertRule):
    """EWMA z-score: fires when a new sample departs its own history.

    Keeps exponentially-weighted mean/variance per label-set; each new
    sample is scored against the moments *before* it is absorbed, so a
    step change alarms once and then becomes the new normal (governor
    oscillation shows up as repeated firings instead).
    """

    def __init__(
        self,
        name: str,
        series: str,
        *,
        z_threshold: float = 4.0,
        alpha: float = 0.1,
        warmup: int = 8,
        min_sigma: float = 1e-9,
        severity: str = SEV_WARN,
    ) -> None:
        super().__init__(name, series, severity=severity)
        z_threshold = _number(name, "z_threshold", z_threshold)
        if not (0.0 < alpha < 1.0) or z_threshold <= 0 or warmup < 2:
            raise ObsError(f"alert rule {name!r}: invalid EWMA parameters")
        self.z_threshold = z_threshold
        self.alpha = float(alpha)
        self.warmup = int(warmup)
        self.min_sigma = _number(name, "min_sigma", min_sigma)

    def check(
        self, tsdb: TimeSeriesDB, target: Series, now_s: float, state: Dict[str, float]
    ) -> Tuple[bool, float, Facts]:
        last_seen = state.get("last_seen_s", float("-inf"))
        # Samples newer than the last one scored, none before t=0.
        if last_seen >= 0.0:
            fresh = target.samples_after(last_seen, now_s)
        else:
            fresh = target.samples_between(0.0, now_s)
        n = state.get("n", 0.0)
        mean = state.get("mean", 0.0)
        var = state.get("var", 0.0)
        worst_z = 0.0
        alpha = self.alpha
        for t, v in fresh:
            if n >= self.warmup:
                sigma = sqrt(var) if var > 0 else 0.0
                if sigma > self.min_sigma:
                    z = abs(v - mean) / sigma
                    if z > worst_z:
                        worst_z = z
            delta = v - mean
            mean += alpha * delta
            var = (1.0 - alpha) * (var + alpha * delta * delta)
            n += 1.0
            state["last_seen_s"] = t
        state["n"] = n
        state["mean"] = mean
        state["var"] = var
        return (
            worst_z > self.z_threshold,
            worst_z,
            (
                "max |z| {:.3g} over {} new samples (gate {:.3g})",
                worst_z,
                len(fresh),
                self.z_threshold,
            ),
        )


class AlertEngine:
    """Evaluates a rule pack against a TSDB at simulation timestamps.

    One engine owns the firing state for one run; call
    :meth:`evaluate` whenever the control loop reaches an evaluation
    instant (every coordinator epoch, every daemon heartbeat — any
    deterministic cadence). Transitions are appended to :attr:`events`
    and, when an :class:`IncidentLog` is attached, mirrored there with
    ``source="alerts"`` so a fleet run's incident stream interleaves
    injected faults, supervisor responses and SLO breaches on one clock.
    """

    def __init__(
        self,
        tsdb: TimeSeriesDB,
        rules: Sequence[AlertRule],
        *,
        incidents: Optional[IncidentLog] = None,
    ) -> None:
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise ObsError(f"duplicate alert rule names: {sorted(names)!r}")
        self.tsdb = tsdb
        self.rules = list(rules)
        self.incidents = incidents
        self.events: List[AlertEvent] = []
        #: (rule name, labels) → True while firing.
        self._firing: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], bool] = {}
        self._state: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Dict[str, float]] = {}

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, now_s: float) -> List[AlertEvent]:
        """Run every rule at simulated time ``now_s``; return new transitions."""
        transitions: List[AlertEvent] = []
        for rule in self.rules:
            for target in rule.targets(self.tsdb):
                key = (rule.name, target.labels)
                state = self._state.setdefault(key, {})
                violated, value, facts = rule.check(self.tsdb, target, now_s, state)
                was_firing = self._firing.get(key, False)
                if violated == was_firing:
                    continue
                self._firing[key] = violated
                detail = rule.detail(facts)
                event = AlertEvent(
                    time_s=now_s,
                    rule=rule.name,
                    severity=rule.severity,
                    state="firing" if violated else "resolved",
                    labels=target.labels,
                    value=value,
                    detail=detail,
                )
                transitions.append(event)
                self.events.append(event)
                if self.incidents is not None:
                    labels = dict(target.labels)
                    self.incidents.append(
                        Incident(
                            time_s=now_s,
                            source="alerts",
                            device=labels.get("node", labels.get("device", "fleet")),
                            fault=rule.series,
                            action=rule.severity,
                            outcome=event.state,
                            detail=f"{rule.name}: {detail}",
                        )
                    )
        return transitions

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def firing(self, severity: Optional[str] = None) -> List[Tuple[str, Tuple[Tuple[str, str], ...]]]:
        """Currently-firing (rule, labels) pairs, sorted; filter by severity."""
        by_name = {r.name: r for r in self.rules}
        return sorted(
            key
            for key, live in self._firing.items()
            if live and (severity is None or by_name[key[0]].severity == severity)
        )

    def ever_fired(self, severity: Optional[str] = None) -> List[AlertEvent]:
        """Every ``firing`` transition seen, optionally filtered by severity."""
        return [
            e
            for e in self.events
            if e.state == "firing" and (severity is None or e.severity == severity)
        ]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary: rules, event stream, firing snapshot."""
        by_name = {r.name: r for r in self.rules}
        return {
            "rules": [
                {
                    "name": r.name,
                    "kind": type(r).__name__,
                    "series": r.series,
                    "severity": r.severity,
                }
                for r in self.rules
            ],
            "events": [e.to_dict() for e in self.events],
            "firing": [
                {
                    "rule": name,
                    "severity": by_name[name].severity,
                    "labels": dict(labels),
                }
                for name, labels in self.firing()
            ],
            "pages_fired": len(self.ever_fired(SEV_PAGE)),
            "warns_fired": len(self.ever_fired(SEV_WARN)),
        }
