"""Decision-attribution reports: joules saved/spent grouped by cause.

The attribution question MAGUS's case studies keep asking — "*why* did
the governor pin max at t=41.2 s, and what did that decision cost?" — is
answered by joining the decision log against the power traces:

* each decision owns the *dwell* from its timestamp to the next decision
  (the last one dwells to end of run);
* the CPU (package + DRAM) energy integrated over that dwell is what the
  decision "spent";
* the delta against the run-average CPU power over the same dwell is the
  signed cost of the decision relative to the run's own baseline —
  negative means the dwell ran cheaper than average (saved), positive
  means dearer (spent).

Causes are the governor's decision reasons (``trend_up``, ``trend_down``,
``high_freq_pin``, ``hold``, ...), re-labelled with the paper's vocabulary
where one exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence

from repro.obs.spans import Span
from repro.sim.trace import TimeSeries
from repro.units import ordered_sum

__all__ = ["CauseAttribution", "attribute_decisions", "slowest_cycles", "CAUSE_LABELS"]

#: Decision reason → report label (paper vocabulary).
CAUSE_LABELS: Dict[str, str] = {
    "trend_up": "trend-raise",
    "trend_down": "trend-drop",
    "high_freq_pin": "high-freq pin",
    "approve_pending": "approve-pending",
    "hold": "hold",
    "init": "init",
    "warmup": "warmup",
    "phase_reset": "phase-reset",
    "step_down": "step-down",
    "rollback": "rollback",
    "tdp_cap": "tdp-cap",
    "tdp_release": "tdp-release",
}


class DecisionLike(Protocol):
    """Structural view of :class:`repro.governors.base.Decision` (kept as a
    protocol so the obs layer stays import-free of the governor stack)."""

    @property
    def time_s(self) -> float: ...

    @property
    def target_ghz(self) -> Optional[float]: ...

    @property
    def reason(self) -> str: ...


@dataclass(frozen=True)
class CauseAttribution:
    """Aggregate of every decision sharing one cause."""

    cause: str
    reason: str
    decisions: int
    dwell_s: float
    cpu_energy_j: float
    #: Signed energy vs the run-average CPU power over the same dwell;
    #: negative = saved, positive = spent.
    delta_j: float
    #: Mean actuated target over the cause's actuating decisions (None if
    #: the cause never actuated, e.g. "hold").
    mean_target_ghz: Optional[float]


def attribute_decisions(
    decisions: Sequence[DecisionLike],
    cpu_power: TimeSeries,
    runtime_s: float,
) -> List[CauseAttribution]:
    """Group decisions by reason and attribute dwell energy to each cause.

    Parameters
    ----------
    decisions:
        The run's decision log, in time order.
    cpu_power:
        The combined CPU power trace in watts (package + DRAM; any power
        channel works — the attribution is against its own average).
    runtime_s:
        End of run, closing the last decision's dwell.

    Returns
    -------
    list of CauseAttribution, largest absolute delta first.
    """
    if not decisions or len(cpu_power) < 2:
        return []
    avg_w = cpu_power.mean()

    grouped: Dict[str, Dict[str, float]] = {}
    targets: Dict[str, List[float]] = {}
    for i, decision in enumerate(decisions):
        t0 = decision.time_s
        t1 = decisions[i + 1].time_s if i + 1 < len(decisions) else max(runtime_s, t0)
        if t1 <= t0:
            continue
        window = cpu_power.slice(t0, t1)
        energy = window.integral() if len(window) >= 2 else avg_w * (t1 - t0)
        bucket = grouped.setdefault(
            decision.reason, {"decisions": 0.0, "dwell_s": 0.0, "cpu_energy_j": 0.0}
        )
        bucket["decisions"] += 1
        bucket["dwell_s"] += t1 - t0
        bucket["cpu_energy_j"] += energy
        if decision.target_ghz is not None:
            targets.setdefault(decision.reason, []).append(decision.target_ghz)

    out: List[CauseAttribution] = []
    for reason, bucket in grouped.items():
        ghz = targets.get(reason)
        out.append(
            CauseAttribution(
                cause=CAUSE_LABELS.get(reason, reason),
                reason=reason,
                decisions=int(bucket["decisions"]),
                dwell_s=bucket["dwell_s"],
                cpu_energy_j=bucket["cpu_energy_j"],
                delta_j=bucket["cpu_energy_j"] - avg_w * bucket["dwell_s"],
                mean_target_ghz=ordered_sum(ghz) / len(ghz) if ghz else None,
            )
        )
    out.sort(key=lambda a: (-abs(a.delta_j), a.reason))
    return out


def slowest_cycles(spans: Sequence[Span], n: int = 10) -> List[Span]:
    """The ``n`` decision-cycle spans with the largest invocation time.

    Cycles are ranked by their ``invocation_s`` attribute (the metered
    invocation time the daemon booked) falling back to span duration, so
    the table works for both software and hardware governors.
    """
    cycles = [s for s in spans if s.name == "daemon.cycle" and s.end_s is not None]

    def keyfn(span: Span) -> float:
        inv = span.attrs.get("invocation_s")
        if isinstance(inv, (int, float)):
            return float(inv)
        return span.duration_s

    cycles.sort(key=lambda s: (-keyfn(s), s.start_s))
    return cycles[: max(n, 0)]
