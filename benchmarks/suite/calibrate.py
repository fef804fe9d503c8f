"""Raw host time -> reference seconds (see ``kernel.py``).

Each stretch of host time comes with kernel units timed next to it: a gap
of back-to-back units right before it and right after it and, for a
timed iteration, probe units taken during it (``child.py``). A gap counts
as its median unit, so one descheduled unit does not move it. The
machine's speed over the stretch is the mean of the speeds these units
show, ``UNIT_NOMINAL_NS / unit``, and the stretch in reference seconds is
its host time times that speed. Probe time is not part of the stretch.
Set-up time is calibrated the same way with setup units in place of
kernel units.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Sequence

from kernel import REF_NOMINAL_S, SETUP_UNIT_NOMINAL_S, UNITS

__all__ = ["UNIT_NOMINAL_NS", "iteration_ref_s", "iteration_speed", "setup_ref_s", "speed"]

#: Nominal duration of one kernel unit.
UNIT_NOMINAL_NS = REF_NOMINAL_S * 1e9 / UNITS


def speed(units_ns: Iterable[float]) -> float:
    """Reference time per host time: the mean speed the units show."""
    return statistics.mean(UNIT_NOMINAL_NS / u for u in units_ns)


def _edges(before: Sequence[int], after: Sequence[int]) -> List[float]:
    return [statistics.median(before), statistics.median(after)]


def iteration_speed(rec: Dict, gaps: List[List[int]]) -> float:
    """Reference time per host time over one iteration (``rec`` from ``child.py``)."""
    edges = _edges(gaps[rec["gap"]], gaps[rec["gap"] + 1])
    return speed(edges + [unit for _, _, unit in rec["probes"]])


def iteration_ref_s(rec: Dict, gaps: List[List[int]]) -> float:
    """Reference seconds of one iteration, its probes' time taken out."""
    work_ns = rec["t_ns"] - sum(whole for _, whole, _ in rec["probes"])
    return work_ns / 1e9 * iteration_speed(rec, gaps)


def setup_ref_s(launched_s: float, doc: Dict) -> float:
    """Reference seconds from a launch until the child's inputs were ready.

    ``doc`` is the setup child's report: the setup units it ran right
    before and after building the inputs, and how long the first ones took.
    """
    raw_s = doc["ready_s"] - launched_s - doc["kernel_ns"] / 1e9
    units = doc["units"]
    edges = _edges(units[:UNITS], units[UNITS:])
    return raw_s * statistics.mean(SETUP_UNIT_NOMINAL_S * 1e9 / u for u in edges)
