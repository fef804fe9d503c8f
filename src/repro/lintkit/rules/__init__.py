"""The shipped rule set of ``repro lint``.

Each rule lives in its own module with the rationale for the invariant
it protects; :func:`default_rules` assembles the registry the engine
runs.  Two rules also report the per-file twin of their invariant from
the same walk: :class:`UnitsFlowRule` (RL010) reports RL003 and
:class:`ParallelSharedStateRule` (RL009) reports RL005.  Adding a rule
means adding a module here and listing it below — the fixture-driven
tests in ``tests/test_lintkit*.py`` hold every code to a
fires-on-bad / silent-on-clean pair.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.lintkit.core import Rule, iter_child_rules
from repro.lintkit.rules.determinism import DeterminismRule
from repro.lintkit.rules.guard import GuardBypassRule
from repro.lintkit.rules.meters import MeterExceptionRule
from repro.lintkit.rules.metrics import MetricNameRule
from repro.lintkit.rules.msr import MSRSafetyRule
from repro.lintkit.rules.races import ParallelSharedStateRule
from repro.lintkit.rules.seeds import SeedProvenanceRule
from repro.lintkit.rules.unitsflow import UnitsFlowRule

__all__ = [
    "DeterminismRule",
    "MSRSafetyRule",
    "MeterExceptionRule",
    "MetricNameRule",
    "GuardBypassRule",
    "SeedProvenanceRule",
    "ParallelSharedStateRule",
    "UnitsFlowRule",
    "default_rules",
    "rule_catalogue",
]


def default_rules() -> Tuple[Rule, ...]:
    """Instantiate the rule set, in code order."""
    return tuple(
        iter_child_rules(
            [
                DeterminismRule(),
                MSRSafetyRule(),
                MeterExceptionRule(),
                MetricNameRule(),
                GuardBypassRule(),
                SeedProvenanceRule(),
                ParallelSharedStateRule(),
                UnitsFlowRule(),
            ]
        )
    )


def rule_catalogue() -> List[Tuple[str, str, str]]:
    """``(code, name, rationale)`` of every code the rule set reports, sorted."""
    return sorted(entry for rule in default_rules() for entry in rule.catalogue())
