"""RL007 — guard bypass: governors must read telemetry through the guard.

The telemetry-integrity layer (``repro.guard``) only protects what flows
through it.  Governors read counters via ``ctx.telemetry`` — which
resolves to the installed :class:`~repro.guard.core.TelemetryGuard` or to
the raw pass-through view when no guard is configured — so a guarded run
validates *every* sample a policy consumes.  A governor that grabs a raw
device handle off the hub (``ctx.hub.pcm.read_throughput_mbps(...)``)
punches a hole in that trust boundary: corrupt samples reach policy
logic unvalidated, circuit breakers never see the access, and the
detection-coverage guarantees silently stop holding for that code path.

The rule is scoped to the policy packages (``core/``, ``governors/``):
everything below the guard in the trust chain — the hub itself, the
backends, the guard, the injector proxies — touches devices by design.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lintkit.core import Rule, Violation, dotted_name, last_segment
from repro.lintkit.project import Project

__all__ = ["GuardBypassRule"]

#: Hub attributes that hand out raw telemetry/actuation device handles.
_DEVICE_ATTRS = frozenset({"pcm", "msr", "rapl", "hsmp", "nvml"})

#: Directories holding policy code (the guarded side of the trust boundary).
_SCOPED_DIRS = frozenset({"core", "governors"})


class GuardBypassRule(Rule):
    """Flag raw hub device-handle access in governor/policy code."""

    code = "RL007"
    name = "guard-bypass"
    rationale = (
        "a governor reading a raw hub device handle bypasses the "
        "telemetry guard's validation and circuit breakers; policies must "
        "read through ctx.telemetry"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        """Yield a violation for every raw device handle taken off a hub."""
        for mod in project.modules.values():
            if mod.top_dir not in _SCOPED_DIRS:
                continue
            for node in mod.nodes:
                if not isinstance(node, ast.Attribute) or node.attr not in _DEVICE_ATTRS:
                    continue
                if last_segment(node.value) != "hub":
                    continue
                expr = dotted_name(node) or f"<hub>.{node.attr}"
                yield self.hit(
                    mod,
                    node,
                    f"policy code takes the raw device handle {expr!r}, bypassing "
                    f"the telemetry guard; read through ctx.telemetry (guarded "
                    f"when a guard is installed, pass-through otherwise)",
                )
