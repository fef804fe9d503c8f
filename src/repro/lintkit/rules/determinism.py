"""RL001 — determinism: no wall clocks or global RNGs in simulated code.

The golden-trace tests pin entire runs bit-for-bit, fault campaigns
replay from a seed, and campaign resume validates artefact hashes.  All
of that dies the moment simulated code reads the host's clock or an
unseeded/global random stream.  Inside the simulation packages
(``sim/``, ``governors/``, ``cluster/``, ``faults/``, ``coordinator/``)
time must come
from :class:`repro.sim.clock.SimClock` and randomness from
:mod:`repro.sim.rng` (``RngStreams`` / ``spawn_generator``), never from
``time.time()``-style wall clocks, the ``random`` module, or direct
``numpy.random`` constructors.

``sim/clock.py`` and ``sim/rng.py`` are exempt: they *are* the sanctioned
implementations.

Call targets resolve through :attr:`ModuleInfo.imports
<repro.lintkit.project.ModuleInfo.imports>`, the same alias map the call
graph (and with it RL008's seed provenance) resolves through.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lintkit.core import Rule, Violation, dotted_name
from repro.lintkit.project import ModuleInfo, Project

__all__ = ["DeterminismRule"]

#: Packages whose code runs inside (or replays against) the simulation.
_SCOPED_DIRS = frozenset({"sim", "governors", "cluster", "faults", "obs", "coordinator"})

#: The sanctioned clock/rng implementations themselves.
_EXEMPT_FILES = frozenset({"sim/clock.py", "sim/rng.py"})

#: Exact canonical call targets that read the host clock.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Canonical module prefixes whose *call* targets are nondeterministic
#: (or bypass the seed-derivation discipline of :mod:`repro.sim.rng`).
_BANNED_PREFIXES = ("random.", "numpy.random.")


class DeterminismRule(Rule):
    """Flag wall-clock reads and global/unmanaged RNG use in simulated code."""

    code = "RL001"
    name = "determinism"
    rationale = (
        "simulated code must draw time from sim.clock and randomness from "
        "sim.rng so runs replay bit-for-bit from a seed"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        """Yield a violation for every banned clock/RNG call."""
        for mod in project.modules.values():
            if mod.top_dir in _SCOPED_DIRS and mod.pkg_path not in _EXEMPT_FILES:
                yield from self._check_module(mod)

    def _check_module(self, mod: ModuleInfo) -> Iterator[Violation]:
        for node in mod.nodes:
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            target = mod.canonical(dotted) if dotted is not None else None
            if target is None:
                continue
            if target in _WALL_CLOCK_CALLS:
                yield self.hit(
                    mod,
                    node,
                    f"wall-clock call {target}() in simulated code; use the "
                    f"SimClock the engine hands you (repro.sim.clock)",
                )
            elif target.startswith(_BANNED_PREFIXES) or target == "random":
                yield self.hit(
                    mod,
                    node,
                    f"direct RNG construction/use {target}() in simulated code; "
                    f"draw from repro.sim.rng (RngStreams.get or spawn_generator) "
                    f"so streams derive from the run seed",
                )
