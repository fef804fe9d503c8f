"""RL008 — seed provenance: every RNG sink derives from a master seed.

The golden-trace gate proves at *runtime* that a run replays bit-for-bit
from its seed; this rule is the static counterpart.  Every generator
construction point in the deterministic packages —
``spawn_generator(seed)``, ``derive_seed(master, name)``, ``RngStreams``
and ``LatencyModel`` seeding — must receive a value the dataflow lattice
can trace back to a master-seed source: a ``seed``/``master_seed``/
``*_seed`` parameter, a seed-suffixed attribute (``self.seed``,
``cfg.master_seed``), or the result of ``derive_seed`` on such a value —
through any chain of local assignments, helper returns and keyword
arguments.

Two taint verdicts violate:

* **literal** — the value provably bottoms out in a numeric literal
  (``spawn_generator(1234)``, or a helper that ``return 42``s into the
  sink three calls away).  A hard-coded seed silently decouples a
  component's stream from the run seed: replays "work" while sweeps
  stop covering seed space.
* **unknown** — the lattice cannot connect the value to any master-seed
  source.  Inside the scoped packages every sanctioned pattern *is*
  provable, so an unprovable seed is either a bug or a new pattern that
  deserves an explicit suppression with rationale.

Scoped to ``sim/``, ``faults/``, ``coordinator/``, ``backends/`` and
``guard/``; ``sim/rng.py`` is exempt (it is the sanctioned
implementation).  Literal seeds passed to a *seed parameter of any
project function* from scoped code are flagged too — the taint must not
be laundered through one call of indirection.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from repro.lintkit.core import Rule, Violation, last_segment
from repro.lintkit.dataflow import ArgFacts, DataflowAnalysis, Domain, Env, Fact
from repro.lintkit.project import OUTSIDE, FunctionInfo, ModuleInfo, Project

__all__ = ["SeedProvenanceRule"]

#: Packages whose RNG construction must be seed-derived.
_SCOPED_DIRS = frozenset({"sim", "faults", "coordinator", "backends", "guard"})

#: The sanctioned implementation itself.
_EXEMPT_FILES = frozenset({"sim/rng.py"})

#: Taint facts.
_SEED = "seed"
_LITERAL = "literal"

#: RNG/seed sinks: callable last-segment -> (positional index, kwarg name)
#: of the seed argument.
_SINKS: Dict[str, Tuple[Optional[int], str]] = {
    "spawn_generator": (0, "seed"),
    "derive_seed": (0, "master_seed"),
    "RngStreams": (0, "master_seed"),
    "LatencyModel": (None, "seed"),  # keyword-only
}


def _is_seedish(name: str) -> bool:
    """Names that contractually carry the run's (derived) seed."""
    return name == "seed" or name == "master_seed" or name.endswith("_seed")


class _TaintDomain(Domain):
    """Seed-taint lattice: ``seed`` (master-derived) / ``literal`` / unknown."""

    def param_fact(self, fn: FunctionInfo, name: str) -> Fact:
        return _SEED if _is_seedish(name) else None

    def name_fact(self, name: str, env_fact: Fact) -> Fact:
        # An assignment beats the naming convention: ``seed = 42`` is a
        # literal no matter what the variable is called.
        if env_fact is not None:
            return env_fact
        return _SEED if _is_seedish(name) else None

    def attribute_fact(self, node: ast.Attribute) -> Fact:
        return _SEED if _is_seedish(node.attr) else None

    def constant_fact(self, node: ast.Constant) -> Fact:
        if type(node.value) in (int, float):
            return _LITERAL
        return None

    def binop_fact(self, node: ast.BinOp, left: Fact, right: Fact) -> Fact:
        # Seed arithmetic (offsets, xors) keeps provenance; two literals
        # stay a literal.
        if _SEED in (left, right):
            return _SEED
        if left == _LITERAL and right == _LITERAL:
            return _LITERAL
        return None

    def call_fact(
        self, node: ast.Call, callee: Optional[str], summary: Fact, args: ArgFacts
    ) -> Fact:
        name = last_segment(node.func)
        if name == "derive_seed":
            # derive_seed launders nothing: the result carries the taint
            # of its master argument (the sink check flags bad masters at
            # the call itself, so downstream reports do not cascade).
            master = args.get(0, args.get("master_seed"))
            return _SEED if master == _SEED else master
        return summary


class SeedProvenanceRule(Rule):
    """Flag RNG/seed sinks not provably fed from a master seed."""

    code = "RL008"
    name = "seed-provenance"
    rationale = (
        "every generator in deterministic code must trace to the run's "
        "master seed; a literal or unprovable seed breaks replay coverage"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        analysis = DataflowAnalysis(project, _TaintDomain())
        for mod in project.modules.values():
            if mod.top_dir not in _SCOPED_DIRS or mod.pkg_path in _EXEMPT_FILES:
                continue
            # Every call a function or the module body (a module-global
            # generator) evaluates.
            for node, fn, reach in mod.sites:
                if reach == OUTSIDE or not isinstance(node, ast.Call):
                    continue
                env = analysis.function_env(fn) if fn is not None else analysis.module_env(mod)
                yield from self._check_call(project, analysis, mod, fn, env, node)

    def _check_call(
        self,
        project: Project,
        analysis: DataflowAnalysis,
        mod: ModuleInfo,
        fn: Optional[FunctionInfo],
        env: Env,
        call: ast.Call,
    ) -> Iterator[Violation]:
        name = last_segment(call.func)
        sink = _SINKS.get(name or "")
        if sink is not None:
            yield from self._check_sink(analysis, mod, fn, env, call, name or "", sink)
        else:
            yield from self._check_seed_params(project, analysis, mod, fn, env, call)

    def _check_sink(
        self,
        analysis: DataflowAnalysis,
        mod: ModuleInfo,
        fn: Optional[FunctionInfo],
        env: Env,
        call: ast.Call,
        name: str,
        sink: Tuple[Optional[int], str],
    ) -> Iterator[Violation]:
        index, kwarg = sink
        value: Optional[ast.expr] = None
        if index is not None and len(call.args) > index and not any(
            isinstance(a, ast.Starred) for a in call.args[: index + 1]
        ):
            value = call.args[index]
        else:
            for kw in call.keywords:
                if kw.arg == kwarg:
                    value = kw.value
                    break
        if value is None:
            return  # defaulted seed: the API's own default is its contract
        fact = analysis.expr_fact(mod, fn, env, value)
        if fact == _SEED:
            return
        where = f"in {fn.qualname}" if fn is not None else "at module level"
        if fact == _LITERAL:
            yield self.hit(
                mod,
                call,
                f"{name}() seeded from a literal {where}; seeds in "
                f"deterministic code must derive from the run's master seed "
                f"(derive_seed(seed, \"<stream>\"))",
            )
        else:
            yield self.hit(
                mod,
                call,
                f"{name}() seed is not provably derived from a master seed "
                f"{where}; thread the run seed (or derive_seed of it) "
                f"through to this call",
            )

    def _check_seed_params(
        self,
        project: Project,
        analysis: DataflowAnalysis,
        mod: ModuleInfo,
        fn: Optional[FunctionInfo],
        env: Env,
        call: ast.Call,
    ) -> Iterator[Violation]:
        """Literals bound to seed-ish parameters of project functions."""
        callee_qual = analysis.resolve_call(mod, fn, call)
        if callee_qual is None:
            return
        callee = project.functions.get(callee_qual)
        if callee is None:
            return
        params = callee.params
        if params[:1] in (("self",), ("cls",)):
            params = params[1:]
        args = analysis.call_arg_facts(mod, fn, env, call)
        for i, param in enumerate(params):
            if not _is_seedish(param):
                continue
            for key in (i, param):
                if args.get(key) == _LITERAL:
                    yield self.hit(
                        mod,
                        call,
                        f"literal bound to seed parameter {param!r} of "
                        f"{callee.qualname}(); pass the run seed (or a "
                        f"derive_seed of it) instead",
                    )
                    break
