"""A forward dataflow engine over the :class:`~repro.lintkit.project.Project`.

Interprocedural rules need one mechanism: propagate an *abstract fact*
(seed-taintedness for RL008, a physical dimension for RL010) forward
through assignments, calls, keyword arguments and returns, across
function boundaries.  This module provides it once, parameterised by a
:class:`Domain` that defines where facts are born and how they combine.

The analysis is deliberately simple and predictable rather than maximally
precise:

* **Per function** the environment is *flow-insensitive with join*: a
  variable's fact is the join of every textual assignment to it (two
  conflicting assignments join to "unknown").  Statement order therefore
  never changes a verdict, which keeps results stable under refactors and
  makes violations easy to reason about from the report alone.
* **Across functions** each function gets a *summary* — the join of its
  return expressions' facts, with the domain free to override from the
  function's own name (a ``..._j`` function returns joules by contract).
  Summaries are iterated to a fixed point over the whole project, so a
  fact flows through arbitrarily long helper chains.  After the first
  pass only the callers of a summary that changed are solved again, so a
  caller defined ahead of its callee costs one more solve, not a pass.
* **Unknown stays unknown.**  Unresolvable calls, attribute writes,
  starred args and friends produce ``None`` (top).  A rule decides what
  to do with unknowns; the engine never guesses.

Facts are plain strings; ``None`` is "no information".  The lattice is
flat: two different facts join to ``None``-with-conflict, surfaced via
:meth:`Domain.join`.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.lintkit.project import FunctionInfo, ModuleInfo, Project

__all__ = ["ArgFacts", "Domain", "DataflowAnalysis", "Env"]

Fact = Optional[str]
Env = Dict[str, Fact]

#: Facts for one call site: positional index / keyword name -> fact.
ArgFacts = Dict[Union[int, str], Fact]

#: Cap on whole-project summary iterations; chains deeper than this are
#: beyond anything a human wrote (each pass resolves one more hop).
_MAX_SUMMARY_PASSES = 10

#: Cap on per-function env passes (facts flowing between locals).
_MAX_ENV_PASSES = 4


class Domain:
    """Where facts come from and how they combine.  Subclassed per rule."""

    def param_fact(self, fn: FunctionInfo, name: str) -> Fact:
        """Fact a parameter carries by contract (``seed`` params, ``_s`` suffixes)."""
        return None

    def name_fact(self, name: str, env_fact: Fact) -> Fact:
        """Final fact for a name read, given what assignments established."""
        return env_fact

    def attribute_fact(self, node: ast.Attribute) -> Fact:
        """Fact carried by an attribute read (``self.seed``, ``cfg.period_s``)."""
        return None

    def constant_fact(self, node: ast.Constant) -> Fact:
        return None

    def binop_fact(self, node: ast.BinOp, left: Fact, right: Fact) -> Fact:
        return None

    def call_fact(
        self,
        node: ast.Call,
        callee: Optional[str],
        summary: Fact,
        args: ArgFacts,
    ) -> Fact:
        """Fact of a call's result.  ``callee`` is the resolved qualname
        (``None`` when unresolved); ``summary`` that callee's current
        return-fact."""
        return summary

    def return_fact(self, fn: FunctionInfo, joined: Fact) -> Fact:
        """Final summary for ``fn`` given the join of its returns."""
        return joined

    def join(self, a: Fact, b: Fact) -> Fact:
        """Flat-lattice join: equal facts survive, conflicts go unknown."""
        if a is None:
            return b
        if b is None:
            return a
        return a if a == b else None


class DataflowAnalysis:
    """Fixed-point fact propagation for one :class:`Domain` over a project."""

    def __init__(self, project: Project, domain: Domain) -> None:
        self.project = project
        self.domain = domain
        #: Function qualname -> current return-fact summary.
        self.summaries: Dict[str, Fact] = {}
        self._envs: Dict[str, Env] = {}
        self._module_envs: Dict[str, Env] = {}
        self._solve()

    # ------------------------------------------------------------------
    # public queries

    def function_env(self, fn: FunctionInfo) -> Env:
        """The converged name -> fact environment of ``fn``."""
        return self._envs.get(fn.qualname, {})

    def module_env(self, mod: ModuleInfo) -> Env:
        """Fact environment of ``mod``'s top-level assignments."""
        return self._module_envs.get(mod.name, {})

    def expr_fact(
        self,
        mod: ModuleInfo,
        fn: Optional[FunctionInfo],
        env: Env,
        node: ast.AST,
    ) -> Fact:
        """Evaluate one expression's fact under ``env``.

        This is the engine's transfer function: rules call it directly on
        the argument expressions at their sink/call sites.
        """
        if isinstance(node, ast.Constant):
            return self.domain.constant_fact(node)
        if isinstance(node, ast.Name):
            return self.domain.name_fact(node.id, env.get(node.id))
        if isinstance(node, ast.Attribute):
            return self.domain.attribute_fact(node)
        if isinstance(node, ast.Subscript):
            # delays_s[i] carries whatever the container's name carries.
            return self.expr_fact(mod, fn, env, node.value)
        if isinstance(node, ast.BinOp):
            left = self.expr_fact(mod, fn, env, node.left)
            right = self.expr_fact(mod, fn, env, node.right)
            return self.domain.binop_fact(node, left, right)
        if isinstance(node, ast.UnaryOp):
            return self.expr_fact(mod, fn, env, node.operand)
        if isinstance(node, ast.IfExp):
            return self.domain.join(
                self.expr_fact(mod, fn, env, node.body),
                self.expr_fact(mod, fn, env, node.orelse),
            )
        if isinstance(node, ast.NamedExpr):
            return self.expr_fact(mod, fn, env, node.value)
        if isinstance(node, ast.Await):
            return self.expr_fact(mod, fn, env, node.value)
        if isinstance(node, ast.Call):
            return self._call_fact(mod, fn, env, node)
        return None

    def call_arg_facts(
        self,
        mod: ModuleInfo,
        fn: Optional[FunctionInfo],
        env: Env,
        node: ast.Call,
    ) -> ArgFacts:
        """Facts of every positional and keyword argument at a call site."""
        facts: ArgFacts = {}
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                continue
            facts[i] = self.expr_fact(mod, fn, env, arg)
        for kw in node.keywords:
            if kw.arg is not None:
                facts[kw.arg] = self.expr_fact(mod, fn, env, kw.value)
        return facts

    def resolve_call(self, mod: ModuleInfo, fn: Optional[FunctionInfo], node: ast.Call) -> Optional[str]:
        """Callee qualname for ``node`` as the call graph resolved it."""
        if fn is not None:
            # Same resolution path the call graph used at link time,
            # including cached instance-type tracking.
            return self.project.resolve_call(
                mod, fn, node, self.project.instance_types_for(fn)
            )
        return self.project.resolve_call(mod, None, node, {})

    # ------------------------------------------------------------------
    # solving

    def _call_fact(self, mod: ModuleInfo, fn: Optional[FunctionInfo], env: Env, node: ast.Call) -> Fact:
        callee = self.resolve_call(mod, fn, node)
        summary = self.summaries.get(callee) if callee is not None else None
        args = self.call_arg_facts(mod, fn, env, node)
        return self.domain.call_fact(node, callee, summary, args)

    def _solve(self) -> None:
        # A function's env and summary depend only on its own nodes and its
        # callees' summaries, so after the first pass only the callers of a
        # summary that changed since they were solved are solved again.
        callers: Dict[str, Set[str]] = {}
        for caller, callees in self.project.call_graph.items():
            for callee in callees:
                callers.setdefault(callee, set()).add(caller)
        functions = list(self.project.functions.values())
        stale = set(self.project.functions)
        for _ in range(_MAX_SUMMARY_PASSES):
            if not stale:
                break
            for fn in functions:
                if fn.qualname not in stale:
                    continue
                stale.discard(fn.qualname)
                env = self._converge_env(fn)
                self._envs[fn.qualname] = env
                summary = self._summarise(fn, env)
                if self.summaries.get(fn.qualname) != summary:
                    self.summaries[fn.qualname] = summary
                    stale.update(callers.get(fn.qualname, ()))
        for mod in self.project.modules.values():
            sites = self.project.own_sites(mod.tree)
            self._module_envs[mod.name] = self._converge_body(mod, None, sites.assignments)

    def _converge_env(self, fn: FunctionInfo) -> Env:
        mod = self.project.modules[fn.module]
        env: Env = {}
        for param in fn.params:
            fact = self.domain.param_fact(fn, param)
            if fact is not None:
                env[param] = fact
        return self._converge_body(mod, fn, self.project.own_sites(fn.node).assignments, env)

    def _converge_body(
        self,
        mod: ModuleInfo,
        fn: Optional[FunctionInfo],
        assignments: Sequence[Tuple[Tuple[str, ...], ast.expr]],
        seed_env: Optional[Env] = None,
    ) -> Env:
        env: Env = dict(seed_env or {})
        pinned = frozenset(env)  # parameter facts are contracts: never demoted
        for _ in range(_MAX_ENV_PASSES):
            changed = False
            assigned: Dict[str, List[Fact]] = {}
            for targets, value in assignments:
                fact = self.expr_fact(mod, fn, env, value)
                for name in targets:
                    assigned.setdefault(name, []).append(fact)
            for name, facts in assigned.items():
                if name in pinned:
                    continue
                # Strict join: a name rebound with a different (or unknown)
                # fact is unknown — never trust one branch of a rebinding.
                fact = facts[0] if len(set(facts)) == 1 else None
                if env.get(name) != fact:
                    env[name] = fact
                    changed = True
            if not changed:
                break
        return env

    def _summarise(self, fn: FunctionInfo, env: Env) -> Fact:
        mod = self.project.modules[fn.module]
        facts = [
            self.expr_fact(mod, fn, env, value) for value in self.project.own_sites(fn.node).returns
        ]
        joined: Fact = facts[0] if facts and len(set(facts)) == 1 else None
        return self.domain.return_fact(fn, joined)
