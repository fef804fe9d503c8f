"""RL003 and RL010 — units hygiene, literal and inferred.

Every quantity in the library carries its canonical unit in its name
(``_s``, ``_w``, ``_j``, ``_ghz``...; see :mod:`repro.units`).  The
suffix convention only protects anyone if it is *checked*, so one walk
over every node of every module reports two codes.

**RL003 — units hygiene** is the zero-hop case, where the names alone
prove the conflict:

* **conflicting arithmetic** — adding, subtracting or comparing two
  names whose unit suffixes disagree (``power_w + duration_s``,
  ``freq_mhz - freq_ghz``).  Products and ratios are fine: units
  legitimately compose there (``power_w * duration_s`` *is* joules).
* **unitless literals at unit-critical call sites** — passing a bare
  non-zero numeric literal positionally into a unit-suffixed parameter
  of a known accounting API (``meter.charge``, ``watts_to_joules``).
  Naming the unit at the call site (``energy_j=0.25``) is what lets a
  reviewer check the magnitude.  Zero is exempt: zero seconds and zero
  joules agree.
* **mixed-suffix keyword bindings** (``duration_s=freq_mhz``) at every
  call site — the parameter name is the API's unit contract.

RL003 sees every node, class bodies, decorators and defaults included.

**RL010 — units flow** covers every conflict laundered through one
assignment: ``x = read_power_w(); total_j += x`` is invisible to RL003
because ``x`` is anonymous.  The project dataflow engine carries
dimensions through assignments, helper returns (a ``..._j`` function
returns joules by contract), parameters and keyword arguments, and the
rule flags conflicts the *inferred* dimensions prove:

* add/sub/compare where the inferred dimensions of the two sides differ
  and not both sides carry literal suffixes (those sites are RL003's);
* a positional or keyword argument whose inferred dimension conflicts
  with the suffixed parameter it binds to in a *resolved* project callee
  (keyword bindings whose value carries a literal suffix are RL003's);
* assigning a value of known conflicting dimension to a suffix-named
  target (``duration_s = read_power_w()``);
* returning a value of known conflicting dimension from a suffix-named
  function (``def idle_energy_j(...): return power_w``).

RL010 reads facts only where the dataflow engine computed them: the
bodies of indexed functions and module-level code.  Multiplication and
division deliberately erase the dimension, and unknown stays unknown:
the rule only speaks when the lattice *proves* a dimension on both
sides.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.lintkit.core import Rule, Violation, last_segment
from repro.lintkit.dataflow import ArgFacts, DataflowAnalysis, Domain, Env, Fact
from repro.lintkit.project import OWN, FunctionInfo, ModuleInfo, Project
from repro.lintkit.rules.units import (
    KNOWN_APIS,
    is_bare_nonzero_number,
    name_suffix,
    unit_suffix,
)

__all__ = ["UnitsFlowRule"]

#: Builtins that pass their (first/only) argument's dimension through.
_PASSTHROUGH = frozenset({"abs", "float", "int", "round", "min", "max", "sum"})

_RL003 = "RL003"

#: The node types either code inspects.
_CHECKED = (ast.BinOp, ast.AugAssign, ast.Compare, ast.Call, ast.Assign, ast.AnnAssign, ast.Return)


class _UnitsDomain(Domain):
    """Dimension lattice: the unit suffix string, or unknown."""

    def param_fact(self, fn: FunctionInfo, name: str) -> Fact:
        return name_suffix(name)

    def name_fact(self, name: str, env_fact: Fact) -> Fact:
        # A literal suffix is the name's contract; the environment only
        # fills in dimensions for anonymous names.
        return name_suffix(name) or env_fact

    def attribute_fact(self, node: ast.Attribute) -> Fact:
        return name_suffix(node.attr)

    def binop_fact(self, node: ast.BinOp, left: Fact, right: Fact) -> Fact:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if left is not None and left == right:
                return left
            return None
        # Mult/Div/Mod/Pow compose units; the result is a new dimension
        # the flat lattice does not track.
        return None

    def call_fact(
        self, node: ast.Call, callee: Optional[str], summary: Fact, args: ArgFacts
    ) -> Fact:
        name = last_segment(node.func)
        if name in _PASSTHROUGH:
            facts = {args.get(i) for i in range(len(node.args))}
            facts.discard(None)
            if len(facts) == 1:
                return facts.pop()
            return None
        return summary

    def return_fact(self, fn: FunctionInfo, joined: Fact) -> Fact:
        # A suffix-named function returns that dimension by contract.
        return name_suffix(fn.name) or joined


class UnitsFlowRule(Rule):
    """Flag unit conflicts the suffixes (RL003) or the inference (RL010) prove."""

    code = "RL010"
    name = "units-flow"
    rationale = (
        "the suffix convention only protects named values; dataflow "
        "inference extends it through assignments, returns and calls"
    )
    twin = (
        _RL003,
        "units-hygiene",
        "the _s/_w/_j/_hz suffix convention is the library's unit system; "
        "mixed-suffix sums and anonymous literals defeat it",
    )

    def check(self, project: Project) -> Iterator[Violation]:
        analysis = DataflowAnalysis(project, _UnitsDomain())
        for mod in project.modules.values():
            for node, fn, reach in project.iter_frames(mod):
                if not isinstance(node, _CHECKED):
                    continue
                # RL010 reads facts only where the frame's own walk solved them.
                env: Optional[Env] = None
                if reach == OWN:
                    env = analysis.function_env(fn) if fn is not None else analysis.module_env(mod)
                yield from self._check_node(project, analysis, mod, fn, env, node)

    def _check_node(
        self,
        project: Project,
        analysis: DataflowAnalysis,
        mod: ModuleInfo,
        fn: Optional[FunctionInfo],
        env: Optional[Env],
        node: ast.AST,
    ) -> Iterator[Violation]:
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            yield from self._check_pair(
                analysis, mod, fn, env, node, node.left, node.right, "arithmetic"
            )
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub)):
            yield from self._check_pair(
                analysis, mod, fn, env, node, node.target, node.value, "arithmetic"
            )
        elif isinstance(node, ast.Compare) and len(node.comparators) == 1:
            if isinstance(node.ops[0], (ast.Is, ast.IsNot, ast.In, ast.NotIn)):
                env = None  # RL010 does not judge identity or membership tests
            yield from self._check_pair(
                analysis, mod, fn, env, node, node.left, node.comparators[0], "comparison"
            )
        elif isinstance(node, ast.Call):
            yield from self._check_literal_call(mod, node)
            if env is not None:
                yield from self._check_call(project, analysis, mod, fn, env, node)
        elif env is not None and isinstance(node, (ast.Assign, ast.AnnAssign)):
            yield from self._check_assign(analysis, mod, fn, env, node)
        elif env is not None and isinstance(node, ast.Return) and fn is not None:
            yield from self._check_return(analysis, mod, fn, env, node)

    def _check_pair(
        self,
        analysis: DataflowAnalysis,
        mod: ModuleInfo,
        fn: Optional[FunctionInfo],
        env: Optional[Env],
        node: ast.AST,
        left: ast.expr,
        right: ast.expr,
        what: str,
    ) -> Iterator[Violation]:
        a, b = unit_suffix(left), unit_suffix(right)
        if a is not None and b is not None:
            if a != b:
                yield self.hit(
                    mod,
                    node,
                    f"{what} mixes units _{a} and _{b} "
                    f"({mod.segment(node) or 'expression'}); convert via repro.units first",
                    code=_RL003,
                )
            return
        if env is None:
            return
        a = analysis.expr_fact(mod, fn, env, left)
        b = analysis.expr_fact(mod, fn, env, right)
        if a is not None and b is not None and a != b:
            yield self.hit(
                mod,
                node,
                f"{what} mixes inferred units _{a} and _{b}; the dimension "
                f"flowed here through assignments/returns — convert via "
                f"repro.units at the source",
            )

    def _check_literal_call(self, mod: ModuleInfo, node: ast.Call) -> Iterator[Violation]:
        """RL003 at a call: suffixed keywords and bare literals in unit slots."""
        for kw in node.keywords:
            if kw.arg is None:
                continue
            param = name_suffix(kw.arg)
            value = unit_suffix(kw.value)
            if param is not None and value is not None and param != value:
                yield self.hit(
                    mod,
                    node,
                    f"keyword {kw.arg}= is bound to a _{value} value; the "
                    f"parameter name promises _{param} — convert via repro.units",
                    code=_RL003,
                )
        params = KNOWN_APIS.get(last_segment(node.func) or "")
        if params is None:
            return
        for slot, arg in zip(params, node.args):
            if slot is None or name_suffix(slot) is None:
                continue
            if is_bare_nonzero_number(arg):
                yield self.hit(
                    mod,
                    node,
                    f"bare literal {mod.segment(arg) or arg} fills the "
                    f"unit-suffixed parameter {slot!r}; pass it by keyword "
                    f"({slot}=...) so the unit is visible at the call site",
                    code=_RL003,
                )

    def _check_call(
        self,
        project: Project,
        analysis: DataflowAnalysis,
        mod: ModuleInfo,
        fn: Optional[FunctionInfo],
        env: Env,
        call: ast.Call,
    ) -> Iterator[Violation]:
        callee_qual = analysis.resolve_call(mod, fn, call)
        if callee_qual is None:
            return
        callee = project.functions.get(callee_qual)
        if callee is None:
            return
        params = callee.params
        if params[:1] in (("self",), ("cls",)):
            params = params[1:]
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred) or i >= len(params):
                break
            yield from self._check_binding(analysis, mod, fn, env, call, callee, params[i], arg)
        for kw in call.keywords:
            if kw.arg is None or kw.arg not in params:
                continue
            if unit_suffix(kw.value) is not None:
                continue  # literal-suffix keyword conflicts are RL003's
            yield from self._check_binding(analysis, mod, fn, env, call, callee, kw.arg, kw.value)

    def _check_binding(
        self,
        analysis: DataflowAnalysis,
        mod: ModuleInfo,
        fn: Optional[FunctionInfo],
        env: Env,
        call: ast.Call,
        callee: FunctionInfo,
        param: str,
        value: ast.expr,
    ) -> Iterator[Violation]:
        expected = name_suffix(param)
        if expected is None:
            return
        got = analysis.expr_fact(mod, fn, env, value)
        if got is not None and got != expected:
            yield self.hit(
                mod,
                call,
                f"argument of inferred unit _{got} is bound to parameter "
                f"{param!r} of {callee.qualname}(), which promises _{expected}; "
                f"convert via repro.units before the call",
            )

    def _check_assign(
        self,
        analysis: DataflowAnalysis,
        mod: ModuleInfo,
        fn: Optional[FunctionInfo],
        env: Env,
        node: ast.AST,
    ) -> Iterator[Violation]:
        targets: Tuple[ast.expr, ...]
        if isinstance(node, ast.Assign):
            targets, value = tuple(node.targets), node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = (node.target,), node.value
        else:
            return
        got = analysis.expr_fact(mod, fn, env, value)
        if got is None:
            return
        for target in targets:
            expected = unit_suffix(target)
            if expected is not None and got != expected:
                yield self.hit(
                    mod,
                    node,
                    f"value of inferred unit _{got} is assigned to "
                    f"{'a target' if not isinstance(target, ast.Name) else repr(target.id)} "
                    f"suffixed _{expected}; convert via repro.units first",
                )

    def _check_return(
        self,
        analysis: DataflowAnalysis,
        mod: ModuleInfo,
        fn: FunctionInfo,
        env: Env,
        node: ast.Return,
    ) -> Iterator[Violation]:
        expected = name_suffix(fn.name)
        if expected is None or node.value is None:
            return
        got = analysis.expr_fact(mod, fn, env, node.value)
        if got is not None and got != expected:
            yield self.hit(
                mod,
                node,
                f"{fn.qualname}() promises _{expected} by name but returns a "
                f"value of inferred unit _{got}; convert via repro.units "
                f"before returning",
            )
