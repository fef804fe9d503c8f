"""RL005 and RL009 — what crosses the pool, and what the workers write.

:func:`repro.parallel.pool.map_parallel` ships ``(function, kwargs)``
pairs to worker processes by pickling them.  One finder locates every
*submission site* — a call to ``map_parallel`` / ``run_grid`` /
``pool.submit`` / ``apply_async`` — and reports two codes there.

**RL005 — pickle safety** is the zero-hop case: a lambda, or a name bound
to a function defined inside another function (or to a lambda), handed
to the site.  Those cannot be pickled; the pool raises at runtime, but a
sweep that only hits the bad path on one grid point fails an hour into
a campaign.  RL005 checks every call site in every module, ``parallel/``
included.

**RL009 — parallel shared-state hygiene.**  A worker sees a *copy* of
module state — writes to it are silently lost — and under a thread
fallback the same writes become data races.  Either way the sweep's
results depend on worker count and scheduling, which is exactly the
non-determinism the golden-trace gate exists to catch (too late, and
only when a trace happens to cover it).  The callable at each site is a
*worker entry point*; the rule takes the transitive closure of the call
graph from those entries and flags shared-state writes inside any
reachable function:

* ``global NAME`` plus a binding of ``NAME`` (the classic counter);
* mutation of a module-level mutable container (``CACHE.append``,
  ``RESULTS[key] = ...``, ``del SEEN[k]``) — the module global need not
  be re-bound to be shared;
* class-level state writes (``cls.attr = ...`` or ``SomeClass.attr =
  ...`` on a project class) — class objects are shared across threads;
* mutating a *mutable default argument* (``def f(x, acc=[])`` then
  ``acc.append``) — one list shared by every call in a thread pool;
* mutating a name closed over from an enclosing function — closures
  capture by reference, so the workers share the object.

Submission calls located inside ``parallel/`` itself are infrastructure
(the pool handing each task to its executor), not worker entries, and
are excluded.  Reads of shared state are always fine — the
rule only cares about writes.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Optional, Set, Tuple, Type, Union

from repro.lintkit.core import Rule, Violation, last_segment
from repro.lintkit.project import (
    OUTSIDE,
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
    iter_own_nodes,
)
from repro.lintkit.rules.pickles import SUBMISSION_APIS, nested_callables

__all__ = ["ParallelSharedStateRule"]

_RL005 = "RL005"

#: Container methods that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "append", "appendleft", "extend", "extendleft", "insert",
        "add", "update", "setdefault",
        "pop", "popleft", "popitem", "remove", "discard", "clear",
        "sort", "reverse",
    }
)


def _mutable_default_params(fn: FunctionInfo) -> FrozenSet[str]:
    """Parameter names of ``fn`` whose default is a mutable container."""
    args = fn.node.args
    names: Set[str] = set()
    positional = [*args.posonlyargs, *args.args]
    for arg, default in zip(positional[len(positional) - len(args.defaults):], args.defaults):
        if isinstance(default, (ast.List, ast.Dict, ast.Set)):
            names.add(arg.arg)
    for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
        if isinstance(kw_default, (ast.List, ast.Dict, ast.Set)):
            names.add(arg.arg)
    return frozenset(names)


class ParallelSharedStateRule(Rule):
    """Flag unpicklable pool tasks (RL005) and worker-reachable shared writes (RL009)."""

    code = "RL009"
    name = "parallel-shared-state"
    rationale = (
        "pool workers run in separate processes (or racing threads); any "
        "write to module/class state from a worker call tree makes results "
        "depend on worker count and scheduling"
    )
    twin = (
        _RL005,
        "pickle-safety",
        "pool workers receive their task by pickling; a lambda or nested "
        "function fails at runtime, possibly deep into a sweep",
    )

    def check(self, project: Project) -> Iterator[Violation]:
        entries: Set[str] = set()
        for mod in project.modules.values():
            yield from self._check_sites(project, mod, entries)
        reachable = project.reachable_from(sorted(entries))
        for qualname in sorted(reachable):
            fn = project.functions.get(qualname)
            if fn is None:
                continue
            yield from self._check_function(project, fn)

    # ------------------------------------------------------------------
    # submission sites

    def _check_sites(
        self, project: Project, mod: ModuleInfo, entries: Set[str]
    ) -> Iterator[Violation]:
        """RL005 at every submission site of ``mod``; collect RL009's entries.

        Entries come from the calls a function or the module body
        evaluates, never from ``parallel/``: submissions there are the
        pool handing tasks to its executor, not workers.
        """
        nested: Optional[Set[str]] = None
        for node, fn, reach in project.iter_frames(mod):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            task = node.args[0]
            api = last_segment(node.func)
            if api in SUBMISSION_APIS:
                if isinstance(task, ast.Lambda):
                    yield self.hit(
                        mod,
                        node,
                        f"lambda passed to {api}(); pool tasks are pickled — "
                        f"define the task at module top level",
                        code=_RL005,
                    )
                elif isinstance(task, ast.Name):
                    if nested is None:
                        nested = nested_callables(mod.tree)
                    if task.id in nested:
                        yield self.hit(
                            mod,
                            node,
                            f"locally-defined callable {task.id!r} passed to "
                            f"{api}(); pool tasks are pickled — move it to module "
                            f"top level",
                            code=_RL005,
                        )
            if mod.top_dir == "parallel" or reach == OUTSIDE:
                continue
            if isinstance(node.func, ast.Name) and node.func.id in mod.imports:
                # An aliased import still submits: mp = map_parallel.
                api = mod.imports[node.func.id].rsplit(".", 1)[-1]
            if api in SUBMISSION_APIS:
                worker = project.resolve_callable_ref(mod, fn, task)
                if worker is not None:
                    entries.add(worker.qualname)

    # ------------------------------------------------------------------
    # per-function write checks

    def _check_function(
        self, project: Project, fn: FunctionInfo
    ) -> Iterator[Violation]:
        mod = project.modules[fn.module]
        declared_global = self._declared(fn, ast.Global)
        declared_nonlocal = self._declared(fn, ast.Nonlocal)
        mutable_defaults = _mutable_default_params(fn)
        for node in iter_own_nodes(fn.node.body):
            yield from self._check_bindings(mod, fn, node, declared_global, declared_nonlocal)
            yield from self._check_mutation(
                mod, fn, node, declared_global, declared_nonlocal, mutable_defaults
            )
            yield from self._check_class_store(project, mod, fn, node)

    @staticmethod
    def _declared(
        fn: FunctionInfo, kind: Union[Type[ast.Global], Type[ast.Nonlocal]]
    ) -> FrozenSet[str]:
        names: Set[str] = set()
        for node in iter_own_nodes(fn.node.body):
            if isinstance(node, kind):
                names.update(node.names)
        return frozenset(names)

    def _check_bindings(
        self,
        mod: ModuleInfo,
        fn: FunctionInfo,
        node: ast.AST,
        declared_global: FrozenSet[str],
        declared_nonlocal: FrozenSet[str],
    ) -> Iterator[Violation]:
        """``global``/``nonlocal`` names re-bound inside a worker tree."""
        if not (declared_global or declared_nonlocal):
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if node.id in declared_global:
                yield self.hit(
                    mod,
                    node,
                    f"{fn.qualname}() is reachable from a pool worker entry "
                    f"and rebinds module global {node.id!r}; worker writes to "
                    f"module state are lost across processes and race across "
                    f"threads — return the value instead",
                )
            elif node.id in declared_nonlocal:
                yield self.hit(
                    mod,
                    node,
                    f"{fn.qualname}() is reachable from a pool worker entry "
                    f"and rebinds closed-over name {node.id!r} via nonlocal; "
                    f"workers share the enclosing frame — return the value "
                    f"instead",
                )

    def _check_mutation(
        self,
        mod: ModuleInfo,
        fn: FunctionInfo,
        node: ast.AST,
        declared_global: FrozenSet[str],
        declared_nonlocal: FrozenSet[str],
        mutable_defaults: FrozenSet[str],
    ) -> Iterator[Violation]:
        """In-place mutation of shared containers (method call / subscript)."""
        name, how = self._mutated_name(node)
        if name is None:
            return
        if name in mutable_defaults:
            yield self.hit(
                mod,
                node,
                f"{fn.qualname}() {how} its mutable default argument "
                f"{name!r} while reachable from a pool worker entry; one "
                f"default object is shared by every call — default to None "
                f"and allocate inside the function",
            )
            return
        if name in fn.local_names and name not in declared_global and name not in declared_nonlocal:
            return  # a fresh local container: private to this call
        if name in mod.mutable_globals or name in declared_global:
            yield self.hit(
                mod,
                node,
                f"{fn.qualname}() {how} module-level container {name!r} "
                f"while reachable from a pool worker entry; per-process "
                f"copies diverge silently and thread fallbacks race — "
                f"return results and merge in the parent",
            )
        elif name in fn.enclosing_locals or name in declared_nonlocal:
            yield self.hit(
                mod,
                node,
                f"{fn.qualname}() {how} closed-over container {name!r} "
                f"while reachable from a pool worker entry; closures capture "
                f"by reference, so workers share the object — pass data in "
                f"and return results instead",
            )

    @staticmethod
    def _mutated_name(node: ast.AST) -> Tuple[Optional[str], str]:
        """``(receiver name, verb)`` when ``node`` mutates a named container."""
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.attr in _MUTATING_METHODS
        ):
            return node.func.value.id, f"calls .{node.func.attr}() on"
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node.value
            if isinstance(target, ast.Name):
                verb = "deletes an item of" if isinstance(node.ctx, ast.Del) else "assigns an item of"
                return target.id, verb
        if isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                return target.value.id, "augments an item of"
        return None, ""

    def _check_class_store(
        self,
        project: Project,
        mod: ModuleInfo,
        fn: FunctionInfo,
        node: ast.AST,
    ) -> Iterator[Violation]:
        """``cls.attr = ...`` / ``SomeClass.attr = ...`` in a worker tree."""
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del))):
            return
        base = node.value
        if not isinstance(base, ast.Name):
            return
        is_cls = (
            base.id == "cls"
            and fn.class_name is not None
            and fn.params[:1] == ("cls",)
        )
        target = fn.class_name if is_cls else base.id
        if is_cls or self._names_project_class(project, mod, base.id):
            yield self.hit(
                mod,
                node,
                f"{fn.qualname}() writes class attribute {target}.{node.attr} "
                f"while reachable from a pool worker entry; class objects are "
                f"shared state — store per-run results on instances or return "
                f"them",
            )

    @staticmethod
    def _names_project_class(project: Project, mod: ModuleInfo, name: str) -> bool:
        if name in mod.classes:
            return True
        if name in mod.imports:
            return isinstance(project.resolve_export(mod.imports[name]), ClassInfo)
        return False
