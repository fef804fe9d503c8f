"""The pool-submission vocabulary RL005 and RL009 share.

:func:`repro.parallel.pool.map_parallel` ships ``(function, kwargs)``
pairs to worker processes by pickling them.  This module names the
submission APIs whose first argument is that task callable, and finds
the callables that cannot make the trip.  Both codes are reported at the
submission sites :mod:`repro.lintkit.rules.races` finds.
"""

from __future__ import annotations

import ast
from typing import Set

__all__ = ["SUBMISSION_APIS", "nested_callables"]

#: Callable last-segments that submit work to a process pool.
SUBMISSION_APIS = frozenset({"map_parallel", "run_grid", "submit", "apply_async"})


def nested_callables(tree: ast.Module) -> Set[str]:
    """Names bound to non-module-level functions or lambdas anywhere.

    Collects functions defined inside other functions plus every
    ``name = lambda ...`` binding (module-level lambdas are just as
    unpicklable as nested defs).
    """
    nested: Set[str] = set()

    def visit(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if inside_function:
                    nested.add(child.name)
                visit(child, True)
            elif isinstance(child, ast.Assign) and isinstance(child.value, ast.Lambda):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        nested.add(target.id)
                visit(child, inside_function)
            else:
                visit(child, inside_function)

    visit(tree, False)
    return nested
