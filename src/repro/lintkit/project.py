"""The whole-program model behind ``repro lint``.

One AST at a time is exactly what cannot prove the repo's
cross-function invariants: that a seed reaching ``spawn_generator``
three calls away still derives from the run's master seed, or that
nothing a pool worker transitively calls writes module state.  This
module parses the full tree *once* into a :class:`Project` — a module
graph, a symbol table of every function and class, and an alias-aware
call graph — that every rule and the dataflow engine
(:mod:`repro.lintkit.dataflow`) query.

Resolution is deliberately conservative: an edge exists only when the
callee is provable from imports (aliases and ``__init__`` re-exports
followed), module-level symbols, ``self``/``cls`` within the enclosing
class and its project-local bases, explicit ``ClassName.method``
references, or a local variable whose construction site names a project
class.  A call the model cannot resolve is *counted* (``unresolved`` in
the stats) but never guessed — false edges would turn the race rule's
reachability set into noise.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import LintError
from repro.lintkit.core import dotted_name
from repro.lintkit.loader import ParseFailure, package_relative, parse_file

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "OwnSites",
    "Project",
    "ProjectStats",
    "build_project",
    "HEADER",
    "SITE_KINDS",
    "OUTSIDE",
    "OWN",
]

#: The namespace every project module is rooted under.  Fixture trees
#: that mirror the package layout resolve exactly like the real tree.
_ROOT = "repro"

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Where :meth:`Project.iter_frames` places a node relative to the frame
#: (function body or module) it evaluates in: one of the frame's own
#: nodes (:func:`iter_own_nodes`); a decorator or default of a def/class
#: nested in a function, evaluated in that function's frame; or in no
#: frame walk.
OWN, HEADER, OUTSIDE = "own", "header", "outside"


@dataclass
class FunctionInfo:
    """One function or method in the project symbol table."""

    #: Fully qualified name: ``repro.sim.engine.Engine.tick``; nested
    #: functions extend their parent (``...outer.inner``).
    qualname: str
    #: Dotted module the definition lives in.
    module: str
    #: The definition node.
    node: FunctionNode
    #: Enclosing class name for methods (``None`` for plain functions).
    class_name: Optional[str] = None
    #: Enclosing function qualname for nested definitions.
    parent: Optional[str] = None
    #: Every parameter name, in order, ``self``/``cls`` included.
    params: Tuple[str, ...] = ()
    #: Names bound in enclosing function scopes (closure candidates).
    enclosing_locals: FrozenSet[str] = frozenset()
    #: Names bound inside this function (params, assignments, defs).
    local_names: FrozenSet[str] = frozenset()
    #: Names its own ``global`` and ``nonlocal`` statements declare.
    declared_global: FrozenSet[str] = frozenset()
    declared_nonlocal: FrozenSet[str] = frozenset()

    @property
    def name(self) -> str:
        return self.node.name


#: ``(node, fn, reach)`` as :meth:`Project.iter_frames` yields it.
Site = Tuple[ast.AST, Optional[FunctionInfo], str]

#: The node kinds whose frame walk :meth:`Project.link` keeps in
#: :attr:`ModuleInfo.sites`: the calls it resolves and RL008 and RL009
#: check, and the arithmetic, comparisons, assignments and returns RL010
#: checks.  Over ``src/repro`` and the two lint fixture trees they are
#: about a tenth of the frame nodes and cost about 1 MB; keeping every
#: frame node would cost about 8.6 MB.
SITE_KINDS = (
    ast.Call, ast.BinOp, ast.AugAssign, ast.Compare, ast.Assign, ast.AnnAssign, ast.Return
)


@dataclass
class ClassInfo:
    """One class definition and its method table."""

    qualname: str
    module: str
    node: ast.ClassDef
    #: Dotted base-class names as written (resolved lazily by the project).
    bases: Tuple[str, ...] = ()
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ModuleInfo:
    """One parsed module of the project."""

    #: Dotted name rooted at ``repro`` (``repro.sim.rng``).
    name: str
    #: Display path (posix), as reported in violations.
    path: str
    #: Package-relative path rules scope on (``sim/rng.py``).
    pkg_path: str
    tree: ast.Module
    source: str
    #: Every node of :attr:`tree` in :func:`ast.walk` order, walked once
    #: when the module is added; the per-file rules iterate this list.
    nodes: List[ast.AST]
    #: ``__init__.py`` modules are packages (their name has no final segment).
    is_package: bool = False
    #: Local name -> canonical dotted import target (alias-resolved).
    imports: Dict[str, str] = field(default_factory=dict)
    #: Top-level functions by name.
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Top-level classes by name.
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: Names *assigned* at module scope (imports and defs excluded).
    assigned_globals: Set[str] = field(default_factory=set)
    #: The subset of :attr:`assigned_globals` bound to mutable containers.
    mutable_globals: Set[str] = field(default_factory=set)
    #: Every :data:`SITE_KINDS` node of the frame walk with its frame, in
    #: :meth:`Project.iter_frames` order; kept by :meth:`Project.link`, so
    #: the interprocedural rules read the module's one frame walk.
    sites: List[Site] = field(default_factory=list)

    @property
    def top_dir(self) -> str:
        """First directory component of :attr:`pkg_path` ("" at the root)."""
        return self.pkg_path.split("/")[0] if "/" in self.pkg_path else ""

    def canonical(self, dotted: str) -> Optional[str]:
        """``dotted`` with its first segment resolved through :attr:`imports`.

        ``np.random.rand`` → ``numpy.random.rand`` under ``import numpy as
        np``; ``None`` when the first segment is not an import.
        """
        head, _, rest = dotted.partition(".")
        root = self.imports.get(head)
        if root is None:
            return None
        return f"{root}.{rest}" if rest else root

    def segment(self, node: ast.AST) -> str:
        """Best-effort source text of ``node`` (empty string if unknown).

        The source is split only here, for the node at hand, so no
        per-module line list outlives the call.
        """
        try:
            lineno = node.lineno  # type: ignore[attr-defined]
            col = node.col_offset  # type: ignore[attr-defined]
        except AttributeError:
            return ""
        lines = self.source.splitlines()
        if not (1 <= lineno <= len(lines)):
            return ""
        end_col = getattr(node, "end_col_offset", None)
        line = lines[lineno - 1]
        if getattr(node, "end_lineno", lineno) == lineno and end_col is not None:
            return line[col:end_col]
        return line[col:]


class OwnSites(NamedTuple):
    """What the dataflow engine reads of one frame, in :func:`iter_own_nodes` order.

    A function's are collected by the one walk of its own nodes when it
    is indexed; a module body's by :meth:`Project.link`'s frame walk.
    """

    #: ``(target names, value)`` of each assignment that binds simple names.
    assignments: Tuple[Tuple[Tuple[str, ...], ast.expr], ...]
    #: The value of each ``return`` that returns something but ``None``.
    returns: Tuple[ast.expr, ...]


@dataclass(frozen=True)
class ProjectStats:
    """Call-graph construction statistics (the ``--call-graph-dump`` payload)."""

    modules: int
    functions: int
    classes: int
    call_edges: int
    unresolved_calls: int

    def to_dict(self) -> Dict[str, int]:
        return {
            "modules": self.modules,
            "functions": self.functions,
            "classes": self.classes,
            "call_edges": self.call_edges,
            "unresolved_calls": self.unresolved_calls,
        }


def _module_name(pkg_path: str) -> str:
    """``sim/rng.py`` → ``repro.sim.rng``; ``faults/__init__.py`` → ``repro.faults``."""
    parts = pkg_path[:-3].split("/") if pkg_path.endswith(".py") else pkg_path.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([_ROOT, *[p for p in parts if p]])


_MUTABLE_CONSTRUCTORS = frozenset({"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"})


def _is_mutable_literal(node: ast.AST) -> bool:
    """Whether a module-level binding is a mutable container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = node.func.attr if isinstance(node.func, ast.Attribute) else (
            node.func.id if isinstance(node.func, ast.Name) else None
        )
        return name in _MUTABLE_CONSTRUCTORS
    return False


def _import_map(nodes: Sequence[ast.AST], module_name: str, is_package: bool) -> Dict[str, str]:
    """Map local names to canonical dotted targets, relative imports included.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from repro.sim.rng import spawn_generator as sg`` →
    ``{"sg": "repro.sim.rng.spawn_generator"}``;
    inside ``repro.sim.worker``, ``from .rng import derive_seed`` →
    ``{"derive_seed": "repro.sim.rng.derive_seed"}``.
    """
    package = module_name if is_package else module_name.rpartition(".")[0]
    mapping: Dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                canonical = alias.name if alias.asname else alias.name.split(".")[0]
                mapping[local] = canonical
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Climb level-1 from the module's package, further per level.
                base_parts = package.split(".") if package else []
                climb = node.level - 1
                if climb > len(base_parts):
                    continue
                base = ".".join(base_parts[: len(base_parts) - climb])
                prefix = ".".join(p for p in (base, node.module or "") if p)
            else:
                if node.module is None:
                    continue
                prefix = node.module
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mapping[local] = f"{prefix}.{alias.name}" if prefix else alias.name
    return mapping


def _children(node: ast.AST) -> List[ast.AST]:
    """:func:`ast.iter_child_nodes` as a list, without its two generator layers."""
    children: List[ast.AST] = []
    for name in node._fields:
        value = getattr(node, name, None)
        if isinstance(value, ast.AST):
            children.append(value)
        elif isinstance(value, list):
            children.extend([item for item in value if isinstance(item, ast.AST)])
    return children


def _name_assignment(node: ast.AST) -> Optional[Tuple[Tuple[str, ...], ast.expr]]:
    """``(target names, value)`` for an assignment that binds simple names."""
    if isinstance(node, ast.Assign):
        names = tuple(t.id for t in node.targets if isinstance(t, ast.Name))
        return (names, node.value) if names else None
    if isinstance(node, ast.AnnAssign) and node.value is not None:
        if isinstance(node.target, ast.Name):
            return ((node.target.id,), node.value)
    if isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
        return ((node.target.id,), node.value)
    return None


def _add_own_site(
    node: ast.AST,
    assignments: List[Tuple[Tuple[str, ...], ast.expr]],
    returns: List[ast.expr],
) -> None:
    """Append ``node`` to its frame's :class:`OwnSites` lists if it is a site."""
    assignment = _name_assignment(node)
    if assignment is not None:
        assignments.append(assignment)
    elif isinstance(node, ast.Return) and node.value is not None:
        # ``return None`` guards carry no information either way.
        if not (isinstance(node.value, ast.Constant) and node.value.value is None):
            returns.append(node.value)


def iter_own_nodes(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Every node under ``body`` that is not inside a nested def/class."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(_children(node))


class _OwnWalk(NamedTuple):
    """What the project reads of one function's own nodes (see :func:`_walk_own`)."""

    #: Every name bound inside the function: parameters, assignment and
    #: ``del`` targets, imports, and the names of nested defs and classes.
    local_names: FrozenSet[str]
    #: Names its ``global`` and ``nonlocal`` statements declare.
    declared_global: FrozenSet[str]
    declared_nonlocal: FrozenSet[str]
    #: Directly nested function definitions, in walk order.
    nested: List[FunctionNode]
    sites: OwnSites
    #: Each name that an own ``Assign`` binds as its single target -> that
    #: value if it is a call, or ``None`` if it is not or the name is rebound.
    candidates: Dict[str, Optional[ast.Call]]


def _walk_own(fn: FunctionNode) -> _OwnWalk:
    """Walk ``fn``'s own nodes once, in :func:`iter_own_nodes` order.

    A nested def or class binds its name here; its body is not walked.
    """
    args = fn.args
    names = {arg.arg for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
    names.update(arg.arg for arg in (args.vararg, args.kwarg) if arg is not None)
    declared_global: Set[str] = set()
    declared_nonlocal: Set[str] = set()
    nested: List[FunctionNode] = []
    assignments: List[Tuple[Tuple[str, ...], ast.expr]] = []
    returns: List[ast.expr] = []
    candidates: Dict[str, Optional[ast.Call]] = {}
    stack: List[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                names.add(node.id)
            continue  # its one child is its context
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            if not isinstance(node, ast.ClassDef):
                nested.append(node)
            continue
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Nonlocal):
            declared_nonlocal.update(node.names)
        else:
            _add_own_site(node, assignments, returns)
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    call = node.value if isinstance(node.value, ast.Call) else None
                    candidates[target.id] = None if target.id in candidates else call
        stack.extend(_children(node))
    return _OwnWalk(
        frozenset(names),
        frozenset(declared_global),
        frozenset(declared_nonlocal),
        nested,
        OwnSites(tuple(assignments), tuple(returns)),
        candidates,
    )


class Project:
    """The parsed whole-program model: modules, symbols, call graph."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: Caller qualname -> resolved callee qualnames.
        self.call_graph: Dict[str, Set[str]] = {}
        #: Function qualname -> its single-assignment locals' values
        #: (:attr:`_OwnWalk.candidates`), resolved after linking.
        self._candidates: Dict[str, Dict[str, Optional[ast.Call]]] = {}
        #: Function qualname -> locally constructed variable types (cached
        #: at link time; rules and the dataflow engine re-resolve calls).
        self._instance_cache: Dict[str, Dict[str, ClassInfo]] = {}
        #: ``id`` of each indexed def node -> its symbol (set at link time).
        self._by_node: Dict[int, FunctionInfo] = {}
        #: ``id`` of a def or module node -> its :class:`OwnSites`.
        self._sites: Dict[int, OwnSites] = {}
        #: Files that did not parse, as ``(display path, failure)``.
        self.unparsed: List[Tuple[str, ParseFailure]] = []
        self._unresolved = 0
        self._edges = 0

    # ------------------------------------------------------------------
    # construction

    def add_module(self, path: str, pkg_path: str, source: str, tree: ast.Module) -> ModuleInfo:
        """Index one parsed file.

        Raises
        ------
        LintError
            If another file already maps to the same module name: its
            rules would otherwise silently never run on one of them.
        """
        name = _module_name(pkg_path)
        if name in self.modules:
            raise LintError(
                f"{path} and {self.modules[name].path} both map to module {name}; "
                f"lint them in separate runs or set --package-root"
            )
        is_package = pkg_path.endswith("__init__.py") or pkg_path == "__init__.py"
        nodes = list(ast.walk(tree))
        info = ModuleInfo(
            name=name,
            path=path,
            pkg_path=pkg_path,
            tree=tree,
            source=source,
            nodes=nodes,
            is_package=is_package,
            imports=_import_map(nodes, name, is_package),
        )
        self.modules[name] = info
        self._index_module(info)
        return info

    def _index_module(self, mod: ModuleInfo) -> None:
        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._add_function(mod, stmt, class_name=None, parent=None, enclosing=frozenset())
                mod.functions[stmt.name] = fn
            elif isinstance(stmt, ast.ClassDef):
                cls = ClassInfo(
                    qualname=f"{mod.name}.{stmt.name}",
                    module=mod.name,
                    node=stmt,
                    bases=tuple(b for b in (dotted_name(base) for base in stmt.bases) if b is not None),
                )
                self.classes[cls.qualname] = cls
                mod.classes[stmt.name] = cls
                for member in stmt.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fn = self._add_function(
                            mod, member, class_name=stmt.name, parent=None, enclosing=frozenset()
                        )
                        cls.methods[member.name] = fn
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                value = stmt.value
                for target in targets:
                    if isinstance(target, ast.Name):
                        mod.assigned_globals.add(target.id)
                        if value is not None and _is_mutable_literal(value):
                            mod.mutable_globals.add(target.id)
                    elif isinstance(target, ast.Tuple):
                        for elt in target.elts:
                            if isinstance(elt, ast.Name):
                                mod.assigned_globals.add(elt.id)

    def _add_function(
        self,
        mod: ModuleInfo,
        node: FunctionNode,
        *,
        class_name: Optional[str],
        parent: Optional[str],
        enclosing: FrozenSet[str],
    ) -> FunctionInfo:
        if parent is not None:
            qualname = f"{parent}.{node.name}"
        elif class_name is not None:
            qualname = f"{mod.name}.{class_name}.{node.name}"
        else:
            qualname = f"{mod.name}.{node.name}"
        args = node.args
        params = tuple(
            a.arg
            for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        )
        own = _walk_own(node)
        info = FunctionInfo(
            qualname=qualname,
            module=mod.name,
            node=node,
            class_name=class_name,
            parent=parent,
            params=params,
            enclosing_locals=enclosing,
            local_names=own.local_names,
            declared_global=own.declared_global,
            declared_nonlocal=own.declared_nonlocal,
        )
        self.functions[qualname] = info
        self._sites[id(node)] = own.sites
        self._candidates[qualname] = own.candidates
        # Nested definitions: indexed with closure context, bodies excluded
        # from the parent's own walk.
        nested_enclosing = enclosing | own.local_names
        for child in own.nested:
            self._add_function(
                mod, child, class_name=None, parent=qualname, enclosing=nested_enclosing
            )
        return info

    def link(self) -> None:
        """Build the call graph once every module is indexed.

        Each module is frame-walked here once.  A function's edges come
        from every call its frame evaluates (lambda bodies, and the
        decorators and defaults of nested defs, included); module-level
        calls start no edge.  The walk's :data:`SITE_KINDS` nodes are kept
        in :attr:`ModuleInfo.sites` for the rules, and the module body's
        own nodes give its :class:`OwnSites`.
        """
        self._by_node = {id(fn.node): fn for fn in self.functions.values()}
        self.call_graph = {qualname: set() for qualname in self.functions}
        for mod in self.modules.values():
            sites: List[Site] = []
            assignments: List[Tuple[Tuple[str, ...], ast.expr]] = []
            returns: List[ast.expr] = []
            for site in self.iter_frames(mod):
                node, fn, reach = site
                if fn is None and reach == OWN:
                    _add_own_site(node, assignments, returns)
                if not isinstance(node, SITE_KINDS):
                    continue
                sites.append(site)
                if fn is None or not isinstance(node, ast.Call):
                    continue
                callee = self.resolve_call(mod, fn, node, self.instance_types_for(fn))
                if callee is not None:
                    self.call_graph[fn.qualname].add(callee)
                    self._edges += 1
                else:
                    self._unresolved += 1
            mod.sites = sites
            self._sites[id(mod.tree)] = OwnSites(tuple(assignments), tuple(returns))

    def iter_frames(
        self, mod: ModuleInfo
    ) -> Iterator[Tuple[ast.AST, Optional[FunctionInfo], str]]:
        """Every node of ``mod`` — the full :func:`ast.walk` reach — with its frame.

        Yields ``(node, fn, reach)``: ``fn`` is the indexed function whose
        frame evaluates the node (``None`` at module level and for
        :data:`OUTSIDE` nodes) and ``reach`` is :data:`OWN`, :data:`HEADER`
        or :data:`OUTSIDE`.  Class bodies, annotations, bases, the
        decorators and defaults of top-level defs, and the bodies of defs
        the symbol table does not index are :data:`OUTSIDE`.  The calls a
        frame evaluates are those not :data:`OUTSIDE`; the dataflow engine
        solves facts for the :data:`OWN` nodes.  An indexed function's
        :data:`OWN` nodes come in :func:`iter_own_nodes` order, and so do
        the module body's.  :meth:`link` makes this walk once per module
        and keeps its :data:`SITE_KINDS` nodes in :attr:`ModuleInfo.sites`,
        so a rule that must see every such node and its interprocedural
        twin reads that list instead of walking again.
        """
        stack: List[Tuple[ast.AST, Optional[FunctionInfo], str]] = [(mod.tree, None, OWN)]
        while stack:
            node, fn, reach = stack.pop()
            yield node, fn, reach
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack.extend([(child, fn, reach) for child in _children(node)])
                continue
            # Decorators and defaults evaluate in the enclosing frame.
            header = HEADER if fn is not None else OUTSIDE
            stack.extend((dec, fn, header) for dec in node.decorator_list)
            outside: List[ast.AST] = list(getattr(node, "type_params", []))
            if isinstance(node, ast.ClassDef):
                outside += [*node.bases, *node.keywords, *node.body]
            else:
                args = node.args
                defaults = [*args.defaults, *(d for d in args.kw_defaults if d is not None)]
                stack.extend((default, fn, header) for default in defaults)
                yield args, None, OUTSIDE
                outside += [*args.posonlyargs, *args.args, *args.kwonlyargs]
                outside += [a for a in (args.vararg, args.kwarg, node.returns) if a is not None]
                inner = self._by_node.get(id(node))
                if inner is not None:
                    stack.extend((stmt, inner, OWN) for stmt in node.body)
                else:
                    outside += node.body
            stack.extend((child, None, OUTSIDE) for child in outside)

    # ------------------------------------------------------------------
    # resolution

    def resolve_export(self, canonical: str) -> Optional[Union[FunctionInfo, ClassInfo]]:
        """Resolve a canonical dotted path to a project symbol.

        Follows ``__init__`` re-export chains (``from repro.faults.plan
        import standard_campaign`` re-exported by ``repro.faults``), so
        ``repro.faults.standard_campaign`` resolves to the real function.
        """
        return self._resolve(canonical, set())

    def _resolve(self, canonical: str, seen: Set[str]) -> Optional[Union[FunctionInfo, ClassInfo]]:
        if canonical in seen:
            return None
        seen.add(canonical)
        parts = canonical.split(".")
        for i in range(len(parts), 0, -1):
            mod_name = ".".join(parts[:i])
            mod = self.modules.get(mod_name)
            if mod is None:
                continue
            rest = parts[i:]
            if not rest:
                return None
            return self._resolve_in(mod, rest, seen)
        return None

    def _resolve_in(
        self, mod: ModuleInfo, rest: Sequence[str], seen: Set[str]
    ) -> Optional[Union[FunctionInfo, ClassInfo]]:
        head, tail = rest[0], rest[1:]
        if head in mod.functions and not tail:
            return mod.functions[head]
        if head in mod.classes:
            cls = mod.classes[head]
            if not tail:
                return cls
            if len(tail) == 1:
                return self._class_method(cls, tail[0])
            return None
        if head in mod.imports:
            target = mod.imports[head]
            if tail:
                target = ".".join([target, *tail])
            return self._resolve(target, seen)
        return None

    def _class_method(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        """Look ``name`` up on ``cls``, walking project-local base classes."""
        seen: Set[str] = set()
        queue: List[ClassInfo] = [cls]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.methods:
                return current.methods[name]
            mod = self.modules[current.module]
            for base in current.bases:
                resolved = self._resolve_class_name(mod, base)
                if resolved is not None:
                    queue.append(resolved)
        return None

    def _resolve_class_name(self, mod: ModuleInfo, dotted: str) -> Optional[ClassInfo]:
        if dotted in mod.classes:
            return mod.classes[dotted]
        symbol = self.resolve_export(mod.canonical(dotted) or dotted)
        return symbol if isinstance(symbol, ClassInfo) else None

    def instance_types_for(self, fn: FunctionInfo) -> Dict[str, ClassInfo]:
        """Local variables whose construction site names a project class.

        ``plane = ControlPlane(seed)`` lets ``plane.deliver()`` resolve.
        Only single-assignment locals count — a rebound name is ambiguous.
        """
        cached = self._instance_cache.get(fn.qualname)
        if cached is not None:
            return cached
        mod = self.modules[fn.module]
        result: Dict[str, ClassInfo] = {}
        for name, call in self._candidates[fn.qualname].items():
            dotted = dotted_name(call.func) if call is not None else None
            if dotted is not None:
                symbol = self._symbol_for(mod, fn, dotted)
                if isinstance(symbol, ClassInfo):
                    result[name] = symbol
        self._instance_cache[fn.qualname] = result
        return result

    def own_sites(self, frame: Union[FunctionNode, ast.Module]) -> OwnSites:
        """The assignments and returns among the own nodes of ``frame``'s body.

        Collected once for every indexed function (when it is indexed)
        and every module body (when the project is linked), so every
        dataflow domain and every env pass reads those walks.
        """
        return self._sites[id(frame)]

    def _symbol_for(
        self, mod: ModuleInfo, fn: Optional[FunctionInfo], dotted: str
    ) -> Optional[Union[FunctionInfo, ClassInfo]]:
        """Resolve a dotted reference as seen from inside ``fn`` in ``mod``."""
        head, _, rest = dotted.partition(".")
        # Nested function in an enclosing scope?
        if fn is not None and not rest:
            scope: Optional[FunctionInfo] = fn
            while scope is not None:
                candidate = self.functions.get(f"{scope.qualname}.{head}")
                if candidate is not None:
                    return candidate
                scope = self.functions.get(scope.parent) if scope.parent else None
        # Module-local symbol?
        local: Optional[Union[FunctionInfo, ClassInfo]] = None
        if head in mod.functions and not rest:
            local = mod.functions[head]
        elif head in mod.classes:
            cls = mod.classes[head]
            if not rest:
                local = cls
            elif "." not in rest:
                local = self._class_method(cls, rest)
        if local is not None:
            return local
        # Imported (possibly re-exported) symbol?
        target = mod.canonical(dotted)
        return self.resolve_export(target) if target is not None else None

    def resolve_call(
        self,
        mod: ModuleInfo,
        fn: Optional[FunctionInfo],
        call: ast.Call,
        instance_types: Dict[str, ClassInfo],
    ) -> Optional[str]:
        """Resolve one call site to a callee qualname, or ``None``.

        Class constructions resolve to the class's ``__init__`` when it
        defines one (otherwise to the class qualname itself, so
        reachability still sees the type).
        """
        func = call.func
        # self.m() / cls.m() inside a method.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and fn is not None
            and fn.class_name is not None
            and func.value.id in ("self", "cls")
            and fn.params[:1] in (("self",), ("cls",))
        ):
            cls = self.modules[fn.module].classes.get(fn.class_name)
            if cls is not None:
                method = self._class_method(cls, func.attr)
                if method is not None:
                    return method.qualname
            return None
        # obj.m() where obj's construction site named a project class.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in instance_types
        ):
            method = self._class_method(instance_types[func.value.id], func.attr)
            if method is not None:
                return method.qualname
            return None
        dotted = dotted_name(func)
        if dotted is None:
            return None
        symbol = self._symbol_for(mod, fn, dotted)
        if isinstance(symbol, FunctionInfo):
            return symbol.qualname
        if isinstance(symbol, ClassInfo):
            init = self._class_method(symbol, "__init__")
            return init.qualname if init is not None else symbol.qualname
        return None

    def resolve_callable_ref(
        self, mod: ModuleInfo, fn: Optional[FunctionInfo], node: ast.AST
    ) -> Optional[FunctionInfo]:
        """Resolve a *reference* (not a call) to a project function.

        Used for pool-submission first arguments: ``map_parallel(_run_job,
        ...)`` resolves ``_run_job`` through the same alias/symbol chain.
        """
        dotted = dotted_name(node)
        if dotted is None:
            return None
        symbol = self._symbol_for(mod, fn, dotted)
        return symbol if isinstance(symbol, FunctionInfo) else None

    # ------------------------------------------------------------------
    # queries

    def reachable_from(self, entries: Sequence[str]) -> Set[str]:
        """Transitive closure of ``entries`` over the call graph."""
        seen: Set[str] = set()
        queue = [q for q in entries if q in self.functions]
        while queue:
            current = queue.pop()
            if current in seen:
                continue
            seen.add(current)
            for callee in self.call_graph.get(current, ()):
                if callee not in seen:
                    queue.append(callee)
        return seen

    def stats(self) -> ProjectStats:
        return ProjectStats(
            modules=len(self.modules),
            functions=len(self.functions),
            classes=len(self.classes),
            call_edges=self._edges,
            unresolved_calls=self._unresolved,
        )


def build_project(files: Sequence[Path], *, root: Optional[Path] = None) -> Project:
    """Parse each of ``files`` once into a linked :class:`Project`.

    Unparseable files land in :attr:`Project.unparsed` (the engine
    reports them as ``RL000``) so a single syntax error never hides the
    findings for the rest of the tree.
    """
    project = Project()
    for file in files:
        display = file.as_posix()
        try:
            source, tree = parse_file(file)
        except ParseFailure as exc:
            project.unparsed.append((display, exc))
            continue
        project.add_module(display, package_relative(file, root), source, tree)
    project.link()
    return project
