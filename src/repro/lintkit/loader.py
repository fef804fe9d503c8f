"""File collection and parsing for ``repro lint``.

One lint run reads every ``.py`` file under its paths exactly once: the
source text, the parsed AST and the package-relative path rules scope on
all come from here, and the :class:`~repro.lintkit.project.Project`
keeps them for every rule.

The loader never imports or executes the code it reads (see
:mod:`repro.lintkit.engine` for why that invariant matters).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import LintError

__all__ = [
    "ParseFailure",
    "collect_files",
    "package_relative",
    "parse_file",
]

#: The package directory whose layout defines rule scopes.
_PACKAGE = "repro"
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "build", "dist"})


class ParseFailure(Exception):
    """A file could not be read or parsed.

    Carries the line and message the engine turns into an ``RL000``
    violation.
    """

    def __init__(self, line: int, message: str) -> None:
        super().__init__(message)
        self.line = line
        self.message = message


def parse_file(path: Path) -> Tuple[str, ast.Module]:
    """Read and parse ``path``, returning ``(source, tree)``.

    Raises
    ------
    ParseFailure
        If the file is unreadable or not valid Python.
    """
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseFailure(1, f"unreadable file: {exc}") from exc
    try:
        tree = ast.parse(source, filename=path.as_posix())
    except SyntaxError as exc:
        raise ParseFailure(exc.lineno or 1, f"syntax error: {exc.msg}") from exc
    return source, tree


def collect_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list.

    Raises
    ------
    LintError
        If a given path does not exist (a typo must not lint "clean").
    """
    out = []
    seen = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise LintError(f"no such file or directory: {raw!r}")
        candidates: Iterable[Path]
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for file in candidates:
            if any(part in _SKIP_DIRS for part in file.parts):
                continue
            key = file.resolve()
            if key not in seen:
                seen.add(key)
                out.append(file)
    return out


def package_relative(path: Path, root: Optional[Path] = None) -> str:
    """The path rules scope on: relative to the ``repro`` package root.

    ``src/repro/sim/clock.py`` → ``sim/clock.py``.  Files outside any
    ``repro`` directory fall back to being relative to ``root`` (the lint
    invocation root) — which is how fixture trees that mirror the package
    layout (``lint_fixtures/sim/bad.py``) land in the right scope.
    """
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == _PACKAGE:
            return "/".join(parts[i + 1 :])
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()
