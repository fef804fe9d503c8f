"""Suppression comments: ``# repro-lint: disable=RL001[,RL002]``.

Two directive forms, found by tokenizing the source (so directives inside
string literals are never honoured):

* ``# repro-lint: disable=RL001,RL003`` — as a *trailing* comment,
  suppresses the named rules on that line; on a line of its own,
  suppresses them on the next line (for lines too long to annotate).
* ``# repro-lint: disable-file=RL002`` — anywhere in the file,
  suppresses the named rules for the whole file.

``disable=all`` (or ``disable-file=all``) suppresses every rule.  Every
suppression is deliberate and greppable — there is no blanket "noqa".
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Set

__all__ = ["SuppressionIndex", "scan_suppressions"]

_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*(?P<form>disable(?:-file)?)\s*=\s*(?P<codes>[A-Za-z0-9_,\s]+)"
)

#: Sentinel code meaning "every rule".
_ALL = "ALL"

#: Every directive names this; a source without it has none to tokenize.
_MARKER = "repro-lint"


@dataclass
class SuppressionIndex:
    """Per-file map from source line to the rule codes suppressed there."""

    #: Codes suppressed for the entire file (may contain ``ALL``).
    file_level: FrozenSet[str] = frozenset()
    #: Line → codes suppressed on that specific line.
    by_line: Dict[int, Set[str]] = field(default_factory=dict)

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is suppressed at ``line``."""
        if _ALL in self.file_level or rule in self.file_level:
            return True
        codes = self.by_line.get(line)
        return codes is not None and (_ALL in codes or rule in codes)


def _parse_codes(raw: str) -> Set[str]:
    codes = set()
    for part in raw.split(","):
        part = part.strip().upper()
        if part:
            codes.add(_ALL if part == "ALL" else part)
    return codes


def scan_suppressions(source: str) -> SuppressionIndex:
    """Tokenize ``source`` and build its :class:`SuppressionIndex`.

    A source that never names the directive marker yields an empty index
    without being tokenized.  Unreadable files (tokenizer errors on
    malformed input) yield an empty index too — the parser will report
    the real problem as a violation.
    """
    if _MARKER not in source:
        return SuppressionIndex()
    file_level: Set[str] = set()
    by_line: Dict[int, Set[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return SuppressionIndex()
    lines = source.splitlines()
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _DIRECTIVE.search(tok.string)
        if match is None:
            continue
        codes = _parse_codes(match.group("codes"))
        if not codes:
            continue
        if match.group("form") == "disable-file":
            file_level |= codes
            continue
        line = tok.start[0]
        prefix = lines[line - 1][: tok.start[1]] if line - 1 < len(lines) else ""
        target = line + 1 if not prefix.strip() else line
        by_line.setdefault(target, set()).update(codes)
    return SuppressionIndex(file_level=frozenset(file_level), by_line=by_line)
