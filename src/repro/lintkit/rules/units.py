"""The unit-suffix vocabulary RL003 and RL010 share.

Every quantity in the library carries its canonical unit in its name
(``_s``, ``_w``, ``_j``, ``_ghz``...; see :mod:`repro.units`).  This
module is the one statement of that convention the linter checks
against: the suffix table, the suffix reader, and the unit-critical APIs
whose positional slots must not take bare literals.  Both codes are
reported by the one walk in :mod:`repro.lintkit.rules.unitsflow`.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Tuple

__all__ = ["KNOWN_APIS", "UNIT_SUFFIXES", "is_bare_nonzero_number", "name_suffix", "unit_suffix"]

#: Recognised unit suffixes.  Each suffix is its own unit: seconds and
#: milliseconds conflict just as hard as seconds and watts.
UNIT_SUFFIXES = frozenset(
    {
        "s", "ms", "us", "ns",
        "w", "kw", "mw",
        "j", "kj", "wh",
        "hz", "khz", "mhz", "ghz",
        "gbps",
    }
)

#: Unit-critical APIs: callable last-segment → positional parameter names
#: (``None`` marks non-unit slots). Mirrors AccessMeter.charge and the
#: repro.units converters.
KNOWN_APIS: Dict[str, Tuple[Optional[str], ...]] = {
    "charge": (None, "time_s", "energy_j"),
    "watts_to_joules": ("power_w", "duration_s"),
}


def unit_suffix(node: ast.AST) -> Optional[str]:
    """The unit suffix of a name-like node, or ``None``.

    Resolves through attribute access and subscripts so ``self.backoff_s``
    and ``delays_s[i]`` both read as seconds.
    """
    while isinstance(node, ast.Subscript):
        node = node.value
    name = None
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    if name is None or "_" not in name:
        return None
    tail = name.rsplit("_", 1)[1].lower()
    return tail if tail in UNIT_SUFFIXES else None


def name_suffix(name: str) -> Optional[str]:
    """Unit suffix of a bare identifier string."""
    return unit_suffix(ast.Name(id=name))


def is_bare_nonzero_number(node: ast.AST) -> bool:
    """True for numeric literals other than 0 (unary minus included)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and type(node.value) in (int, float)
        and node.value != 0
    )
