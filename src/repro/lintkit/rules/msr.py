"""RL002 — MSR safety: register addresses come from the named table.

The paper's mechanism lives in exact register encodings: uncore limits
are the max-ratio bits of ``MSR_UNCORE_RATIO_LIMIT`` (0x620) and IPC
comes from the 48-bit ``IA32_FIXED_CTR0/1`` counters.  Those addresses
are defined exactly once, in :mod:`repro.telemetry.msr`, next to their
codecs and wrap arithmetic.  A hex literal that happens to equal a known
register address anywhere else is a fork of that table waiting to drift
— and raw ``write_msr``-style helpers outside the telemetry boundary
would bypass the metering and range validation every actuation must go
through.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lintkit.core import Rule, Violation, last_segment
from repro.lintkit.project import ModuleInfo, Project

__all__ = ["MSRSafetyRule"]

#: The named register table (mirrors repro.telemetry.msr on purpose: the
#: linter must not import the code it checks).
# repro-lint: disable-file=RL002
_MSR_TABLE = {
    0x620: "MSR_UNCORE_RATIO_LIMIT",
    0x309: "IA32_FIXED_CTR0",
    0x30A: "IA32_FIXED_CTR1",
}

#: The one module allowed to spell register addresses as literals.
_TABLE_FILE = "telemetry/msr.py"

#: Raw MSR accessor names that must not appear outside the telemetry
#: boundary (the repo's device model plus its metering hub).
_RAW_ACCESSORS = frozenset({"write_msr", "wrmsr", "read_msr", "rdmsr"})
_ACCESSOR_FILES = frozenset({"telemetry/msr.py", "telemetry/hub.py"})

#: Directory prefix also inside the accessor boundary: control backends
#: are access mechanisms by definition (the pepc-style property/mechanism
#: split), so a hardware backend's raw accessors belong there.  Register
#: address literals stay confined to the table file regardless.
_ACCESSOR_DIR = "backends/"


class MSRSafetyRule(Rule):
    """Flag raw MSR address literals and raw MSR accessor calls."""

    code = "RL002"
    name = "msr-safety"
    rationale = (
        "register addresses live in the named table in telemetry/msr.py; "
        "raw literals and raw accessors bypass its codecs, metering and "
        "range validation"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        """Yield a violation for every raw address literal / accessor call."""
        for mod in project.modules.values():
            yield from self._check_module(mod)

    def _check_module(self, mod: ModuleInfo) -> Iterator[Violation]:
        literals_exempt = mod.pkg_path == _TABLE_FILE
        accessors_exempt = mod.pkg_path in _ACCESSOR_FILES or mod.pkg_path.startswith(
            _ACCESSOR_DIR
        )
        for node in mod.nodes:
            if (
                not literals_exempt
                and isinstance(node, ast.Constant)
                and type(node.value) is int
                and node.value in _MSR_TABLE
            ):
                # Only hex spellings are "register addresses"; a decimal
                # 1568 elsewhere is a coincidence, not an MSR.
                text = mod.segment(node)
                if text.lower().startswith("0x"):
                    name = _MSR_TABLE[node.value]
                    yield self.hit(
                        mod,
                        node,
                        f"raw MSR address {text} duplicates the register table; "
                        f"import {name} from repro.telemetry.msr",
                    )
            elif not accessors_exempt and isinstance(node, ast.Call):
                name = last_segment(node.func)
                if name in _RAW_ACCESSORS:
                    yield self.hit(
                        mod,
                        node,
                        f"raw MSR accessor {name}() outside the telemetry "
                        f"boundary; go through MSRDevice/TelemetryHub so the "
                        f"access is metered and range-checked",
                    )
