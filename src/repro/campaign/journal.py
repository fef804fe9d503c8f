"""Append-only JSONL journal for resumable experiment campaigns.

The journal is the campaign's crash-safety mechanism: one line per
*completed* step, written (flushed and fsynced) only after the step's
artefacts are safely on disk.  A campaign killed mid-step therefore loses
at most the in-flight step; ``repro campaign run --resume`` replays the
journal, re-validates each entry against its content-derived cache key and
the artefacts' checksums, and re-executes only what is missing or stale.

The line format and the crash rule live in :class:`~repro.journal.
JsonlLog`: a line torn by a crash mid-append is ignored and cut off
before the next append; a complete line that does not hold a valid entry
means the journal was edited or damaged by something other than a crash,
and raises :class:`~repro.errors.CampaignError` rather than silently
serving stale artefacts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.errors import CampaignError
from repro.journal import JsonlLog

__all__ = ["JournalEntry", "Journal", "step_key", "file_sha256"]


def step_key(name: str, version: str, *, seed: int, quick: bool) -> str:
    """Content key for one campaign step.

    Any input that changes the step's output — the step's identity, its
    implementation version, the master seed, the quick/full protocol flag —
    is folded into the key, so a journal entry written under different
    inputs can never satisfy a resume check (a changed seed re-runs the
    step instead of serving stale artefacts).
    """
    payload = json.dumps(
        {"step": name, "version": version, "seed": seed, "quick": quick},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def file_sha256(path: Union[str, Path]) -> str:
    """Hex SHA-256 of a file's bytes."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class JournalEntry:
    """One completed campaign step."""

    #: Step name (e.g. ``"fig4a"``).
    step: str
    #: Content key (:func:`step_key`) the step ran under.
    key: str
    #: Artefact paths relative to the campaign outdir.
    artefacts: Tuple[str, ...]
    #: SHA-256 of each artefact, aligned with ``artefacts``.
    checksums: Tuple[str, ...]
    #: Wall-clock cost of the step (informational; not part of the key).
    duration_s: float

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "JournalEntry":
        try:
            return cls(
                step=record["step"],
                key=record["key"],
                artefacts=tuple(record["artefacts"]),
                checksums=tuple(record["checksums"]),
                duration_s=float(record["duration_s"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CampaignError(f"malformed journal entry: {record!r}") from exc


class Journal:
    """The campaign's append-only JSONL step log."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._log = JsonlLog(self.path, CampaignError, "journal")

    def clear(self) -> None:
        """Start a fresh campaign (drops any previous journal)."""
        self._log.clear()

    def append(self, entry: JournalEntry) -> None:
        """Durably append one completed step.

        The line is flushed and fsynced before returning, so a crash
        immediately after a step completes cannot lose its journal record.
        """
        self._log.append(asdict(entry))

    def entries(self) -> List[JournalEntry]:
        """Every committed entry, oldest first (a torn final line is not one)."""
        return [JournalEntry.from_dict(record) for record in self._log.records()]

    def latest_by_step(self) -> Dict[str, JournalEntry]:
        """Most recent entry per step name (later lines win)."""
        latest: Dict[str, JournalEntry] = {}
        for entry in self.entries():
            latest[entry.step] = entry
        return latest
