"""Crash-tolerant JSONL record log shared by the campaign and grant journals.

The campaign journal (:mod:`repro.campaign.journal`) and the coordinator's
grant journal (:mod:`repro.coordinator.journal`) keep their records in a
:class:`JsonlLog`, which owns the line format, the fsync and the crash
rule; each journal only converts its own record to and from a dict.

* **Format.** A record is one line,
  ``json.dumps(record, sort_keys=True, separators=(",", ":"))`` plus
  ``"\\n"`` (ASCII), flushed and ``os.fsync``-ed before
  :meth:`JsonlLog.append` returns.
* **Commit.** A record is committed once its newline is on disk. Bytes
  after the last newline are a torn tail, left by a crash mid-append:
  reads ignore them, and the first append through a log object cuts the
  file back to its last newline (and fsyncs) so that the next record is
  never written onto the fragment. A resumed process opens a fresh
  journal, so it always gets the cut.
* **Corruption.** Every newline-terminated line must parse as a JSON
  object. No crash can produce anything else, so anything else raises
  the caller's error type instead of silently losing a record.

With ``path=None`` the log keeps its lines in memory and reads them
through the same parser (the fleet's grant journal, which only needs
replay).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Any, Dict, Iterable, Iterator, List, Optional, Type, Union

from repro.errors import ReproError

__all__ = ["JsonlLog"]

#: The record encoder. ``json.dumps`` with these arguments builds an equal
#: encoder on every call and returns ``encode``'s string, so reusing one
#: gives the same bytes.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class JsonlLog:
    """Append-only JSONL records, fsynced per append, with one crash rule.

    ``error`` is raised for a committed line that is not a JSON object;
    ``label`` names the log in that message (``"corrupt <label> line N"``).
    """

    def __init__(
        self, path: Optional[Union[str, Path]], error: Type[ReproError], label: str
    ) -> None:
        self.path: Optional[Path] = Path(path) if path is not None else None
        self._error = error
        self._label = label
        #: The lines of a log without a file, each ending in a newline.
        self._lines: List[bytes] = []
        self._tail_cut = False

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record; it is committed when this returns."""
        line = (_ENCODER.encode(record) + "\n").encode()
        if self.path is None:
            self._lines.append(line)
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a+b") as fh:
            if not self._tail_cut:
                self._cut_torn_tail(fh)
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())

    def _cut_torn_tail(self, fh: IO[bytes]) -> None:
        fh.seek(0)
        committed = sum(len(raw) for raw in fh if raw.endswith(b"\n"))
        if committed < fh.seek(0, os.SEEK_END):
            fh.truncate(committed)
            os.fsync(fh.fileno())
        self._tail_cut = True

    def records(self) -> Iterator[Dict[str, Any]]:
        """Committed records, oldest first, one at a time."""
        if self.path is None:
            yield from self._parse(self._lines)
        elif self.path.exists():
            with self.path.open("rb") as fh:
                yield from self._parse(fh)

    def _parse(self, lines: Iterable[bytes]) -> Iterator[Dict[str, Any]]:
        for number, line in enumerate(lines, 1):
            if not line.endswith(b"\n"):
                return  # torn tail: this record never committed
            try:
                record = json.loads(line.decode())
            except ValueError:
                record = None
            if not isinstance(record, dict):
                where = self.path if self.path is not None else "memory"
                raise self._error(
                    f"corrupt {self._label} line {number} in {where}: a complete "
                    f"line that is not a JSON object (no crash writes one)"
                )
            yield record

    def clear(self) -> None:
        """Drop every record, and the file if there is one."""
        self._lines.clear()
        if self.path is not None:
            self.path.unlink(missing_ok=True)
