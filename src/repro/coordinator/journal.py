"""Durable grant journal: the coordinator's crash-recovery ground truth.

Every grant is journaled *before* it is handed to the control plane for
delivery. The records live in a :class:`~repro.journal.JsonlLog`, the
fsynced-JSONL log the campaign journal also uses: one JSON object per
line, flushed and fsynced per append, so a crash can lose at most a
partially written final line, which replay ignores and the next append
cuts off. Every complete line must hold a known record, or the journal is
corrupt and recovery refuses to guess.

A recovering coordinator replays the journal once
(:meth:`GrantJournal.recover`) to rebuild two things:

* the set of journaled leases whose expiry is still in the future — the
  *pessimistic* picture of what nodes may still believe they hold (a
  journaled grant may or may not have been delivered; safety requires
  assuming it was); and
* the next per-node sequence number (one past the largest journaled), so
  post-restart grants are not rejected by nodes as stale replays.

The journal can run file-backed (durability semantics under test) or
in-memory (fleet runs that only need the replay logic); both modes feed
the same :meth:`GrantJournal.replay`.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.coordinator.lease import Lease
from repro.errors import CoordinatorError
from repro.journal import JsonlLog

__all__ = ["GrantJournal"]

_GRANT = "grant"
_RESTART = "restart"


class GrantJournal:
    """Append-only, fsynced JSONL log of every grant the coordinator issues."""

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self._log = JsonlLog(path, CoordinatorError, "grant journal")
        self.path: Optional[Path] = self._log.path

    def record_grant(self, lease: Lease) -> None:
        """Journal ``lease``; must complete before the grant is transmitted."""
        self._log.append({"kind": _GRANT, **lease.to_dict()})

    def record_restart(self, time_s: float, quarantine_until_s: float) -> None:
        """Journal a recovery event (bookkeeping only; replay skips it)."""
        self._log.append(
            {
                "kind": _RESTART,
                "time_s": time_s,
                "quarantine_until_s": quarantine_until_s,
            }
        )

    def clear(self) -> None:
        """Drop every record (and the file): the next run starts empty."""
        self._log.clear()

    def replay(self) -> List[Lease]:
        """Parse the journaled grants, oldest first.

        Recovery trusts only what was committed: a file-backed journal is
        re-read from disk, not from this process's memory of it.
        """
        leases: List[Lease] = []
        for record in self._log.records():
            kind = record.get("kind")
            if kind == _GRANT:
                leases.append(Lease.from_dict(record))
            elif kind != _RESTART:
                raise CoordinatorError(
                    f"corrupt grant journal: unknown record kind {kind!r} in {record!r}"
                )
        return leases

    def recover(self, time_s: float) -> Tuple[Dict[int, List[Lease]], Dict[int, int]]:
        """Everything a restart at ``time_s`` needs, from one replay.

        Returns ``(outstanding, next_seq)``: per node, the journaled
        leases not yet provably expired at ``time_s`` (oldest first), and
        one past the largest journaled sequence number.
        """
        outstanding: Dict[int, List[Lease]] = {}
        next_seq: Dict[int, int] = {}
        for lease in self.replay():
            if lease.expires_s > time_s:
                outstanding.setdefault(lease.node_id, []).append(lease)
            next_seq[lease.node_id] = max(
                next_seq.get(lease.node_id, 0), lease.seq + 1
            )
        return outstanding, next_seq

    def outstanding_at(self, time_s: float) -> Dict[int, List[Lease]]:
        """Journaled leases per node that are not yet provably expired."""
        return self.recover(time_s)[0]

    def next_seq(self) -> Dict[int, int]:
        """Per-node next sequence number: one past the largest journaled."""
        return self.recover(math.inf)[1]

    def grant_count(self) -> int:
        return len(self.replay())
