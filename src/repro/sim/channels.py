"""Trace-channel ownership: each layer declares the channels it records.

Before this existed the engine hardcoded one module-level channel tuple and
recorded every value itself, so any layer wanting a new trace column had to
patch the engine. Now each :class:`~repro.sim.observers.TickObserver` that
records data declares a contiguous *block* of channels in a
:class:`ChannelRegistry`; the engine concatenates the blocks into the run's
recorder schema and hands every observer a shared row block to write its
columns into. The registry is the single source of truth for column order,
and remembers which observer owns which channel — trace-completeness tests
and analysis code can interrogate it instead of a constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.errors import SimulationError

__all__ = ["ChannelBlock", "ChannelRegistry"]


@dataclass(frozen=True)
class ChannelBlock:
    """One owner's contiguous run of columns in the trace schema.

    Attributes
    ----------
    owner:
        Short tag naming the declaring layer ("node", "cores", ...).
    names:
        The block's channel names, in column order.
    start:
        Index of the block's first column in the full schema.
    """

    owner: str
    names: Tuple[str, ...]
    start: int

    @property
    def stop(self) -> int:
        """Index one past the block's last column."""
        return self.start + len(self.names)

    @property
    def slice(self) -> slice:
        """The block's columns as a slice into each row of the shared row block."""
        return slice(self.start, self.stop)

    def __len__(self) -> int:
        return len(self.names)


class ChannelRegistry:
    """Ordered, duplicate-checked collection of channel blocks.

    Observers call :meth:`declare` while the engine assembles a run; the
    engine then calls :meth:`freeze` and builds the recorder from
    :attr:`channels`. Declarations after freezing are an error — a trace
    schema cannot change mid-run.
    """

    def __init__(self) -> None:
        self._blocks: List[ChannelBlock] = []
        self._owner_of: Dict[str, str] = {}
        self._frozen = False

    def declare(self, owner: str, names: Iterable[str]) -> ChannelBlock:
        """Reserve a contiguous block of channels for ``owner``.

        Returns the :class:`ChannelBlock`, whose :attr:`ChannelBlock.slice`
        addresses the owner's columns in each row of the shared row block.
        """
        if self._frozen:
            raise SimulationError("channel registry is frozen; declare before the run starts")
        names = tuple(names)
        if not names:
            raise SimulationError(f"owner {owner!r} declared an empty channel block")
        if len(set(names)) != len(names):
            raise SimulationError(f"owner {owner!r} declared duplicate channels: {names}")
        for name in names:
            if name in self._owner_of:
                raise SimulationError(
                    f"channel {name!r} already declared by {self._owner_of[name]!r} "
                    f"(now re-declared by {owner!r})"
                )
        block = ChannelBlock(owner=owner, names=names, start=len(self))
        self._blocks.append(block)
        for name in names:
            self._owner_of[name] = owner
        return block

    def freeze(self) -> None:
        """Lock the schema; further :meth:`declare` calls raise."""
        self._frozen = True

    @property
    def frozen(self) -> bool:
        """Whether the schema is locked."""
        return self._frozen

    @property
    def blocks(self) -> Tuple[ChannelBlock, ...]:
        """Every declared block, in declaration order."""
        return tuple(self._blocks)

    @property
    def channels(self) -> Tuple[str, ...]:
        """All channel names in column order (block concatenation)."""
        return tuple(name for block in self._blocks for name in block.names)

    def index(self, name: str) -> int:
        """Column index of channel ``name`` in the full schema."""
        for block in self._blocks:
            if name in block.names:
                return block.start + block.names.index(name)
        raise SimulationError(f"unknown channel {name!r}; have {sorted(self._owner_of)}")

    def owner_of(self, name: str) -> str:
        """The owner tag that declared channel ``name``."""
        try:
            return self._owner_of[name]
        except KeyError:
            raise SimulationError(
                f"unknown channel {name!r}; have {sorted(self._owner_of)}"
            ) from None

    def __len__(self) -> int:
        return sum(len(b) for b in self._blocks)

    def __contains__(self, name: str) -> bool:
        return name in self._owner_of

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        owners = ", ".join(f"{b.owner}[{len(b)}]" for b in self._blocks)
        return f"ChannelRegistry({owners})"
