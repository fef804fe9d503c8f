"""Quantised simulated time.

All simulated time in :mod:`repro` is carried by a :class:`SimClock`: an
integer tick counter plus a fixed tick width ``dt``.  Using integer ticks
(rather than accumulating floats) keeps long runs exactly reproducible — a
10-minute idle-overhead run is 60 000 ticks with zero drift.
"""

from __future__ import annotations

from repro.errors import ClockError

__all__ = ["SimClock"]


class SimClock:
    """A monotonically advancing, quantised simulation clock.

    Parameters
    ----------
    dt:
        Tick width in seconds. Must be positive. The default of 10 ms is a
        good compromise: it is 20× finer than the 0.2 s monitoring interval
        of the runtimes under study while keeping multi-minute simulations
        cheap.

    Examples
    --------
    >>> clock = SimClock(dt=0.01)
    >>> clock.now
    0.0
    >>> round(clock.advance(), 6)
    0.01
    """

    __slots__ = ("_dt", "_tick")

    def __init__(self, dt: float = 0.01) -> None:
        if not (dt > 0):
            raise ClockError(f"tick width must be positive, got {dt!r}")
        self._dt = float(dt)
        self._tick = 0

    @property
    def dt(self) -> float:
        """Tick width in seconds."""
        return self._dt

    @property
    def tick(self) -> int:
        """Number of completed ticks since the epoch."""
        return self._tick

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._tick * self._dt

    def advance(self, ticks: int = 1) -> float:
        """Advance the clock by ``ticks`` ticks and return the new time.

        Raises
        ------
        ClockError
            If ``ticks`` is not a positive integer (time never flows
            backwards in this simulator).
        """
        if not isinstance(ticks, int) or ticks <= 0:
            raise ClockError(f"can only advance by a positive integer tick count, got {ticks!r}")
        self._tick += ticks
        return self._tick * self._dt

    def ticks_until(self, when_s: float) -> int:
        """Number of whole ticks from now until simulated time ``when_s``.

        Rounds *up*, so waiting ``ticks_until(t)`` ticks never undershoots
        ``t``. Returns 0 if ``when_s`` is in the past.
        """
        if when_s <= self.now:
            return 0
        remaining = when_s - self.now
        ticks = int(remaining / self._dt)
        if ticks * self._dt < remaining - 1e-12:
            ticks += 1
        return ticks

    def ticks_before(self, when_s: float, limit: int) -> int:
        """How many of the next ``limit`` ticks end strictly before ``when_s``.

        Tick ``j`` from now (``j = 0`` first) ends at ``(tick + j + 1) *
        dt``, the value :meth:`advance` will return, so the count uses the
        clock's own quantisation and never shifts by float noise. The ends
        rise with ``j``, so the count is the first ``j`` whose end reaches
        ``when_s``. A NaN ``when_s`` is reached at once.
        """
        tick, dt = self._tick, self._dt
        if (tick + limit) * dt < when_s:
            return limit
        if not (tick + 1) * dt < when_s:
            return 0
        # Tick 0 ends before when_s and tick limit - 1 does not: start from
        # an estimate and settle on the first tick that does not.
        j = min(max(int(when_s / dt) - tick - 1, 1), limit - 1)
        while (tick + j) * dt >= when_s:
            j -= 1
        while (tick + j + 1) * dt < when_s:
            j += 1
        return j

    def align(self, period_s: float) -> float:
        """Return the first time ``>= now`` that is an integer multiple of
        ``period_s``.

        Used by samplers that fire on a fixed grid.
        """
        if period_s <= 0:
            raise ClockError(f"period must be positive, got {period_s!r}")
        k = int(self.now / period_s)
        t = k * period_s
        if t < self.now - 1e-12:
            t = (k + 1) * period_s
        return t

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(dt={self._dt}, tick={self._tick}, now={self.now:.3f}s)"
