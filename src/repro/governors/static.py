"""Static uncore pinning — the endpoints of the paper's Fig. 2 case study.

A :class:`StaticUncoreGovernor` programs one frequency at launch and never
acts again.  ``StaticUncoreGovernor.at_max(node_max)`` reproduces the
"Max Uncore Freq." column, ``at_min`` the "Min Uncore Freq." column; both
are also the reference configurations for the Table 1 Jaccard analysis and
the Fig. 5 throughput overlays.
"""

from __future__ import annotations

from repro.errors import GovernorError
from repro.governors.base import Decision, UncoreGovernor
from repro.telemetry.sampling import AccessMeter
from repro.units import require_finite

__all__ = ["StaticUncoreGovernor"]


def _invalid_frequency(freq_ghz: float) -> GovernorError:
    return GovernorError(f"invalid static frequency {freq_ghz!r}")


class StaticUncoreGovernor(UncoreGovernor):
    """Pin the uncore at a fixed frequency for the whole run.

    Parameters
    ----------
    freq_ghz:
        The frequency to pin. Clamped/snapped to the hardware range at
        launch (mirroring a sysadmin writing ``0x620`` once).
    label:
        Optional report name; defaults to ``static@<freq>``.
    """

    hardware = True  # pinning costs nothing at runtime

    def __init__(self, freq_ghz: float, label: str = ""):
        super().__init__()
        # +inf / ~0 are valid sentinels (at_max / at_min): they clamp to the
        # hardware range once the node is known. Only NaN and <= 0 are junk.
        require_finite(freq_ghz, error=_invalid_frequency, allow_inf=True)
        if freq_ghz <= 0:
            raise _invalid_frequency(freq_ghz)
        self.freq_ghz = float(freq_ghz)
        self.name = label or f"static@{freq_ghz:.1f}GHz"

    @classmethod
    def at_max(cls) -> "StaticUncoreGovernor":
        """Pin at the hardware max (resolved at attach time)."""
        gov = cls(float("inf"), label="static@max")
        return gov

    @classmethod
    def at_min(cls) -> "StaticUncoreGovernor":
        """Pin at the hardware min (resolved at attach time)."""
        gov = cls(1e-9, label="static@min")
        return gov

    @property
    def interval_s(self) -> float:
        """No periodic work; the daemon never wakes this governor."""
        return float("inf")

    @property
    def initial_uncore_ghz(self) -> float:
        """The pinned frequency, clamped to the attached node's range."""
        ctx = self.context
        return min(max(self.freq_ghz, ctx.uncore_min_ghz), ctx.uncore_max_ghz)

    def sample_and_decide(self, now_s: float, meter: AccessMeter) -> Decision:
        """Never called in practice (interval is infinite); holds if it is."""
        return Decision(now_s, None, "static_hold")
