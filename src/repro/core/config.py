"""MAGUS configuration: the paper's thresholds and intervals.

Defaults are the values §3.3 recommends and §6.4's sensitivity analysis
places on the common Pareto frontier: ``inc_threshold = 200``,
``dec_threshold = 500``, ``high_freq_threshold = 0.4``, monitored every
0.2 s, with a 2.0 s (10-cycle) initialisation window.

Threshold units: the predictor consumes PCM throughput in **MB/s** and its
derivative in **MB/s per monitoring sample** — the scale at which 200/500
are meaningful magic numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from repro.errors import ConfigError
from repro.units import require_finite

__all__ = ["MagusConfig"]


@dataclass(frozen=True)
class MagusConfig:
    """All MAGUS tunables.

    Parameters
    ----------
    interval_s:
        Sleep between the end of one invocation and the next (§6.4 fixes
        this at 0.2 s; with the ~0.1 s PCM aggregation each invocation, the
        decision period is ~0.3 s).
    history_len:
        Capacity of the memory-throughput FIFO (``mem_throughput_ls``);
        10 samples = the 2.0 s initialisation window.
    tune_history_len:
        Capacity of the tune-event FIFO (``uncore_tune_ls``).
    direv_length:
        Window length ``L`` of Algorithm 1: the derivative is taken across
        the last ``L`` sampling intervals and expressed per interval.
    inc_threshold:
        Algorithm 1 increase threshold, MB/s per sample; a derivative above
        it predicts a sharp throughput rise → raise uncore to max.
    dec_threshold:
        Algorithm 1 decrease threshold (positive number, compared against
        ``-d``): a derivative below ``-dec_threshold`` predicts a sharp
        fall → drop uncore to min.
    high_freq_threshold:
        Algorithm 2 threshold on the fraction of recent cycles that
        generated a tune event; at or above it the workload is classified
        high-frequency and the uncore is pinned at max.
    init_cycles:
        Monitoring cycles before MDFS starts issuing decisions (§3.3: 10).
    launch_delay_s:
        Delay between application start and the runtime's first cycle
        (application detection + attach). Bursts inside this window are the
        paper's explanation for the low Jaccard scores of fdtd2d, gemm,
        cfd_double and particlefilter_float (§6.3).
    """

    interval_s: float = 0.2
    history_len: int = 10
    tune_history_len: int = 10
    direv_length: int = 3
    inc_threshold: float = 200.0
    dec_threshold: float = 500.0
    high_freq_threshold: float = 0.4
    init_cycles: int = 10
    launch_delay_s: float = 0.8
    #: Ablation switch: when False, Phase 2 (Algorithm 2) never pins the
    #: uncore -- the predictor's decision always executes. Tune events are
    #: still logged so the rate remains inspectable.
    detector_enabled: bool = True
    #: Ablation switch: ``None`` reproduces MAGUS's aggressive actuation
    #: (jump straight to the bound, §6.1); a positive value instead moves
    #: the uncore gradually by at most this many GHz per decision
    #: (UPS-style stepping).
    step_ghz: Optional[float] = None

    def __post_init__(self) -> None:
        # Every range check below is a comparison, which NaN passes.
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value is not None:
                require_finite(
                    value,
                    error=lambda _, name=spec.name: ConfigError(f"{name} must not be NaN"),
                    allow_inf=True,
                )
        if self.interval_s <= 0:
            raise ConfigError(f"interval_s must be positive, got {self.interval_s!r}")
        if self.history_len < 2:
            raise ConfigError(f"history_len must be >= 2, got {self.history_len!r}")
        if self.tune_history_len < 1:
            raise ConfigError(f"tune_history_len must be >= 1, got {self.tune_history_len!r}")
        if not (1 <= self.direv_length < self.history_len):
            raise ConfigError(
                f"direv_length must be in [1, history_len), got {self.direv_length!r} "
                f"with history_len={self.history_len!r}"
            )
        if self.inc_threshold <= 0 or self.dec_threshold <= 0:
            raise ConfigError("trend thresholds must be positive")
        if not (0.0 < self.high_freq_threshold <= 1.0):
            raise ConfigError(
                f"high_freq_threshold must be in (0, 1], got {self.high_freq_threshold!r}"
            )
        if self.init_cycles < 1:
            raise ConfigError(f"init_cycles must be >= 1, got {self.init_cycles!r}")
        if self.launch_delay_s < 0:
            raise ConfigError(f"launch_delay_s must be >= 0, got {self.launch_delay_s!r}")
        if self.step_ghz is not None and self.step_ghz <= 0:
            raise ConfigError(f"step_ghz must be positive or None, got {self.step_ghz!r}")

    def replace(self, **changes) -> "MagusConfig":
        """Return a copy with the given fields replaced (sweep helper)."""
        from dataclasses import replace as _replace

        return _replace(self, **changes)
