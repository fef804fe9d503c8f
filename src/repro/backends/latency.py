"""Modeled frequency-switch latency: the cost the simulator never charged.

Frequency transitions on real parts are not instantaneous. Measured GPU
DVFS transitions (see PAPERS.md, "Methodology for GPU Frequency Switching
Latency Measurement") are *distribution-shaped*: a long-tailed spread
around a median of tens of milliseconds, with occasional outliers an order
of magnitude above it. MSR-programmed uncore limits and HSMP mailbox
P-state requests are faster but share the shape — a skewed body with a
hard floor (the mechanism's minimum handshake) and a practical ceiling.

:class:`LatencyModel` reproduces that shape with a clipped lognormal: each
switch draws ``median_s * exp(sigma * z)`` with ``z ~ N(0, 1)`` from a
seeded stream (:func:`~repro.sim.rng.derive_seed` keyed by the run's
master seed), then clamps into ``[floor_s, ceil_s]``. Sampling is driven
purely by the sequence of actuations, so the same seed replays the same
latencies regardless of process or worker count.

The zero model (:meth:`LatencyModel.zero`) never touches the RNG and
charges nothing — the backend's default, pinned bit-identical to the
pre-backend actuation path by the golden-trace suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple, Union

import numpy as np

from repro.errors import BackendError
from repro.sim.rng import derive_seed, spawn_generator
from repro.units import require_finite

__all__ = [
    "LatencyParams",
    "LatencyModel",
    "LATENCY_PRESETS",
    "ACTUATION_SECONDS_BUCKETS",
    "resolve_latency",
]

#: Histogram buckets for ``repro.actuation.latency_s`` — switch latencies
#: span sub-millisecond MSR writes to ~100 ms GPU DVFS tail events.
ACTUATION_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2,
)


@dataclass(frozen=True)
class LatencyParams:
    """Shape of one mechanism's switch-latency distribution.

    Attributes
    ----------
    median_s:
        Median switch latency; 0 means instantaneous (the zero model).
    sigma:
        Lognormal shape parameter (spread of the long tail).
    floor_s / ceil_s:
        Clamp bounds: the mechanism's minimum handshake time and the
        largest latency worth modeling (beyond it, a real system would
        have timed out and retried).
    """

    median_s: float = 0.0
    sigma: float = 0.0
    floor_s: float = 0.0
    ceil_s: float = 0.0

    def __post_init__(self) -> None:
        if self.median_s < 0 or self.sigma < 0 or self.floor_s < 0 or self.ceil_s < 0:
            raise BackendError(f"latency parameters must be non-negative: {self!r}")
        # NaN passes the comparisons above and below; a NaN or infinite
        # parameter would make every draw NaN or infinite.
        require_finite(
            self.median_s, self.sigma, self.floor_s, self.ceil_s,
            error=lambda *_: BackendError(f"latency parameters must be finite: {self!r}"),
        )
        if self.median_s > 0:
            if not (self.floor_s <= self.median_s <= self.ceil_s):
                raise BackendError(
                    f"median {self.median_s!r}s outside clamp bounds "
                    f"[{self.floor_s!r}, {self.ceil_s!r}]s"
                )


#: Named mechanism presets. Medians follow the measured ordering: MSR
#: writes are sub-millisecond, HSMP mailbox transactions a few
#: milliseconds, GPU DVFS tens of milliseconds with the heaviest tail.
LATENCY_PRESETS: Mapping[str, LatencyParams] = {
    "msr_fast": LatencyParams(median_s=5e-4, sigma=0.4, floor_s=1e-4, ceil_s=5e-3),
    "hsmp_mailbox": LatencyParams(median_s=2e-3, sigma=0.5, floor_s=5e-4, ceil_s=2e-2),
    "gpu_dvfs": LatencyParams(median_s=1.2e-2, sigma=0.6, floor_s=2e-3, ceil_s=8e-2),
}


class LatencyModel:
    """Seeded sampler of per-switch frequency-transition latencies.

    Parameters
    ----------
    params:
        Distribution shape; omitted means the zero (instantaneous) model.
    seed:
        Master seed; the sampling stream is ``derive_seed(seed, stream)``,
        so latency draws are isolated from every other RNG stream of the
        run (adding a switch perturbs no workload jitter and vice versa).
    stream:
        Stream name, for callers that need several independent models.
    """

    def __init__(
        self,
        params: Optional[LatencyParams] = None,
        *,
        seed: int = 0,
        stream: str = "backend.latency",
    ) -> None:
        self.params = params if params is not None else LatencyParams()
        self.seed = seed
        self.stream = stream
        self._rng: Optional[np.random.Generator] = (
            None if self.is_zero else spawn_generator(derive_seed(seed, stream))
        )
        #: Number of latencies sampled so far.
        self.samples = 0

    @classmethod
    def zero(cls) -> "LatencyModel":
        """The instantaneous model: every switch costs exactly 0 s."""
        return cls(LatencyParams())

    @classmethod
    def preset(cls, name: str, *, seed: int = 0) -> "LatencyModel":
        """Build a model from a named mechanism preset."""
        params = LATENCY_PRESETS.get(name)
        if params is None:
            raise BackendError(
                f"unknown latency preset {name!r}; known: {', '.join(sorted(LATENCY_PRESETS))}"
            )
        return cls(params, seed=seed)

    @property
    def is_zero(self) -> bool:
        """True for the instantaneous model (no RNG, no charges)."""
        return self.params.median_s == 0.0

    def sample_switch_s(self) -> float:
        """Draw one switch latency in seconds (0.0 for the zero model)."""
        if self._rng is None:
            return 0.0
        p = self.params
        z = float(self._rng.standard_normal())
        value = p.median_s * math.exp(p.sigma * z)
        self.samples += 1
        return min(max(value, p.floor_s), p.ceil_s)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_zero:
            return "LatencyModel(zero)"
        return (
            f"LatencyModel(median={self.params.median_s * 1e3:.2f}ms, "
            f"sigma={self.params.sigma}, seed={self.seed}, samples={self.samples})"
        )


def resolve_latency(
    spec: Union["LatencyModel", str, None], *, seed: int = 0
) -> "LatencyModel":
    """Coerce a user-facing latency spec into a model.

    ``None`` → the zero model; a preset name → ``LatencyModel.preset(name,
    seed=seed)`` (so the run's master seed drives the draws); a model
    passes through unchanged.
    """
    if spec is None:
        return LatencyModel.zero()
    if isinstance(spec, LatencyModel):
        return spec
    if isinstance(spec, str):
        return LatencyModel.preset(spec, seed=seed)
    raise BackendError(
        f"expected a LatencyModel, preset name or None, got {type(spec).__name__}"
    )
