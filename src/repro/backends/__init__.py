"""Uncore actuation and its modeled switch latency.

``SimBackend`` is the one actuation path: it programs the uncore ceiling
through the hub's MSR (Intel) or HSMP (AMD) device and charges the
switch latency that ``LatencyModel``, a seeded per-switch distribution,
draws for it. See ``DESIGN.md`` §6e.
"""

from repro.backends.latency import (
    ACTUATION_SECONDS_BUCKETS,
    LATENCY_PRESETS,
    LatencyModel,
    LatencyParams,
    resolve_latency,
)
from repro.backends.sim import SimBackend

__all__ = [
    "LatencyModel",
    "LatencyParams",
    "LATENCY_PRESETS",
    "ACTUATION_SECONDS_BUCKETS",
    "resolve_latency",
    "SimBackend",
]
