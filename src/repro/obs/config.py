"""ObsConfig: which observability outputs a run produces.

A run traces spans live, on a :class:`~repro.obs.spans.SpanTracer` handed
to its daemon and governor. Its metrics registry and time-series store are
not recorded while it runs: :mod:`repro.runtime.derived` builds them from
the records each layer keeps anyway, once the run ends. A disabled run
therefore executes no observability code beyond one ``tracer is None``
check per span site, and every output is passive — the golden-trace suite
proves the traces are bit-identical with observability on or off.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ObsConfig"]


@dataclass(frozen=True)
class ObsConfig:
    """What to collect.

    Attributes
    ----------
    enabled:
        Master switch; False means no registry, no spans, no series.
    metrics:
        Derive the run's counters/gauges/histograms (requires ``enabled``).
    spans:
        Record decision-cycle spans (requires ``enabled``).
    tsdb:
        Derive the run's time series into a
        :class:`~repro.obs.tsdb.TimeSeriesDB` (requires ``enabled``; off
        by default).
    """

    enabled: bool = False
    metrics: bool = True
    spans: bool = True
    tsdb: bool = False
