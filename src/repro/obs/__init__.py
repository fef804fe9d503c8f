"""repro.obs — deterministic observability: metrics, spans, exporters.

The subsystem has three pillars, all timestamped from the simulation
clock (RL001-clean — no wall-clock reads anywhere on the hot path):

* :mod:`repro.obs.registry` — a :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket histograms with an allocation-free hot path and
  an associative :meth:`~MetricsRegistry.merge` for fan-in from parallel
  workers.
* :mod:`repro.obs.spans` — a :class:`SpanTracer` that wraps each
  MDFS/UPS decision cycle in nested spans (``cycle`` → ``sample`` →
  ``detect`` → ``decide`` → ``actuate``) carrying decision-attribution
  attributes (trend derivative, high-frequency ratio, chosen uncore GHz,
  per-span metered energy).
* :mod:`repro.obs.exporters` — Prometheus text exposition, Chrome
  trace-event JSON (``chrome://tracing`` / Perfetto) and JSONL event
  logs.

An :class:`ObsConfig` chooses a run's outputs. The tracer is the only live
sink: a single run's registry and time series are derived from its layers'
records when it ends (:mod:`repro.runtime.derived`), so observed runs are
bit-identical to unobserved ones and a disabled run pays one ``None``
check per span site (guarded by the golden-trace suite).
"""

from __future__ import annotations

from repro.obs.aggregate import merge_registries
from repro.obs.alerts import (
    SEV_PAGE,
    SEV_WARN,
    AbsenceRule,
    AlertEngine,
    AlertEvent,
    AlertRule,
    AnomalyRule,
    BurnRateRule,
    ThresholdRule,
)
from repro.obs.config import ObsConfig
from repro.obs.dashboard import render_dashboard_html
from repro.obs.exporters import (
    registry_to_dict,
    render_chrome_counter_trace,
    render_chrome_trace,
    render_jsonl,
    render_prometheus,
)
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import CauseAttribution, attribute_decisions, slowest_cycles
from repro.obs.scrape import DEFAULT_WATCH_SERIES, SERIES_CATALOGUE, default_fleet_rules
from repro.obs.spans import Span, SpanTracer
from repro.obs.tsdb import Bucket, Series, TimeSeriesDB, merge_tsdbs

__all__ = [
    "ObsConfig",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "SpanTracer",
    "Bucket",
    "Series",
    "TimeSeriesDB",
    "merge_tsdbs",
    "SEV_WARN",
    "SEV_PAGE",
    "AlertEvent",
    "AlertRule",
    "ThresholdRule",
    "BurnRateRule",
    "AbsenceRule",
    "AnomalyRule",
    "AlertEngine",
    "SERIES_CATALOGUE",
    "DEFAULT_WATCH_SERIES",
    "default_fleet_rules",
    "merge_registries",
    "render_prometheus",
    "render_chrome_trace",
    "render_chrome_counter_trace",
    "render_jsonl",
    "registry_to_dict",
    "render_dashboard_html",
    "CauseAttribution",
    "attribute_decisions",
    "slowest_cycles",
]
