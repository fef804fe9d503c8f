"""Bench: the harness's own performance budget (not a paper artefact).

Two relative gates, each comparing two paths measured in the same
process, so neither depends on the machine's absolute speed:

* observability on vs off — an instrumented run must keep 95% of the
  uninstrumented run's throughput, and
* the recording path in isolation — the columnar ``record_row`` path
  must at least match (target: beat) a replay of the per-tick kwargs
  path it replaced, measured over a 600 s simulated run's worth of ticks
  at the standard Intel+A100 channel width.

End-to-end throughput is measured by ``benchmarks/suite`` instead.
"""

import time

from repro.hw.presets import intel_a100
from repro.sim.channels import ChannelRegistry
from repro.sim.observers import standard_observers
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceRecorder
from repro.telemetry.hub import TelemetryHub

SIM_SECONDS = 5.0
TICKS = int(SIM_SECONDS / 0.01)

#: One 600 s simulated run at the 10 ms tick — the recording-path bench
#: replays exactly this many samples through each recorder path.
RUN_600S_TICKS = int(600.0 / 0.01)


def _a100_schema():
    """The channel schema a standard Intel+A100 run records (18 + 80)."""
    preset = intel_a100()
    node = preset.build_node(RngStreams(0))
    hub = TelemetryHub(node, preset.telemetry)
    registry = ChannelRegistry()
    for obs in standard_observers(node, hub):
        declare = getattr(obs, "declare_channels", None)
        if declare is not None:
            declare(registry)
    return registry.channels


def _run_daemon_path(obs_enabled):
    from repro.obs import ObsConfig
    from repro.runtime.session import make_governor, run_application

    return run_application(
        "intel_a100",
        "unet",
        make_governor("magus"),
        seed=1,
        max_time_s=SIM_SECONDS,
        obs=ObsConfig(enabled=True) if obs_enabled else None,
    )


def test_obs_overhead_under_five_percent(benchmark):
    """Full-stack obs cost: an instrumented run vs an uninstrumented one.

    The obs layer promises "zero-cost-when-disabled, cheap-when-enabled":
    the golden-trace suite proves the disabled half (bit-identity); this
    bench guards the enabled half — spans + counters on every decision
    cycle must cost < 5% of end-to-end run throughput (best-of-rounds on
    both sides, so scheduler noise cannot fail the gate spuriously).
    Each round runs uninstrumented, then instrumented, so drift of the
    machine's speed lands on both sides instead of on one block of rounds.
    """
    rounds = 3
    baseline_times = []

    def uninstrumented_run_first():
        baseline_times.append(_timed(_run_daemon_path, False))

    instrumented = benchmark.pedantic(
        _run_daemon_path,
        args=(True,),
        setup=uninstrumented_run_first,
        rounds=rounds,
        iterations=1,
    )
    assert len(baseline_times) == rounds
    baseline_s = min(baseline_times)
    instrumented_s = benchmark.stats.stats.min
    assert instrumented.metrics is not None and len(instrumented.spans) > 0

    baseline_tps = TICKS / baseline_s
    instrumented_tps = TICKS / instrumented_s
    print(
        f"\nobs overhead: instrumented {instrumented_tps:,.0f} ticks/s vs "
        f"disabled {baseline_tps:,.0f} ticks/s "
        f"({(baseline_tps / instrumented_tps - 1) * 100:+.1f}% run time)"
    )
    assert instrumented_tps >= 0.95 * baseline_tps


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _replay_columnar(channels, n_ticks):
    recorder = TraceRecorder(channels)
    row = recorder.row_buffer()
    record_row = recorder.record_row
    dt = 0.01
    for i in range(n_ticks):
        row[0] = float(i)
        record_row((i + 1) * dt, row)
    return recorder


def _replay_kwargs(channels, n_ticks):
    # The pre-refactor engine's hot path: build a fresh name->value dict
    # every tick, check it against the schema, and write it in column order.
    recorder = TraceRecorder(channels)
    record_row = recorder.record_row
    dt = 0.01
    for i in range(n_ticks):
        values = {c: 0.0 for c in channels}
        values[channels[0]] = float(i)
        if set(values) != set(channels):
            raise AssertionError("channel mismatch")
        record_row((i + 1) * dt, [values[c] for c in channels])
    return recorder


def test_columnar_record_row_beats_kwargs_path(benchmark):
    """ticks/s of record_row vs the legacy kwargs path, 600 s of samples.

    Tracks the hot-loop trajectory across PRs: the printed ratio is the
    speedup the columnar fast path buys at the standard trace width.
    """
    channels = _a100_schema()
    assert len(channels) >= 22  # 18 node channels + topology-derived cores

    t0 = time.perf_counter()
    kwargs_recorder = _replay_kwargs(channels, RUN_600S_TICKS)
    kwargs_s = time.perf_counter() - t0
    assert len(kwargs_recorder) == RUN_600S_TICKS

    columnar_recorder = benchmark.pedantic(
        _replay_columnar, args=(channels, RUN_600S_TICKS), rounds=3, iterations=1
    )
    columnar_s = benchmark.stats.stats.mean
    assert len(columnar_recorder) == RUN_600S_TICKS

    kwargs_tps = RUN_600S_TICKS / kwargs_s
    columnar_tps = RUN_600S_TICKS / columnar_s
    print(
        f"\nrecording throughput over {len(channels)} channels: "
        f"columnar {columnar_tps:,.0f} ticks/s vs kwargs {kwargs_tps:,.0f} ticks/s "
        f"({columnar_tps / kwargs_tps:.1f}x)"
    )
    # Acceptance floor: the fast path must at least match the legacy path.
    assert columnar_tps >= kwargs_tps
