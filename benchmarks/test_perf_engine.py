"""Bench: simulator throughput (ticks/second of the core loop).

Not a paper artefact — the harness's own performance budget. The whole
reproduction depends on the tick loop being cheap enough that full-suite
sweeps finish in tens of seconds; these benches are the regression guard
for that property, and the only true micro-benchmarks in the harness
(multiple rounds, statistics meaningful).

Two layers are guarded:

* the full engine loop (physics + observer dispatch + columnar flush), and
* the recording path in isolation — the columnar ``record_row`` path
  must at least match (target: beat) a replay of the per-tick kwargs
  path it replaced, measured over a 600 s simulated run's worth of ticks
  at the standard Intel+A100 channel width.
"""

import time

from perf_log import publish

from repro.hw.presets import intel_a100
from repro.sim.channels import ChannelRegistry
from repro.sim.clock import SimClock
from repro.sim.engine import SimulationEngine
from repro.sim.observers import standard_observers
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceRecorder
from repro.telemetry.hub import TelemetryHub
from repro.workloads.registry import get_workload

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


def _simulate_five_seconds():
    preset = intel_a100()
    node = preset.build_node(RngStreams(0))
    node.force_uncore_all(preset.uncore_min_ghz)
    hub = TelemetryHub(node, preset.telemetry)
    engine = SimulationEngine(node, observers=standard_observers(node, hub), clock=SimClock(0.01))
    workload = get_workload("unet", seed=1)
    return engine.run(workload, max_time_s=SIM_SECONDS)


def test_engine_tick_throughput(benchmark):
    result = benchmark.pedantic(_simulate_five_seconds, rounds=3, iterations=1)
    assert len(result.recorder) == TICKS

    seconds_per_run = benchmark.stats.stats.mean
    ticks_per_second = TICKS / seconds_per_run
    print(f"\nengine throughput: {ticks_per_second:,.0f} ticks/s "
          f"({ticks_per_second * 0.01:,.0f}x real time on an 80-core node model)")
    publish("engine_tick_throughput", {"ticks_per_s": ticks_per_second})
    # Budget: a full Fig. 4a sweep (~75 runs x ~30 sim-seconds) must stay
    # in the tens of seconds, which needs >= 3000 ticks/s.
    assert ticks_per_second > 3000


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
    """
    rounds = 3
    baseline_s = min(
        _timed(_run_daemon_path, False) for _ in range(rounds)
    )

    instrumented = benchmark.pedantic(
        _run_daemon_path, args=(True,), rounds=rounds, iterations=1
    )
    instrumented_s = benchmark.stats.stats.min
    assert instrumented.metrics is not None and len(instrumented.spans) > 0

    baseline_tps = TICKS / baseline_s
    instrumented_tps = TICKS / instrumented_s
    print(
        f"\nobs overhead: instrumented {instrumented_tps:,.0f} ticks/s vs "
        f"disabled {baseline_tps:,.0f} ticks/s "
        f"({(baseline_tps / instrumented_tps - 1) * 100:+.1f}% run time)"
    )
    publish(
        "obs_overhead",
        {"instrumented_ticks_per_s": instrumented_tps, "baseline_ticks_per_s": baseline_tps},
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
    publish(
        "columnar_record_row",
        {"columnar_ticks_per_s": columnar_tps, "kwargs_ticks_per_s": kwargs_tps},
    )
    # Acceptance floor: the fast path must at least match the legacy path.
    assert columnar_tps >= kwargs_tps
