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

    # The whole run (4,663 ticks), so each timed side spans many
    # scheduler quanta.
    return run_application(
        "intel_a100",
        "unet",
        make_governor("magus"),
        seed=1,
        obs=ObsConfig(enabled=True) if obs_enabled else None,
    )


def test_obs_overhead_under_five_percent(benchmark):
    """Full-stack obs cost: an instrumented run vs an uninstrumented one.

    The obs layer promises "zero-cost-when-disabled, cheap-when-enabled":
    the golden-trace suite proves the disabled half (bit-identity); this
    bench guards the enabled half — spans + counters on every decision
    cycle must cost < 5% of end-to-end run throughput (best-of-rounds on
    both sides, so scheduler noise cannot fail the gate spuriously).
    Each side is timed in CPU time over a whole run, and the rounds
    alternate which side runs first, so drift of the machine's speed
    lands on both sides and time other processes take lands on neither.
    """
    baseline_times, instrumented_times, instrumented = benchmark.pedantic(
        _alternating_rounds, args=(5,), rounds=1, iterations=1
    )
    baseline_s = min(baseline_times)
    instrumented_s = min(instrumented_times)
    assert instrumented.metrics is not None and len(instrumented.spans) > 0

    print(
        f"\nobs overhead: instrumented {instrumented_s * 1e3:.1f} ms vs "
        f"disabled {baseline_s * 1e3:.1f} ms CPU per run "
        f"({(instrumented_s / baseline_s - 1) * 100:+.1f}% run time)"
    )
    # Same ticks on both sides: 95% of the throughput is 1/0.95 of the time.
    assert baseline_s >= 0.95 * instrumented_s


def _alternating_rounds(rounds):
    """Each side's CPU time per round, and the last instrumented result.

    Even rounds run uninstrumented first, odd rounds instrumented first:
    the second of two back-to-back runs reads a few percent slower, and a
    fixed order would charge that to one side.
    """
    times = {False: [], True: []}
    instrumented = None
    for k in range(rounds):
        for obs_enabled in (False, True) if k % 2 == 0 else (True, False):
            result, seconds = _cpu_timed(_run_daemon_path, obs_enabled)
            times[obs_enabled].append(seconds)
            if obs_enabled:
                instrumented = result
    return times[False], times[True], instrumented


def _cpu_timed(fn, *args):
    t0 = time.process_time()
    result = fn(*args)
    return result, time.process_time() - t0


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
