"""One benchmark child process: build a workload's inputs, then time or trace it.

``run.py`` starts one child at a time, with ``src`` on ``PYTHONPATH`` and
the repository root as working directory, and reads the JSON object on
the last line of the child's standard output::

    python benchmarks/suite/child.py setup WORKLOAD SEED
    python benchmarks/suite/child.py time  WORKLOAD SEED SECONDS [--quick]
    python benchmarks/suite/child.py trace WORKLOAD SEED SECONDS [--quick] [--chrome PATH]

``setup`` reports the ``time.monotonic()`` instant its inputs were ready
(the parent knows when it launched the child) and the setup units it ran
right before and after building them. ``time`` runs a warm-up
iteration, then timed iterations for about SECONDS, with reference-kernel
units in the gap before and after each iteration and, on a CPU-time
timer, during it. ``trace`` runs a traced warm-up whose raw spans go to
the Chrome trace, then untraced/traced pairs for about SECONDS.
``--quick`` drops the untimed warm-up and stops after one timed
iteration or pair. The child reports raw host times; ``run.py``
calibrates them (``calibrate.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import calibrate
import tracing
from kernel import UNITS, time_setup_unit, time_unit
from tracing import DISTRIBUTION_SPANS, Tracer, chrome_trace, wrapper_cost
from workloads import WORKLOADS, Workload

#: CPU seconds between two probe units inside a timed iteration (one unit
#: is about 5 ms, so probes take about 2.5% of the iteration).
PROBE_PERIOD_S = 0.2


class _Probes:
    """Reference-kernel units run from a CPU-time timer during an iteration.

    A gap before and after an iteration samples machine speed only at its
    ends; these samples cover the seconds in between. The handler runs on
    the main thread between two bytecodes of the workload, which it does
    not touch, and holds off the garbage collector so that a collection
    the workload is due is not charged to the probe. Each sample is
    ``(start offset, whole probe, timed unit)`` in host ns; in a traced
    iteration the tracer also gets each probe's interval, to take it out
    of the span it interrupted.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[int, int, int]] = []
        self._t0 = 0
        self._tracer: Optional[Tracer] = None

    def _fire(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter_ns()
            unit = time_unit(warm=True)
            end = time.perf_counter_ns()
            self.samples.append((start - self._t0, end - start, unit))
            if self._tracer is not None:
                self._tracer.probes.append((start, end))
        finally:
            if enabled:
                gc.enable()

    @contextlib.contextmanager
    def running(self, t0: int, tracer: Optional[Tracer]) -> Iterator[None]:
        self.samples, self._t0, self._tracer = [], t0, tracer
        previous = signal.signal(signal.SIGPROF, self._fire)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)


def _iterate(wl: Workload, inputs, phase: str, *, tracer: Optional[Tracer] = None,
             probes: Optional[_Probes] = None) -> Dict:
    """One iteration; only the workload's own call is timed (and traced)."""
    t0 = time.perf_counter_ns()
    try:
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.installed())
            if probes is not None:
                stack.enter_context(probes.running(t0, tracer))
            result = wl.run(inputs)
        t_ns = time.perf_counter_ns() - t0
        outcome = wl.check(inputs, result)
    except Exception as exc:  # a raising iteration counts as failed; keep measuring
        traceback.print_exc()
        return {"phase": phase, "t_ns": time.perf_counter_ns() - t0, "error": repr(exc)}
    return {
        "phase": phase,
        "t_ns": t_ns,
        "probes": probes.samples if probes is not None else [],
        "digest": outcome.digest,
        "problems": outcome.problems,
        "work": outcome.work,
        "counts": outcome.counts,
        "stats": outcome.stats,
    }


def _until(seconds: float, quick: bool, step: Callable[[], None]) -> None:
    """Call ``step`` until another call would likely end past ``seconds``.

    Always at least once, and exactly once with ``quick``.
    """
    start = time.perf_counter()
    took: List[float] = []
    while True:
        t0 = time.perf_counter()
        step()
        took.append(time.perf_counter() - t0)
        if quick or time.perf_counter() - start + statistics.median(took) > seconds:
            return


class _Gaps:
    """Reference-kernel units in the gaps between iterations.

    Each gap runs about 5% of an iteration's length in units (at least
    one kernel's worth, at most eight), so that one descheduled unit does
    not skew the iterations on either side of it.
    """

    def __init__(self, iteration_s: float) -> None:
        per_gap = round(0.05 * iteration_s * 1e9 / calibrate.UNIT_NOMINAL_NS)
        self.units = max(UNITS, min(8 * UNITS, per_gap))
        self.gaps: List[List[int]] = []
        time_unit()  # the first call in a process pays one-off allocation costs
        self.gap()

    def gap(self) -> None:
        self.gaps.append([time_unit() for _ in range(self.units)])

    def stamp(self, rec: Dict) -> Dict:
        """Close the gap after ``rec`` and note which gaps surround it."""
        rec["gap"] = len(self.gaps) - 1
        self.gap()
        return rec


def time_workload(wl: Workload, inputs, seconds: float, quick: bool) -> Dict:
    records: List[Dict] = []
    if quick:
        gaps = _Gaps(0.0)
    else:
        records.append(_iterate(wl, inputs, "warmup"))
        gaps = _Gaps(records[-1]["t_ns"] / 1e9)
    probes = _Probes()

    def step() -> None:
        records.append(gaps.stamp(_iterate(wl, inputs, "timed", probes=probes)))

    _until(seconds, quick, step)
    # ru_maxrss is in KiB on Linux.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"iterations": records, "gaps": gaps.gaps, "peak_rss_mb": rss_mb}


def trace_workload(wl: Workload, inputs, seconds: float, quick: bool, chrome: str) -> Dict:
    # The first traced iteration is the warm-up; its raw spans become the
    # Chrome trace.
    tracer = Tracer()
    records = [_iterate(wl, inputs, "traced-warmup", tracer=tracer)]
    raw = tracer.analyse(raw=bool(chrome)).raw
    if chrome:
        with open(chrome, "w") as fh:
            json.dump(chrome_trace(raw), fh)
    inner_ns, outer_ns = wrapper_cost()
    gaps = _Gaps(records[0]["t_ns"] / 1e9)
    probes = _Probes()
    call_us: Dict[str, List[float]] = {name: [] for name in DISTRIBUTION_SPANS}

    def step() -> None:
        records.append(gaps.stamp(_iterate(wl, inputs, "untraced", probes=probes)))
        rec = gaps.stamp(_iterate(wl, inputs, "traced", tracer=tracer, probes=probes))
        analysis = tracer.analyse()
        if "error" not in rec:
            scale = calibrate.iteration_speed(rec, gaps.gaps)
            rec["layers"] = tracing.summary(analysis, rec["t_ns"], inner_ns, outer_ns, scale)
            for name, values in call_us.items():
                values.extend(tracing.call_us(analysis, name, inner_ns, outer_ns, scale))
        records.append(rec)

    _until(seconds, quick, step)
    percentiles = {}
    for name, values in call_us.items():
        cuts = statistics.quantiles(values, n=100) if len(values) >= 2 else [0.0] * 99
        percentiles[name] = {"p50": cuts[49], "p99": cuts[98], "n": len(values)}
    return {
        "iterations": records,
        "gaps": gaps.gaps,
        "wrapper_ns": {"inner": inner_ns, "outer": outer_ns},
        "call_us": percentiles,
        "missing_sites": tracer.missing,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "time", "trace"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float, nargs="?", default=0.0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--chrome", default="", help="Chrome trace output path (trace mode)")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    if args.mode == "setup":
        # Setup units right before and after building the inputs calibrate
        # this launch; the first ones run cold and their time is not setup time.
        start = time.perf_counter_ns()
        before = [time_setup_unit() for _ in range(UNITS)]
        kernel_ns = time.perf_counter_ns() - start
        wl.setup(args.seed)
        ready = time.monotonic()
        after = [time_setup_unit() for _ in range(UNITS)]
        print(json.dumps({"ready_s": ready, "kernel_ns": kernel_ns, "units": before + after}))
        return 0
    inputs = wl.setup(args.seed)
    if args.mode == "time":
        out = time_workload(wl, inputs, args.seconds, args.quick)
    else:
        out = trace_workload(wl, inputs, args.seconds, args.quick, args.chrome)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
