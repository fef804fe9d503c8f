"""The repo benchmark: four workloads, calibrated host time, traced layers.

Usage, from the repository root::

    python benchmarks/suite/run.py [--workload NAME ...] [--seed N] [--seconds S]
                                   [--trace 0|1] [--quick] [--out DIR]
    python benchmarks/suite/run.py compare A B

Each workload runs in its own child process (``child.py``), one child at
a time, single-threaded. Without ``--trace`` a workload gets the untraced
set (end-to-end metrics) and then a traced child (per-layer metrics);
``--trace 0`` or ``--trace 1`` runs only one of the two. ``--seconds`` is
the measuring time of the whole command, split evenly between the
timing and tracing children it runs. Every iteration's
output is checked: it must not raise, must keep its workload's
invariants, and must reproduce the digest pinned for seed 1 (for other
seeds, the digest of the run's first iteration). The command prints every
metric with its unit, writes a results JSON to ``--out``, prints a JSON
summary as its last line and exits non-zero if any iteration failed.

Host times are reported in reference seconds: host time times the
machine's speed at the time, as reference-kernel units timed before,
after and during it show it (``kernel.py``, ``calibrate.py``). The raw
seconds are kept under ``raw``.

``compare A B`` reads the results JSONs in two directories (or two
files) and prints, per workload and metric, each side's median and
quartiles and the change against the bound ``BENCHMARK.json`` fixes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import calibrate
from kernel import REF_NOMINAL_S
from tracing import DISTRIBUTION_SPANS, SPANS, UNATTRIBUTED
from workloads import COUNT_NAMES, WORKLOADS

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent

#: Fresh child launches that setup_s is the median of.
SETUP_LAUNCHES = 5
#: Every child must be done this long after the command started, so the
#: command always ends within three minutes.
DEADLINE_S = 170.0
#: A run whose gap units spread (IQR/median) by more than this is marked
#: unstable.
UNSTABLE_KERNEL_SPREAD = 0.05
#: Metric bounds and the default run length.
SPEC = ROOT / "BENCHMARK.json"
#: The output digests seed 1 must reproduce, per workload.
PINNED = SUITE / "pinned.json"
#: Children get one thread each: the machine has two cores, and numerical
#: libraries would otherwise start a pool per core.
SINGLE_THREADED = {
    name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}

#: (name, unit) of the end-to-end metrics, measured with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("iter_s_p50", "s"),
    ("work_per_s", "items/s"),
    ("peak_rss_mb", "MB"),
)
HEALTH = ("bench.trace_overhead_frac", "bench.trace_residual_frac", "bench.ref_kernel_cv")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for span in SPANS:
        units[f"{span}.self_ms"] = "ref_ms"
        units[f"{span}.calls"] = "count"
    units[f"{UNATTRIBUTED}.self_ms"] = "ref_ms"
    for span in DISTRIBUTION_SPANS:
        units[f"{span}.call_us_p50"] = "ref_us"
        units[f"{span}.call_us_p99"] = "ref_us"
    for name in COUNT_NAMES:
        units[name] = "ratio" if name.endswith("_frac") else "count"
    for name in HEALTH:
        units[name] = "ratio"
    return units


class ChildFailed(Exception):
    """A child process crashed, timed out or printed no result."""


def _spread(values: Sequence[float]) -> float:
    """Interquartile range over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _child(args: List[str], deadline: float) -> Dict:
    """Run ``child.py`` with ``args``; return the JSON on its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"no time left for child {args}")
    env = {**os.environ, **SINGLE_THREADED}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, str(SUITE / "child.py"), *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child {args} timed out after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child {args} exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def measure_setup(name: str, seed: int, deadline: float) -> Tuple[float, float]:
    """(raw, reference) seconds from a fresh launch until its inputs are built."""
    launched = time.monotonic()
    doc = _child(["setup", name, str(seed)], deadline)
    return doc["ready_s"] - launched, calibrate.setup_ref_s(launched, doc)


def _gap_units_ns(gaps: List[List[int]]) -> List[float]:
    """Each gap's median kernel unit."""
    return [statistics.median(g) for g in gaps]


class Checker:
    """Decides which iterations failed, in the order they ran."""

    def __init__(self, expected: Optional[str]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, rec: Dict) -> bool:
        self.attempted += 1
        where = f"{rec['phase']} iteration {self.attempted}"
        if "error" in rec:
            self.failures.append(f"{where} raised {rec['error']}")
            return False
        if rec["problems"]:
            self.failures.append(f"{where}: " + "; ".join(rec["problems"]))
            return False
        if self.expected is None:
            self.expected = rec["digest"]
        if rec["digest"] != self.expected:
            self.failures.append(f"{where}: digest {rec['digest'][:12]} != {self.expected[:12]}")
            return False
        return True

    def crashed(self, exc: ChildFailed) -> None:
        self.attempted += 1
        self.failures.append(str(exc))


def _distribution(values: Sequence[float]) -> Dict[str, float]:
    q1, med, q3 = _quartiles(values)
    return {"value": med, "n": len(values), "q1": q1, "q3": q3}


def run_workload(name: str, args, seconds: float, pinned: Dict[str, str],
                 deadline: float) -> Dict:
    """Run one workload's children, each measuring ``seconds``, and reduce
    them to metrics."""
    seed = args.seed
    checker = Checker(pinned.get(name) if seed == 1 else None)
    out: Dict = {"metrics": {}, "raw": {}, "samples": {}}
    metrics = out["metrics"]
    kernels: List[float] = []
    good: List[Dict] = []
    quick = ["--quick"] if args.quick else []
    seconds = str(seconds)

    if args.trace != 1:
        try:
            setups = [
                measure_setup(name, seed, deadline)
                for _ in range(1 if args.quick else SETUP_LAUNCHES)
            ]
            timed = _child(["time", name, str(seed), seconds, *quick], deadline)
        except ChildFailed as exc:
            checker.crashed(exc)
        else:
            gap_units = _gap_units_ns(timed["gaps"])
            kernels.extend(gap_units)
            recs = [r for r in timed["iterations"] if checker.check(r)]
            good.extend(recs)
            recs = [r for r in recs if r["phase"] == "timed"]
            if recs:
                ref = [calibrate.iteration_ref_s(r, timed["gaps"]) for r in recs]
                rates = [r["work"] / s for r, s in zip(recs, ref)]
                metrics["setup_s"] = {**_distribution([s for _, s in setups]), "unit": "s"}
                metrics["iter_s_p50"] = {**_distribution(ref), "unit": "s"}
                metrics["work_per_s"] = {**_distribution(rates), "unit": "items/s"}
                metrics["peak_rss_mb"] = {"value": timed["peak_rss_mb"], "unit": "MB"}
                out["raw"] = {
                    "setup_s": statistics.median(s for s, _ in setups),
                    "iter_s_p50": statistics.median(r["t_ns"] / 1e9 for r in recs),
                    "unit_ns": statistics.median(gap_units),
                }
                out["samples"] = {
                    "setup_raw_s": [s for s, _ in setups],
                    "iterations": [
                        {k: r[k] for k in ("t_ns", "probes", "gap")} for r in recs
                    ],
                    "gaps": timed["gaps"],
                }
                out["work"] = recs[0]["work"]
    if args.trace != 0:
        # One Chrome trace per workload, overwritten by the next traced run.
        chrome = Path(args.out) / f"{name}.trace.json"
        try:
            traced = _child(
                ["trace", name, str(seed), seconds, *quick, "--chrome", str(chrome)], deadline
            )
        except ChildFailed as exc:
            checker.crashed(exc)
        else:
            kernels.extend(_gap_units_ns(traced["gaps"]))
            recs = [r for r in traced["iterations"] if checker.check(r)]
            good.extend(recs)
            out["layers"] = _layers(recs, traced)
            out["trace_file"] = str(chrome)
            out["wrapper_ns"] = traced["wrapper_ns"]
            out["missing_sites"] = traced["missing_sites"]
            out.setdefault("work", recs[0]["work"] if recs else None)
    out["ref_kernel_cv"] = _spread(kernels)
    out["unstable"] = out["ref_kernel_cv"] > UNSTABLE_KERNEL_SPREAD
    if "layers" in out:
        out["layers"]["bench.ref_kernel_cv"] = out["ref_kernel_cv"]
        units = per_layer_units()
        for metric, value in out["layers"].items():
            metrics[metric] = {"value": value, "unit": units[metric]}
    if good:
        out["digest"] = good[0]["digest"]
        out["stats"] = good[0]["stats"]
    out["attempted"] = checker.attempted
    out["failed"] = len(checker.failures)
    out["failed_frac"] = out["failed"] / max(1, checker.attempted)
    out["failures"] = checker.failures
    return out


def _layers(recs: List[Dict], traced: Dict) -> Dict[str, float]:
    """Per-layer metrics from one traced child's iterations."""
    layered = [r for r in recs if r["phase"] == "traced"]
    gaps = traced["gaps"]
    untraced = [calibrate.iteration_ref_s(r, gaps) for r in recs if r["phase"] == "untraced"]
    if not layered or not untraced:
        return {}
    out: Dict[str, float] = {}
    for span in [*SPANS, UNATTRIBUTED]:
        out[f"{span}.self_ms"] = statistics.median(r["layers"][span]["self_ms"] for r in layered)
        if span != UNATTRIBUTED:
            out[f"{span}.calls"] = statistics.median(r["layers"][span]["calls"] for r in layered)
    for span, dist in traced["call_us"].items():
        out[f"{span}.call_us_p50"] = dist["p50"]
        out[f"{span}.call_us_p99"] = dist["p99"]
    out.update(layered[0]["counts"])
    base = statistics.median(untraced)
    attributed_s = statistics.median(
        sum(v["self_ms"] for v in r["layers"].values()) / 1e3 for r in layered
    )
    traced_s = statistics.median(calibrate.iteration_ref_s(r, gaps) for r in layered)
    out["bench.trace_overhead_frac"] = traced_s / base - 1
    out["bench.trace_residual_frac"] = attributed_s / base - 1
    return out


# -- report -------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_workload(name: str, seed: int, res: Dict) -> None:
    print(f"\n== {name} (seed {seed}): {res['attempted']} iterations attempted, "
          f"{res['failed']} failed ==")
    for failure in res["failures"]:
        print(f"  FAILED: {failure}")
    metrics = res["metrics"]
    rows = [(m, metrics[m]) for m, _ in END_TO_END if m in metrics]
    if rows:
        print(f"  {'metric':<14} {'value':>12} {'unit':<8} {'n':>3} {'q1':>12} {'q3':>12}")
        for metric, m in rows:
            q = f"{_fmt(m['q1']):>12} {_fmt(m['q3']):>12}" if "q1" in m else ""
            print(f"  {metric:<14} {_fmt(m['value']):>12} {m['unit']:<8} {m.get('n', ''):>3} {q}")
    print(f"  {'failed_frac':<14} {_fmt(res['failed_frac']):>12} ratio")
    if res["raw"]:
        raw = ", ".join(f"{k} {_fmt(v)}" for k, v in res["raw"].items())
        print(f"  raw host time: {raw}")
    print(f"  reference kernel IQR/median {res['ref_kernel_cv']:.3f}"
          + ("  (UNSTABLE)" if res["unstable"] else ""))
    if res.get("stats"):
        stats = ", ".join(f"{k}={_fmt(v)}" for k, v in res["stats"].items())
        print(f"  simulated checks (unvalidated model, not scored): {stats}")
    if res.get("layers"):
        _print_layers(res["layers"], res.get("work"))
    if res.get("missing_sites"):
        print(f"  warning: trace sites no longer exist: {', '.join(res['missing_sites'])}")


def _print_layers(layers: Dict[str, float], work: Optional[int]) -> None:
    spans = [s for s in [*SPANS, UNATTRIBUTED] if layers.get(f"{s}.calls", 1)]
    total = sum(layers[f"{s}.self_ms"] for s in spans) or 1.0
    print(f"  {'span':<26} {'self ref-ms':>12} {'share':>7} {'calls':>9} {'ns/item':>9}")
    for span in sorted(spans, key=lambda s: -layers[f"{s}.self_ms"]):
        ms = layers[f"{span}.self_ms"]
        calls = layers.get(f"{span}.calls", "")
        ns = f"{ms * 1e6 / work:9.0f}" if work else ""
        print(f"  {span:<26} {ms:12.2f} {ms / total:7.1%} {calls!s:>9} {ns}")
    for span in DISTRIBUTION_SPANS:
        if layers.get(f"{span}.calls"):
            print(f"  {span} per call: p50 {layers[f'{span}.call_us_p50']:.1f} ref-us, "
                  f"p99 {layers[f'{span}.call_us_p99']:.1f} ref-us")
    counts = ", ".join(f"{n}={_fmt(layers[n])}" for n in COUNT_NAMES if layers.get(n))
    if counts:
        print(f"  simulated counts: {counts}")
    print(f"  trace overhead {layers['bench.trace_overhead_frac']:+.1%}, "
          f"corrected self-time residual {layers['bench.trace_residual_frac']:+.1%}")


# -- compare ------------------------------------------------------------------


def _load_side(path: str) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> the values of every results JSON under ``path``."""
    p = Path(path)
    files = sorted(p.glob("results-*.json")) if p.is_dir() else [p]
    values: Dict[Tuple[str, str], List[float]] = {}
    for file in files:
        for workload, res in json.loads(file.read_text())["workloads"].items():
            for metric, m in res["metrics"].items():
                values.setdefault((workload, metric), []).append(m["value"])
    if not values:
        raise SystemExit(f"no benchmark results under {path}")
    return values


def _verdict(a: Sequence[float], b: Sequence[float], sign: int, worse: float,
             bound: float) -> str:
    if max(_spread(a), _spread(b)) > bound:
        # Too noisy to call, unless every B run beats every A run.
        beats = max(sign * x for x in b) < min(sign * x for x in a)
        return "better" if beats else "unresolved"
    if worse > bound:
        return "REGRESSION"
    return "better" if -worse > bound else "ok"


def compare(a_path: str, b_path: str) -> int:
    """Print each side's median and quartiles per (workload, metric).

    End-to-end metrics get a verdict against their bound; per-layer
    metrics are listed only where the two sides' medians differ. Returns
    1 if any end-to-end metric regressed by more than its bound.
    """
    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = _load_side(a_path), _load_side(b_path)
    regressions = 0
    for workload in sorted({w for w, _ in a} | {w for w, _ in b}):
        print(f"\n== {workload} ==")
        print(f"  {'metric':<32} {'A median [q1, q3] n':>34} {'B median [q1, q3] n':>34} "
              f"{'worse':>8} {'bound':>6}  verdict")
        names = [m for w, m in a if w == workload and (w, m) in b]
        for metric in sorted(names, key=lambda m: (m not in bounds, m)):
            va, vb = a[(workload, metric)], b[(workload, metric)]
            qa, qb = _quartiles(va), _quartiles(vb)
            if metric not in bounds and qa[1] == qb[1]:
                continue
            # sign = +1 when lower is better: "worse" is then B's rise over A.
            sign = 1 if better.get(metric, "lower") == "lower" else -1
            worse = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            bound = bounds.get(metric)
            verdict = "-" if bound is None else _verdict(va, vb, sign, worse, bound)
            regressions += verdict == "REGRESSION"
            side = "{:.5g} [{:.5g}, {:.5g}] {}"
            print(f"  {metric:<32} {side.format(qa[1], qa[0], qa[2], len(va)):>34} "
                  f"{side.format(qb[1], qb[0], qb[2], len(vb)):>34} {worse:>+8.1%} "
                  f"{'' if bound is None else f'{bound:.0%}':>6}  {verdict}")
    return 1 if regressions else 0


# -- main ---------------------------------------------------------------------


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", help="results JSON, or a directory of them (baseline)")
        parser.add_argument("b", help="results JSON, or a directory of them (candidate)")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", nargs="+", choices=sorted(WORKLOADS),
        default=list(WORKLOADS), help="workloads to run (default: all four)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of the whole command, split evenly between "
                             "its children (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: untraced set only; 1: traced pass only (default: both)")
    parser.add_argument("--quick", action="store_true",
                        help="one setup launch and one iteration (or pair) per child")
    parser.add_argument("--out", default=str(SUITE / "results"), help="results directory")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a repository checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    if args.seconds is None:
        args.seconds = float(json.loads(SPEC.read_text())["run_seconds"])
    passes = 2 if args.trace is None else 1
    per_child_s = args.seconds / (passes * len(args.workload))
    pinned = json.loads(PINNED.read_text())["digests"]
    Path(args.out).mkdir(parents=True, exist_ok=True)

    results = {}
    for name in args.workload:
        results[name] = run_workload(name, args, per_child_s, pinned, deadline)
        print_workload(name, args.seed, results[name])
    unstable = [name for name, res in results.items() if res["unstable"]]
    if unstable:
        print(f"\nwarning: machine speed moved by more than {UNSTABLE_KERNEL_SPREAD:.0%} "
              f"(gap-unit IQR/median) during {', '.join(unstable)}; raw times are not "
              "comparable with other runs", file=sys.stderr)

    doc = {
        "seed": args.seed,
        "seconds": args.seconds,
        "child_seconds": per_child_s,
        "trace": args.trace,
        "quick": args.quick,
        "ref_nominal_s": REF_NOMINAL_S,
        "unstable": bool(unstable),
        "workloads": results,
    }
    stamp = time.strftime("%Y%m%d-%H%M%S")
    path = Path(args.out) / f"results-{stamp}-{os.getpid()}-seed{args.seed}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"\nresults: {path}")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v["value"], "unit": v["unit"]} for m, v in metrics.items()},
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
