"""Self-tests of the benchmark harness, in ``--quick`` mode::

    PYTHONPATH=src python -m pytest benchmarks/suite -q

A quick run times one iteration per child, so its numbers mean nothing.
These tests check the harness itself: it reports every metric
``BENCHMARK.json`` declares, a wrong output fails the run, and the span
wrappers neither change what the program computes nor outlive the pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINNED = json.loads((SUITE / "pinned.json").read_text())["digests"]
#: The cheapest workload (~0.3 s an iteration), for tests that need only one.
CHEAP = "faulted_ups_max1550"


def _units(kind: str):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def quick(out: Path, *args: str):
    """Run ``run.py --quick`` into ``out``; (process, last-line summary, results JSON)."""
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--quick", "--out", str(out), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    (results,) = out.glob("results-*.json")
    return proc, summary, json.loads(results.read_text())


@pytest.fixture(scope="module")
def quick_all(tmp_path_factory):
    return quick(tmp_path_factory.mktemp("all"))


def test_every_workload_reports_every_declared_metric_with_its_unit(quick_all):
    proc, summary, doc = quick_all
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert summary["correct"] and summary["failed"] == 0
    declared = {**_units("end_to_end"), **_units("per_layer")}
    assert set(doc["workloads"]) == set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    for name, res in doc["workloads"].items():
        assert {m: res["metrics"][m]["unit"] for m in declared} == declared, name
        for metric, unit in declared.items():
            assert summary["metrics"][f"{name}/{metric}"]["unit"] == unit
        assert res["failed_frac"] == 0
        assert res["digest"] == PINNED[name]


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_single_pass_reports_exactly_its_metrics(tmp_path, trace, kind):
    proc, summary, _ = quick(tmp_path, "--workload", CHEAP, "--trace", trace)
    assert proc.returncode == 0, proc.stdout[-3000:]
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert {m: v["unit"] for m, v in summary["metrics"].items()} == _units(kind)


def test_tampered_pinned_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    pinned = json.loads((SUITE / "pinned.json").read_text())
    pinned["digests"][CHEAP] = "0" * 64
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(pinned))
    monkeypatch.setattr(run, "PINNED", path)
    out = tmp_path / "out"
    code = run.main(["--quick", "--out", str(out), "--workload", CHEAP, "--trace", "0"])
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    (results,) = out.glob("results-*.json")
    assert code != 0
    assert not summary["correct"] and summary["failed"] >= 1
    assert json.loads(results.read_text())["workloads"][CHEAP]["failed_frac"] > 0


@pytest.mark.parametrize("name", ["single_magus_a100", CHEAP])
def test_seed_2_is_self_consistent(tmp_path, name):
    proc, summary, doc = quick(tmp_path, "--workload", name, "--seed", "2")
    assert proc.returncode == 0, proc.stdout[-3000:]
    # One timed iteration, then a traced warm-up and an untraced/traced pair.
    assert summary["attempted"] == 4 and summary["failed"] == 0
    assert doc["workloads"][name]["digest"] != PINNED[name]


def test_wrappers_are_passive():
    wl = WORKLOADS[CHEAP]
    inputs = wl.setup(1)
    plain = wl.check(inputs, wl.run(inputs))
    tracer = tracing.Tracer()
    with tracer.installed():
        result = wl.run(inputs)
    assert tracer.log, "no span was recorded"
    assert wl.check(inputs, result).digest == plain.digest == PINNED[CHEAP]


def test_uninstall_restores_every_wrapped_attribute():
    sites = [site for group in tracing.SPANS.values() for site in group]
    before = {site: tracing._resolve(site)[2] for site in sites}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert all(tracing._resolve(site)[2] is not before[site] for site in sites)
    finally:
        tracer.uninstall()
    assert all(tracing._resolve(site)[2] is before[site] for site in sites)


def _side(path: Path, values):
    path.mkdir()
    for i, value in enumerate(values):
        doc = {"workloads": {"w": {"metrics": {"iter_s_p50": {"value": value, "unit": "s"}}}}}
        (path / f"results-{i}.json").write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "b_values,verdict,code",
    [
        ([1.01, 1.00, 1.02, 0.99], "ok", 0),
        ([1.20, 1.21, 1.19, 1.22], "REGRESSION", 1),
        ([0.70, 1.30, 1.00, 1.60], "unresolved", 0),
        ([0.50, 0.52, 0.49, 0.51], "better", 0),
    ],
)
def test_compare_verdicts(tmp_path, capsys, b_values, verdict, code):
    a = _side(tmp_path / "a", [1.00, 1.01, 0.99, 1.00])
    b = _side(tmp_path / "b", b_values)
    assert run.compare(a, b) == code
    row = next(line for line in capsys.readouterr().out.splitlines() if "iter_s_p50" in line)
    assert row.rstrip().endswith(verdict)
