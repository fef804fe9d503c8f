"""Regenerate the golden digest manifest for the cross-preset bit-identity test.

Run from the repo root, on a clean tree::

    PYTHONPATH=src python tests/data/gen_golden_manifest.py

The script refuses to run when ``git status --porcelain`` reports any
change, so every manifest comes from committed code; the hash of that
``src`` tree is recorded in the file. It writes ``golden_manifest.json`` next to itself: one SHA-256 per
trace channel (over ``times.tobytes()`` then ``values.tobytes()``) plus one
over the governor decisions, for every (preset, governor, mode) run of the
matrix below, and the caps, granted sum, grant journal, alert events,
incidents, scraped time-series state and ``to_dict()`` summary of one small
coordinated fleet. Under ``"obs"`` it pins, for the same matrix
rerun with every observability output on, the Prometheus export of each
run's metrics registry, the canonical state of its time-series store and
its span list, plus the metric and time-series rollups of the same fleet
run uncoordinated. Under ``"callers"`` it pins the two caller families the
matrix does not reach: a small fleet under a ``NodeFailureModel`` (requeue
counts, lost work, wasted energy, the failure log and aggregate power) and
one ``run_batch`` (its windows, traces and decisions). Under ``"claims"``
it pins the 16 values ``repro verify`` measures, each as ``float.hex``, so
a claim that drifts inside its band still shows.
``tests/test_golden_manifest.py`` recomputes every digest and lists each
mismatching (config, channel) pair.

Byte digests are stricter than ``np.array_equal``: a ``-0.0``/``+0.0`` flip
compares equal but hashes differently.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.cluster.failures import NodeFailureModel
from repro.cluster.job import ClusterJob
from repro.cluster.simulator import ClusterSimulator, FleetResult
from repro.coordinator.config import safe_floor_w
from repro.coordinator.fleet import (
    CoordinatedFleetResult,
    ample_budget_w,
    run_coordinated_fleet,
)
from repro.coordinator.journal import GrantJournal
from repro.faults.plan import coordinated_campaign, standard_campaign
from repro.obs.config import ObsConfig
from repro.obs.exporters import render_prometheus
from repro.obs.scrape import default_fleet_rules
from repro.obs.tsdb import canonical_state_bytes
from repro.runtime.batch import BatchResult, run_batch
from repro.runtime.session import RunResult, make_governor, run_application
from repro.workloads.registry import SUITE_INTEL_A100, get_workload

MANIFEST_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_manifest.json")

PRESETS = ("intel_a100", "intel_4a100", "intel_max1550", "amd_mi210")
#: (governor name, make_governor options).
GOVERNORS: Tuple[Tuple[str, Dict[str, float]], ...] = (
    ("default", {}),
    ("magus", {}),
    ("ups", {}),
    ("powercap", {"cap_w": 150.0}),
)
MODES = ("clean", "faulted", "guarded")
WORKLOAD = "srad"
SEED = 1
HORIZON_S = 4.0
DT_S = 0.01

FLEET_PRESET = "intel_a100"
FLEET_NODES = 4
FLEET_GOVERNOR = "magus"
FLEET_JOB_HORIZON_S = 2.5
#: Job starts spread over the coordinated campaign's default 60 s horizon.
FLEET_STAGGER_S = 15.0
FLEET_BUDGET_FRAC = 0.7

#: Every observability output on: the config the ``"obs"`` rows pin.
OBS_ALL = ObsConfig(enabled=True, metrics=True, spans=True, tsdb=True)
#: Key of the uncoordinated fleet's rollup digests among the ``"obs"`` rows.
OBS_FLEET_KEY = "fleet/plain"

#: The failure fleet: three short staggered jobs on three nodes, two of
#: which die mid-job (surveyed) while the third drains the schedule.
FAILURE_WORKLOADS = ("sort", "bfs", "srad")
FAILURE_MODEL = NodeFailureModel(mtbf_s=4.0, seed=SEED, restart_delay_s=0.5, lost_work_fraction=0.5)
#: The batch: two whole applications one second apart under one daemon.
BATCH_WORKLOADS = ("sort", "bfs")
BATCH_GAP_S = 1.0


def config_key(preset: str, governor: str, mode: str) -> str:
    """Manifest key of one matrix run."""
    return f"{preset}/{governor}/{mode}"


def matrix() -> Iterator[Tuple[str, str, Dict[str, float], str]]:
    """Yield ``(preset, governor, options, mode)`` for every matrix run."""
    for preset in PRESETS:
        for governor, options in GOVERNORS:
            for mode in MODES:
                yield preset, governor, options, mode


def run_config(
    preset: str,
    governor: str,
    options: Dict[str, float],
    mode: str,
    obs: Optional[ObsConfig] = None,
) -> RunResult:
    """One matrix run: ``srad`` under ``governor`` for ``HORIZON_S``."""
    kwargs: Dict[str, object] = {}
    if mode == "faulted":
        kwargs = {"fault_plan": standard_campaign(SEED, horizon_s=HORIZON_S), "supervise": True}
    elif mode == "guarded":
        kwargs = {"guard": True, "actuation_latency": "msr_fast"}
    elif mode != "clean":
        raise ValueError(f"unknown mode {mode!r}")
    return run_application(
        preset,
        get_workload(WORKLOAD, seed=SEED),
        make_governor(governor, **options),
        seed=SEED,
        dt_s=DT_S,
        max_time_s=HORIZON_S,
        obs=obs,
        **kwargs,
    )


def matrix_runs(obs: Optional[ObsConfig] = None) -> Iterator[Tuple[str, str, RunResult]]:
    """Yield ``(config key, mode, result)`` for every matrix run, in order."""
    for preset, governor, options, mode in matrix():
        result = run_config(preset, governor, options, mode, obs)
        yield config_key(preset, governor, mode), mode, result


def sha256_arrays(*arrays: np.ndarray) -> str:
    """SHA-256 over the raw bytes of ``arrays``, in order."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def sha256_json(obj: object) -> str:
    """SHA-256 over canonical JSON (floats by repr, which round-trips)."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def sha256_bytes(data: bytes) -> str:
    """SHA-256 of ``data``."""
    return hashlib.sha256(data).hexdigest()


def run_digests(result: RunResult) -> Dict[str, str]:
    """Channel name -> digest, plus ``"decisions"``, for one run."""
    out = {
        name: sha256_arrays(series.times, series.values)
        for name, series in sorted(result.traces.items())
    }
    out["decisions"] = sha256_json([[d.time_s, d.target_ghz, d.reason] for d in result.decisions])
    return out


def obs_digests(result: RunResult) -> Dict[str, str]:
    """Digests of an ``OBS_ALL`` run's metrics export, TSDB state and spans."""
    assert result.metrics is not None and result.tsdb is not None
    spans = [
        [s.name, s.start_s, s.end_s, s.ok, sorted(s.attrs.items())] for s in result.spans
    ]
    return {
        "prometheus": sha256_bytes(render_prometheus(result.metrics).encode()),
        "tsdb_state": sha256_bytes(canonical_state_bytes(result.tsdb)),
        "spans": sha256_json(spans),
    }


def injector_incidents_within_horizon(result: RunResult) -> int:
    """Injected faults that fired inside the run's horizon."""
    return sum(1 for i in result.incidents if i.source == "injector" and i.time_s < HORIZON_S)


def fleet_jobs() -> List[ClusterJob]:
    """The small coordinated fleet: one short job per node, staggered."""
    return [
        ClusterJob(
            name=f"job{i}-{SUITE_INTEL_A100[i % len(SUITE_INTEL_A100)]}",
            workload=SUITE_INTEL_A100[i % len(SUITE_INTEL_A100)],
            start_time_s=FLEET_STAGGER_S * i,
            seed=SEED + i,
            max_time_s=FLEET_JOB_HORIZON_S,
        )
        for i in range(FLEET_NODES)
    ]


def run_obs_fleet() -> FleetResult:
    """The same fleet uncoordinated, collecting each job's metrics and series."""
    sim = ClusterSimulator(FLEET_PRESET, fleet_jobs())
    return sim.run_fleet(FLEET_GOVERNOR, dt_s=DT_S, n_workers=1, obs=True, tsdb=True)


def obs_fleet_digests(fleet: FleetResult) -> Dict[str, str]:
    """Digests of a fleet's merged metrics export and merged TSDB state."""
    return {
        "metrics_rollup": sha256_bytes(render_prometheus(fleet.metrics_rollup()).encode()),
        "tsdb_rollup": sha256_bytes(canonical_state_bytes(fleet.tsdb_rollup())),
    }


def run_fleet() -> Tuple[CoordinatedFleetResult, GrantJournal]:
    """The small coordinated fleet, scraped in both passes and alerted on,
    with the in-memory grant journal it wrote."""
    sim = ClusterSimulator(FLEET_PRESET, fleet_jobs())
    demand = sim.run_fleet(FLEET_GOVERNOR, dt_s=DT_S, n_workers=1, tsdb=True)
    floor = safe_floor_w(demand.idle_node_power_w)
    ample = ample_budget_w(demand, FLEET_NODES, floor)
    budget = max(FLEET_BUDGET_FRAC * ample, FLEET_NODES * floor * 1.05)
    journal = GrantJournal()
    result = run_coordinated_fleet(
        sim,
        FLEET_GOVERNOR,
        budget_w=budget,
        plan=coordinated_campaign(SEED, n_nodes=FLEET_NODES),
        journal=journal,
        demand_fleet=demand,
        dt_s=DT_S,
        n_workers=1,
        tsdb=True,
        alert_rules=default_fleet_rules(budget),
    )
    return result, journal


def fleet_digests(result: CoordinatedFleetResult, journal: GrantJournal) -> Dict[str, str]:
    """Digests of the fleet's caps, granted sum, journal bytes, alert events
    (without and with their detail), incidents, TSDB state and summary."""
    assert result.alerts is not None and result.tsdb is not None
    events = [
        [e.time_s, e.rule, e.severity, e.state, e.labels, e.value]
        for e in result.alerts.events
    ]
    incidents = [
        [i.time_s, i.source, i.device, i.fault, i.action, i.outcome, i.fault_id, i.detail]
        for i in result.incidents
    ]
    return {
        "node_cap_w": sha256_arrays(result.tick_times_s, result.node_cap_w),
        "granted_sum_w": sha256_arrays(result.tick_times_s, result.granted_sum_w),
        # Every committed line of the in-memory journal, grants and
        # restarts, byte for byte.
        "grant_journal": sha256_bytes(b"".join(journal._log._lines)),
        "alert_events": sha256_json(events),
        "alert_events_detail": sha256_json([e.to_dict() for e in result.alerts.events]),
        "incidents": sha256_json(incidents),
        "tsdb_state": hashlib.sha256(canonical_state_bytes(result.tsdb)).hexdigest(),
        "to_dict": sha256_json(result.to_dict()),
    }


def run_failure_fleet() -> FleetResult:
    """The failure fleet under ``FAILURE_MODEL``."""
    jobs = [
        ClusterJob(f"job{i}-{name}", name, 1.0 * i, seed=SEED + i, max_time_s=FLEET_JOB_HORIZON_S)
        for i, name in enumerate(FAILURE_WORKLOADS)
    ]
    sim = ClusterSimulator(FLEET_PRESET, jobs, n_nodes=len(jobs))
    return sim.run_fleet(FLEET_GOVERNOR, dt_s=DT_S, n_workers=1, failure_model=FAILURE_MODEL)


def failure_fleet_digests(fleet: FleetResult) -> Dict[str, str]:
    """Digests of a failure fleet's churn accounting and aggregate power."""
    return {
        "requeue_counts": sha256_json(fleet.requeue_counts),
        "lost_work_s": float.hex(fleet.lost_work_s),
        "wasted_energy_j": float.hex(fleet.wasted_energy_j),
        "failure_log": sha256_json(
            [
                [e.node_id, e.time_s, e.job_name, e.lost_work_s, e.wasted_energy_j]
                for e in fleet.failures
            ]
        ),
        "aggregate_power_w": sha256_arrays(fleet.grid_times_s, fleet.aggregate_power_w),
    }


def run_batch_row() -> BatchResult:
    """``BATCH_WORKLOADS`` back to back under one MAGUS daemon."""
    return run_batch(
        FLEET_PRESET, BATCH_WORKLOADS, make_governor(FLEET_GOVERNOR),
        gap_s=BATCH_GAP_S, seed=SEED, dt_s=DT_S,
    )


def batch_digests(batch: BatchResult) -> Dict[str, str]:
    """Digests of a batch's windows, every trace channel and its decisions."""
    out = {
        name: sha256_arrays(series.times, series.values)
        for name, series in sorted(batch.traces.items())
    }
    out["decisions"] = sha256_json([[d.time_s, d.target_ghz, d.reason] for d in batch.decisions])
    out["windows"] = sha256_json(
        [[w.workload_name, w.start_s, w.end_s, w.energy_j, w.avg_cpu_w] for w in batch.windows]
    )
    return out


def caller_digests() -> Dict[str, Dict[str, str]]:
    """The ``"callers"`` rows: the failure fleet and the batch."""
    return {
        "fleet/failures": failure_fleet_digests(run_failure_fleet()),
        "batch": batch_digests(run_batch_row()),
    }


def claim_values() -> Dict[str, str]:
    """Every value ``repro verify`` checks (seed ``SEED``, quick), as ``float.hex``."""
    from repro.experiments.paper import _measurements

    return {name: float.hex(value) for name, value in sorted(_measurements(SEED, True).items())}


def compute() -> Dict[str, Dict[str, Dict[str, str]]]:
    """Every digest of the matrix, the fleets, the batch and the claims,
    keyed like the manifest."""
    runs = {key: run_digests(result) for key, _mode, result in matrix_runs()}
    obs = {key: obs_digests(result) for key, _mode, result in matrix_runs(OBS_ALL)}
    obs[OBS_FLEET_KEY] = obs_fleet_digests(run_obs_fleet())
    return {
        "runs": runs,
        "obs": obs,
        "fleet": {"coordinated": fleet_digests(*run_fleet())},
        "callers": caller_digests(),
        "claims": claim_values(),
    }


def _git(*args: str) -> str:
    here = os.path.dirname(MANIFEST_PATH)
    return subprocess.run(
        ["git", *args], check=True, capture_output=True, text=True, cwd=here
    ).stdout.strip()


def main() -> int:
    dirty = _git("status", "--porcelain")
    if dirty:
        print("refusing to generate on a dirty tree; commit or stash first:", file=sys.stderr)
        print(dirty, file=sys.stderr)
        return 1
    manifest = {
        # The tree hash of src/ names the code the digests came from and
        # survives amending the commit that adds this file.
        "src_tree": _git("rev-parse", "HEAD:src"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "params": {
            "workload": WORKLOAD,
            "seed": SEED,
            "horizon_s": HORIZON_S,
            "dt_s": DT_S,
            "fleet_nodes": FLEET_NODES,
        },
        **compute(),
    }
    with open(MANIFEST_PATH, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    n_digests = sum(len(d) for d in manifest["runs"].values())
    print(f"wrote {MANIFEST_PATH}: {len(manifest['runs'])} runs, {n_digests} run digests + fleet")
    return 0


if __name__ == "__main__":
    sys.exit(main())
