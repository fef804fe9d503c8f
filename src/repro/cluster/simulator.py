"""Fleet simulation: one node per job, aggregated power accounting.

Each job runs on its own node (the paper's systems are single-application
nodes) under the chosen governor; job runs are independent, so the fleet
executes them through the process pool, in tasks of up to
:data:`JOBS_PER_TASK` jobs that run one after another, each alone on its
own quiet spans (DESIGN.md §6n). Aggregation happens on a common
cluster-time grid: before its job starts and after it completes, a node
contributes its idle power; during the job, its simulated total power
profile (shifted by the start time).

The quantities the §6.1 budget argument cares about:

* **peak aggregate power** — what the facility must provision for;
* **time over budget** — how long a given cap would have been violated;
* **fleet energy** — the sum the energy-saving metric generalises to.

With an optional :class:`~repro.cluster.failures.NodeFailureModel` the run
additionally models fail-stop node deaths: a killed node's job requeues
FIFO onto the surviving nodes (checkpoint-restart, configurable lost-work
fraction), dead nodes stop contributing idle power, and the
:class:`FleetResult` carries the failure/requeue accounting (wasted energy,
restart delay, per-node failure log) so :func:`compare_fleets` can report
governor deltas under churn.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.cluster.failures import NodeFailureEvent, NodeFailureModel, Segment
from repro.cluster.job import ClusterJob
from repro.hw.presets import SystemPreset, get_preset
from repro.obs.aggregate import merge_registries
from repro.obs.config import ObsConfig
from repro.obs.registry import MetricsRegistry
from repro.obs.tsdb import TimeSeriesDB, merge_tsdbs
from repro.parallel.pool import default_workers, map_parallel
from repro.runtime.session import RunResult, make_governor, run_application
from repro.units import ordered_sum, require_finite

__all__ = [
    "check_fleet_budget",
    "JobOutcome",
    "Placement",
    "FleetResult",
    "ClusterSimulator",
    "FleetComparison",
    "compare_fleets",
]

#: Aggregation grid step (cluster time).
GRID_S = 0.5

#: Default per-job simulation horizon (matches ``run_application``).
_DEFAULT_JOB_HORIZON_S = 600.0

#: Most jobs per pool task. A task runs its jobs one after another and
#: ships their slimmed outcomes back together, so the cap bounds what one
#: task holds and returns; fleets with fewer jobs than this per worker split
#: into smaller tasks, so every worker gets one (DESIGN.md §6n).
JOBS_PER_TASK = 16


@dataclass(frozen=True)
class JobOutcome:
    """One job's slimmed result (picklable across pool workers)."""

    job: ClusterJob
    governor: str
    runtime_s: float
    completed: bool
    total_energy_j: float
    power_times_s: np.ndarray
    power_values_w: np.ndarray
    #: The job run's metrics registry (observability-enabled fleets only).
    #: Registries are plain-Python and pickle across the pool boundary.
    metrics: Optional[MetricsRegistry] = None
    #: The job run's scraped TSDB (``tsdb=True`` fleets only).
    tsdb: Optional[TimeSeriesDB] = None


# The benchmark's traced pass (benchmarks/suite/tracing.py) wraps this
# function by name.
def _run_job(
    preset_name: str,
    jobs: Sequence[ClusterJob],
    governor_name: str,
    dt_s: float,
    obs: bool = False,
    tsdb: bool = False,
) -> List[JobOutcome]:
    """Pool task: simulate ``jobs`` one after another, slimming each run.

    Each job is built, run alone on its own quiet spans (DESIGN.md §6n,
    §6q), finished and slimmed before the next job starts, so the task
    holds one live run and the ended runs' outcomes, never two full runs.
    Fleet aggregation only consumes the total-power trace, so jobs run
    with ``per_core_channels=False``: the engine's channel registry skips
    the per-core block entirely (on an 80-core node that is ~80 % of the
    trace width), keeping wide fan-outs cheap on memory and tick time.
    With ``obs`` each job collects its metrics registry (spans stay off —
    a fleet of span lists would dwarf the power traces being shipped
    back); the fleet rolls the per-job registries up into per-node and
    fleet totals. Every run is the same job's :func:`run_application`.
    """
    obs_config = (
        ObsConfig(enabled=True, metrics=obs, spans=False, tsdb=tsdb) if (obs or tsdb) else None
    )
    return [
        _slim(
            job,
            governor_name,
            run_application(
                preset_name,
                job.workload,
                make_governor(governor_name),
                seed=job.seed,
                dt_s=dt_s,
                max_time_s=job.max_time_s if job.max_time_s is not None else _DEFAULT_JOB_HORIZON_S,
                per_core_channels=False,
                obs=obs_config,
            ),
        )
        for job in jobs
    ]


def _slim(job: ClusterJob, governor_name: str, result: RunResult) -> JobOutcome:
    """The part of one job's run the fleet keeps."""
    trace = result.traces["total_w"].resample(GRID_S)
    return JobOutcome(
        job=job,
        governor=governor_name,
        runtime_s=result.runtime_s,
        completed=result.completed,
        total_energy_j=result.total_energy_j,
        power_times_s=trace.times,
        power_values_w=trace.values,
        metrics=result.metrics,
        tsdb=result.tsdb,
    )


def _window_energy(times: np.ndarray, values: np.ndarray, t0: float, t1: float) -> float:
    """Trapezoidal energy of a power trace over the job-local window [t0, t1].

    Out-of-range queries clamp to the trace's edge values (``np.interp``
    semantics); degenerate windows and empty traces integrate to zero.
    """
    if t1 <= t0 or times.size == 0:
        return 0.0
    inner = times[(times > t0) & (times < t1)]
    xs = np.concatenate(([t0], inner, [t1]))
    ys = np.interp(xs, times, values)
    return float(np.trapezoid(ys, xs))


def check_fleet_budget(budget_w: float) -> None:
    """Refuse a fleet power budget that is not positive and finite.

    :meth:`FleetResult.time_over_budget_s` checks its budget with this;
    ``repro fleet`` checks ``--budget`` with it before running any fleet.
    """
    if budget_w <= 0:
        raise ExperimentError(f"budget must be positive, got {budget_w!r}")
    # NaN passes the comparison above and would never count as over.
    require_finite(
        budget_w, error=lambda b: ExperimentError(f"budget must be finite, got {b!r}")
    )


@dataclass(frozen=True)
class Placement:
    """Where and when one job actually ran."""

    node_id: int
    actual_start_s: float
    queue_wait_s: float


@dataclass
class FleetResult:
    """Aggregate outcome of one fleet run."""

    preset_name: str
    governor: str
    outcomes: List[JobOutcome]
    grid_times_s: np.ndarray
    aggregate_power_w: np.ndarray
    idle_node_power_w: float
    #: job name -> placement (first node + actual start after any queueing).
    placements: Dict[str, "Placement"] = field(default_factory=dict)
    #: Node deaths that interrupted a job, in time order (failure runs only).
    failures: List[NodeFailureEvent] = field(default_factory=list)
    #: job name -> execution segments (populated when a failure model ran;
    #: a never-interrupted job has exactly one segment).
    executions: Dict[str, List[Segment]] = field(default_factory=dict)

    def placement(self, job_name: str) -> "Placement":
        """Look up one job's placement."""
        try:
            return self.placements[job_name]
        except KeyError:
            raise ExperimentError(f"no placement for job {job_name!r}") from None

    @property
    def total_queue_wait_s(self) -> float:
        """Sum of FIFO queue waits across jobs (0 with one node per job)."""
        return ordered_sum(p.queue_wait_s for p in self.placements.values())

    @property
    def makespan_s(self) -> float:
        """Cluster time at which the last job completes."""
        if self.executions:
            return max(seg.end_s for segs in self.executions.values() for seg in segs)
        return max(
            self.placements[o.job.name].actual_start_s + o.runtime_s for o in self.outcomes
        )

    @property
    def peak_power_w(self) -> float:
        """Peak aggregate fleet power."""
        return float(self.aggregate_power_w.max())

    @property
    def fleet_energy_j(self) -> float:
        """Total fleet energy over the aggregation window."""
        return float(np.trapezoid(self.aggregate_power_w, self.grid_times_s))

    def time_over_budget_s(self, budget_w: float) -> float:
        """Cluster time spent above a power cap."""
        check_fleet_budget(budget_w)
        over = self.aggregate_power_w > budget_w
        return float(over.sum() * GRID_S)

    # -- failure/requeue accounting (zero on fault-free runs) ---------------

    @property
    def n_failures(self) -> int:
        """Node deaths that interrupted a running job."""
        return len(self.failures)

    @property
    def wasted_energy_j(self) -> float:
        """Energy spent on work lost to failures (replayed after requeue)."""
        return ordered_sum(e.wasted_energy_j for e in self.failures)

    @property
    def lost_work_s(self) -> float:
        """Job-seconds of work lost to failures."""
        return ordered_sum(e.lost_work_s for e in self.failures)

    @property
    def total_restart_delay_s(self) -> float:
        """Cluster time jobs spent between a failure and their resumption
        (restart delay plus any wait for a surviving node)."""
        total = 0.0
        for segs in self.executions.values():
            for prev, nxt in zip(segs, segs[1:]):
                total += nxt.start_s - prev.end_s
        return total

    @property
    def requeue_counts(self) -> Dict[str, int]:
        """job name -> number of times the job was requeued (0 omitted)."""
        return {
            name: len(segs) - 1 for name, segs in self.executions.items() if len(segs) > 1
        }

    def node_failure_log(self) -> Dict[int, List[NodeFailureEvent]]:
        """Failures grouped per node id (only nodes that killed a job)."""
        log: Dict[int, List[NodeFailureEvent]] = {}
        for event in self.failures:
            log.setdefault(event.node_id, []).append(event)
        return log

    def summary_dict(self, budget_w: Optional[float] = None) -> Dict[str, object]:
        """Machine-readable fleet summary (the ``repro fleet --json`` body).

        Field names are shared with the coordinator's
        :meth:`~repro.coordinator.fleet.CoordinatedFleetResult.to_dict`
        where the quantities coincide (``peak_power_w``,
        ``fleet_energy_j``, ``time_over_budget_s``...), so downstream
        tooling can diff coordinated and uncoordinated runs directly.
        """
        return {
            "preset": self.preset_name,
            "governor": self.governor,
            "peak_power_w": self.peak_power_w,
            "fleet_energy_j": self.fleet_energy_j,
            "makespan_s": self.makespan_s,
            "total_queue_wait_s": self.total_queue_wait_s,
            "budget_w": budget_w,
            "time_over_budget_s": (
                self.time_over_budget_s(budget_w) if budget_w is not None else None
            ),
            "n_failures": self.n_failures,
            "lost_work_s": self.lost_work_s,
            "wasted_energy_j": self.wasted_energy_j,
            "total_restart_delay_s": self.total_restart_delay_s,
        }

    # -- metric rollups (observability-enabled fleets) -----------------------

    def node_metrics(self) -> Dict[int, MetricsRegistry]:
        """Per-node metric rollup: node id → merged registry of its jobs.

        Empty unless the fleet ran with ``obs=True``. Jobs are folded in
        schedule order, so the rollup is deterministic for a given fleet.
        """
        per_node: Dict[int, List[MetricsRegistry]] = {}
        for outcome in self.outcomes:
            if outcome.metrics is None:
                continue
            placement = self.placements.get(outcome.job.name)
            node_id = placement.node_id if placement is not None else -1
            per_node.setdefault(node_id, []).append(outcome.metrics)
        return {
            node_id: merge_registries(regs) for node_id, regs in sorted(per_node.items())
        }

    def metrics_rollup(self) -> MetricsRegistry:
        """Fleet-wide merged registry (empty unless run with ``obs=True``)."""
        return merge_registries(o.metrics for o in self.outcomes)

    def node_tsdbs(self) -> Dict[int, TimeSeriesDB]:
        """Per-node TSDB rollup: node id → merged store of its jobs' series.

        Empty unless the fleet ran with ``tsdb=True``. Each job's series
        get ``{job, node}`` labels injected before merging, so series from
        different jobs stay disjoint and the fold is worker-count-invariant.
        """
        per_node: Dict[int, List[TimeSeriesDB]] = {}
        for outcome in self.outcomes:
            if outcome.tsdb is None:
                continue
            placement = self.placements.get(outcome.job.name)
            node_id = placement.node_id if placement is not None else -1
            labelled = outcome.tsdb.relabeled(
                {"job": outcome.job.name, "node": str(node_id)}
            )
            per_node.setdefault(node_id, []).append(labelled)
        out: Dict[int, TimeSeriesDB] = {}
        for node_id, dbs in sorted(per_node.items()):
            merged = merge_tsdbs(dbs)
            if merged is not None:
                out[node_id] = merged
        return out

    def tsdb_rollup(self) -> TimeSeriesDB:
        """Fleet-wide merged TSDB, plus the aggregate power series.

        Per-job series carry ``{job, node}`` labels; the shared grid's
        aggregate power lands on ``repro.ts.fleet.power_w`` so `repro
        watch` has a fleet-level trajectory even for uncoordinated runs.
        """
        merged = merge_tsdbs(self.node_tsdbs().values())
        if merged is None:
            merged = TimeSeriesDB()
        for t_s, power_w in zip(self.grid_times_s, self.aggregate_power_w):
            merged.record("repro.ts.fleet.power_w", float(t_s), float(power_w))
        return merged


class ClusterSimulator:
    """A fleet of identical nodes, one scheduled job each.

    Parameters
    ----------
    preset:
        Node type (every node is the same preset, as in the paper's rigs).
    jobs:
        The schedule. Job names must be unique.
    n_nodes:
        Fleet size. Defaults to one node per job; with fewer nodes, jobs
        queue FIFO (ordered by requested start time) and run on the first
        node to free up.
    """

    def __init__(self, preset, jobs: Sequence[ClusterJob], *, n_nodes: Optional[int] = None):
        if isinstance(preset, str):
            preset = get_preset(preset)
        if not isinstance(preset, SystemPreset):
            raise ExperimentError(f"invalid preset {preset!r}")
        if not jobs:
            raise ExperimentError("fleet needs at least one job")
        names = [j.name for j in jobs]
        if len(set(names)) != len(names):
            raise ExperimentError(f"duplicate job names: {sorted(names)}")
        for job in jobs:
            if job.gpu_count > preset.gpu.count:
                raise ExperimentError(
                    f"job {job.name!r} wants {job.gpu_count} GPUs but "
                    f"{preset.name!r} nodes have {preset.gpu.count}"
                )
        if n_nodes is not None and n_nodes < 1:
            raise ExperimentError(f"n_nodes must be >= 1, got {n_nodes!r}")
        self.preset = preset
        self.jobs = list(jobs)
        self._n_nodes = n_nodes if n_nodes is not None else len(jobs)
        self._idle_power_cache: Dict[float, float] = {}

    @property
    def n_nodes(self) -> int:
        """Fleet size (defaults to one node per job)."""
        return self._n_nodes

    def idle_node_power_w(self, dt_s: float = 0.01) -> float:
        """Average power of an unmanaged idle node at tick width ``dt_s``
        (cached per tick width)."""
        if dt_s not in self._idle_power_cache:
            idle = run_application(
                self.preset, None, None, seed=0, dt_s=dt_s, max_time_s=5.0,
                per_core_channels=False,
            )
            self._idle_power_cache[dt_s] = idle.avg_total_w
        return self._idle_power_cache[dt_s]

    def run_fleet(
        self,
        governor_name: str,
        *,
        dt_s: float = 0.01,
        n_workers: Optional[int] = None,
        failure_model: Optional[NodeFailureModel] = None,
        obs: bool = False,
        tsdb: bool = False,
    ) -> FleetResult:
        """Run every job under ``governor_name`` and aggregate.

        Job simulations are independent and run through the process pool
        in tasks of consecutive jobs, each running its jobs one after
        another. A task takes ``ceil(jobs / workers)`` jobs, at most
        :data:`JOBS_PER_TASK`, so a fleet of a few jobs still uses every
        worker (``workers`` is ``n_workers``, or
        :func:`~repro.parallel.pool.default_workers` when that is ``None``).
        Results are deterministic regardless of worker count, and each
        job's run is bit-identical to the same job run alone.  With a
        ``failure_model`` the *simulated* fleet additionally suffers seeded
        node deaths: interrupted jobs requeue FIFO onto surviving nodes and
        the result carries the failure accounting.  ``obs`` collects each
        job's metrics registry (see :meth:`FleetResult.node_metrics` and
        :meth:`FleetResult.metrics_rollup`); ``tsdb`` additionally scrapes
        each job's time series (see :meth:`FleetResult.node_tsdbs` and
        :meth:`FleetResult.tsdb_rollup`). Simulated physics are
        unaffected either way (observability is passive by construction).
        """
        # map_parallel rejects a worker count below one.
        workers = n_workers if n_workers is not None else default_workers()
        width = min(JOBS_PER_TASK, math.ceil(len(self.jobs) / max(workers, 1)))
        tasks: List[List[JobOutcome]] = map_parallel(
            _run_job,
            [
                {
                    "preset_name": self.preset.name,
                    "jobs": tuple(self.jobs[first : first + width]),
                    "governor_name": governor_name,
                    "dt_s": dt_s,
                    "obs": obs,
                    "tsdb": tsdb,
                }
                for first in range(0, len(self.jobs), width)
            ],
            n_workers=n_workers,
        )
        outcomes = [outcome for task in tasks for outcome in task]
        idle_w = self.idle_node_power_w(dt_s)
        if failure_model is None:
            placements = self._place_fifo(outcomes)
            grid, aggregate = self._aggregate(outcomes, placements, idle_w)
            return FleetResult(
                preset_name=self.preset.name,
                governor=governor_name,
                outcomes=outcomes,
                grid_times_s=grid,
                aggregate_power_w=aggregate,
                idle_node_power_w=idle_w,
                placements=placements,
            )
        placements, executions, events, deaths = self._place_with_failures(
            outcomes, failure_model
        )
        grid, aggregate = self._aggregate_segments(outcomes, executions, idle_w, deaths)
        return FleetResult(
            preset_name=self.preset.name,
            governor=governor_name,
            outcomes=outcomes,
            grid_times_s=grid,
            aggregate_power_w=aggregate,
            idle_node_power_w=idle_w,
            placements=placements,
            failures=events,
            executions=executions,
        )

    # -- placement ---------------------------------------------------------

    def _place_fifo(self, outcomes: Sequence[JobOutcome]) -> Dict[str, Placement]:
        """FIFO placement: jobs in requested-start order onto the first
        node to free up (trivially their requested starts when the fleet
        has one node per job)."""
        placements: Dict[str, Placement] = {}
        node_free = [(0.0, node_id) for node_id in range(self._n_nodes)]
        heapq.heapify(node_free)
        by_request = sorted(outcomes, key=lambda o: (o.job.start_time_s, o.job.name))
        for o in by_request:
            free_at, node_id = heapq.heappop(node_free)
            actual = max(o.job.start_time_s, free_at)
            placements[o.job.name] = Placement(
                node_id=node_id,
                actual_start_s=actual,
                queue_wait_s=actual - o.job.start_time_s,
            )
            heapq.heappush(node_free, (actual + o.runtime_s, node_id))
        return placements

    def _place_with_failures(
        self, outcomes: Sequence[JobOutcome], model: NodeFailureModel
    ) -> Tuple[
        Dict[str, Placement], Dict[str, List[Segment]], List[NodeFailureEvent], np.ndarray
    ]:
        """FIFO placement under seeded fail-stop node deaths.

        A node whose death time falls inside a job's execution kills the
        segment: the retained progress is ``executed * (1 - lost_work
        _fraction)`` and the job re-enters the FIFO queue (after the
        model's restart delay) to resume on the first surviving node to
        free up.  Dead nodes never come back.  Deterministic: the only
        randomness is the model's seeded death-time draw.
        """
        deaths = model.death_times(self._n_nodes)
        by_outcome = {o.job.name: o for o in outcomes}
        placements: Dict[str, Placement] = {}
        executions: Dict[str, List[Segment]] = {o.job.name: [] for o in outcomes}
        events: List[NodeFailureEvent] = []

        node_free = [(0.0, node_id) for node_id in range(self._n_nodes)]
        heapq.heapify(node_free)
        # Pending queue: (ready_time, fifo_seq, job_name); requeued jobs
        # get a fresh (later) sequence number, preserving FIFO order.
        seq = 0
        pending: List[Tuple[float, int, str]] = []
        remaining: Dict[str, float] = {}
        offset: Dict[str, float] = {}
        for o in sorted(outcomes, key=lambda o: (o.job.start_time_s, o.job.name)):
            heapq.heappush(pending, (o.job.start_time_s, seq, o.job.name))
            remaining[o.job.name] = o.runtime_s
            offset[o.job.name] = 0.0
            seq += 1

        while pending:
            ready, _, name = heapq.heappop(pending)
            o = by_outcome[name]
            # First surviving node to free up; nodes found dead by the time
            # they would start the job are discarded for good.
            node_id = None
            while node_free:
                free_at, candidate = heapq.heappop(node_free)
                start = max(ready, free_at)
                if deaths[candidate] <= start:
                    continue
                node_id = candidate
                break
            if node_id is None:
                raise ExperimentError(
                    f"all {self._n_nodes} nodes failed before the schedule drained "
                    f"(job {name!r} still pending); lower the failure rate or add nodes"
                )
            if name not in placements:
                placements[name] = Placement(
                    node_id=node_id,
                    actual_start_s=start,
                    queue_wait_s=start - o.job.start_time_s,
                )
            end = start + remaining[name]
            if deaths[node_id] < end:
                # Node dies mid-job: book the partial segment, charge the
                # lost work, and requeue onto the survivors.
                time_of_death = float(deaths[node_id])
                executed = time_of_death - start
                retained = executed * (1.0 - model.lost_work_fraction)
                lost = executed - retained
                wasted = _window_energy(
                    o.power_times_s,
                    o.power_values_w,
                    offset[name] + retained,
                    offset[name] + executed,
                )
                executions[name].append(
                    Segment(
                        node_id=node_id,
                        start_s=start,
                        offset_s=offset[name],
                        duration_s=executed,
                    )
                )
                events.append(
                    NodeFailureEvent(
                        node_id=node_id,
                        time_s=time_of_death,
                        job_name=name,
                        lost_work_s=lost,
                        wasted_energy_j=wasted,
                    )
                )
                offset[name] += retained
                remaining[name] -= retained
                heapq.heappush(pending, (time_of_death + model.restart_delay_s, seq, name))
                seq += 1
                # The dead node is not returned to the free heap.
            else:
                executions[name].append(
                    Segment(
                        node_id=node_id,
                        start_s=start,
                        offset_s=offset[name],
                        duration_s=remaining[name],
                    )
                )
                heapq.heappush(node_free, (end, node_id))
        events.sort(key=lambda e: (e.time_s, e.node_id))
        return placements, executions, events, deaths

    # -- aggregation -------------------------------------------------------

    @staticmethod
    def _job_horizon_s(outcome: JobOutcome) -> float:
        """Length of one job's power contribution on the cluster grid.

        Guards the degenerate traces of instant/zero-length jobs: a run
        shorter than the engine tick records no samples at all, so the
        resampled trace can be empty — fall back to the job's runtime
        (floored to one grid step) instead of indexing ``times[-1]``.
        """
        if outcome.power_times_s.size:
            return float(outcome.power_times_s[-1])
        return max(outcome.runtime_s, GRID_S)

    def _aggregate(
        self,
        outcomes: Sequence[JobOutcome],
        placements: Dict[str, Placement],
        idle_w: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Failure-free aggregation on the common cluster-time grid."""
        horizon = (
            max(placements[o.job.name].actual_start_s + self._job_horizon_s(o) for o in outcomes)
            + GRID_S
        )
        grid = np.arange(GRID_S, horizon + GRID_S / 2, GRID_S)
        aggregate = np.full(grid.shape, float(self._n_nodes) * idle_w)
        for o in outcomes:
            if o.power_times_s.size == 0:
                continue
            shifted = placements[o.job.name].actual_start_s + o.power_times_s
            inside = (grid >= shifted[0]) & (grid <= shifted[-1])
            # Replace the node's idle contribution with the job's profile.
            aggregate[inside] += np.interp(grid[inside], shifted, o.power_values_w) - idle_w
        return grid, aggregate

    def _aggregate_segments(
        self,
        outcomes: Sequence[JobOutcome],
        executions: Dict[str, List[Segment]],
        idle_w: float,
        deaths: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Aggregation over per-segment executions under node failures.

        Each segment contributes the slice of its job's power profile
        starting at the segment's checkpoint offset; dead nodes stop
        contributing idle power from their time of death.
        """
        horizon = max(
            (seg.end_s for segs in executions.values() for seg in segs), default=GRID_S
        ) + GRID_S
        grid = np.arange(GRID_S, horizon + GRID_S / 2, GRID_S)
        aggregate = np.full(grid.shape, float(self._n_nodes) * idle_w)
        for node_id in range(self._n_nodes):
            if deaths[node_id] < grid[-1]:
                aggregate[grid > deaths[node_id]] -= idle_w
        by_outcome = {o.job.name: o for o in outcomes}
        for name, segs in executions.items():
            o = by_outcome[name]
            if o.power_times_s.size == 0:
                continue
            for seg in segs:
                inside = (grid >= seg.start_s) & (grid <= seg.end_s)
                if not inside.any():
                    continue
                local = seg.offset_s + (grid[inside] - seg.start_s)
                power = np.interp(local, o.power_times_s, o.power_values_w)
                # The node was alive through the segment, so its idle
                # contribution is still in the baseline: swap, don't add.
                aggregate[inside] += power - idle_w
        return grid, aggregate


@dataclass(frozen=True)
class FleetComparison:
    """Method-vs-baseline fleet summary (the §6.1 budget argument)."""

    baseline_governor: str
    method_governor: str
    peak_power_reduction_w: float
    peak_power_reduction_frac: float
    fleet_energy_saving_frac: float
    makespan_increase_frac: float
    budget_w: Optional[float]
    baseline_time_over_budget_s: Optional[float]
    method_time_over_budget_s: Optional[float]
    #: Churn accounting (zero when neither fleet ran a failure model).
    baseline_failures: int = 0
    method_failures: int = 0
    baseline_wasted_energy_j: float = 0.0
    method_wasted_energy_j: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable comparison row (``repro fleet --json``)."""
        return {
            "baseline_governor": self.baseline_governor,
            "method_governor": self.method_governor,
            "peak_power_reduction_w": self.peak_power_reduction_w,
            "peak_power_reduction_frac": self.peak_power_reduction_frac,
            "fleet_energy_saving_frac": self.fleet_energy_saving_frac,
            "makespan_increase_frac": self.makespan_increase_frac,
            "budget_w": self.budget_w,
            "baseline_time_over_budget_s": self.baseline_time_over_budget_s,
            "method_time_over_budget_s": self.method_time_over_budget_s,
            "baseline_failures": self.baseline_failures,
            "method_failures": self.method_failures,
            "baseline_wasted_energy_j": self.baseline_wasted_energy_j,
            "method_wasted_energy_j": self.method_wasted_energy_j,
        }

    def __str__(self) -> str:
        text = (
            f"{self.method_governor} vs {self.baseline_governor}: peak fleet power "
            f"-{self.peak_power_reduction_w:.0f}W ({self.peak_power_reduction_frac * 100:.1f}%), "
            f"fleet energy {self.fleet_energy_saving_frac * 100:+.1f}%, "
            f"makespan {self.makespan_increase_frac * 100:+.1f}%"
        )
        if self.budget_w is not None:
            text += (
                f"; time over {self.budget_w:.0f}W budget: "
                f"{self.baseline_time_over_budget_s:.1f}s -> {self.method_time_over_budget_s:.1f}s"
            )
        if self.baseline_failures or self.method_failures:
            text += (
                f"; churn: {self.baseline_failures} vs {self.method_failures} node deaths, "
                f"wasted energy {self.baseline_wasted_energy_j / 1000:.2f} -> "
                f"{self.method_wasted_energy_j / 1000:.2f} kJ"
            )
        return text


def compare_fleets(
    baseline: FleetResult,
    method: FleetResult,
    *,
    budget_w: Optional[float] = None,
) -> FleetComparison:
    """Summarise a paired fleet comparison.

    Both fleets must have run the same schedule on the same preset.  When
    either ran under a :class:`~repro.cluster.failures.NodeFailureModel`
    the comparison also carries the churn accounting, so governor deltas
    can be read under node failures as well as in the clean case.
    """
    if baseline.preset_name != method.preset_name:
        raise ExperimentError("fleets ran on different presets")
    if [o.job for o in baseline.outcomes] != [o.job for o in method.outcomes]:
        raise ExperimentError("fleets ran different schedules")
    peak_drop = baseline.peak_power_w - method.peak_power_w
    return FleetComparison(
        baseline_governor=baseline.governor,
        method_governor=method.governor,
        peak_power_reduction_w=peak_drop,
        peak_power_reduction_frac=peak_drop / baseline.peak_power_w,
        fleet_energy_saving_frac=1.0 - method.fleet_energy_j / baseline.fleet_energy_j,
        makespan_increase_frac=method.makespan_s / baseline.makespan_s - 1.0,
        budget_w=budget_w,
        baseline_time_over_budget_s=(
            None if budget_w is None else baseline.time_over_budget_s(budget_w)
        ),
        method_time_over_budget_s=(
            None if budget_w is None else method.time_over_budget_s(budget_w)
        ),
        baseline_failures=baseline.n_failures,
        method_failures=method.n_failures,
        baseline_wasted_energy_j=baseline.wasted_energy_j,
        method_wasted_energy_j=method.wasted_energy_j,
    )
