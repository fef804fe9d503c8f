"""Process-pool sweep helpers."""

import os

import pytest

from repro.errors import ExperimentError
from repro.parallel.pool import default_workers, map_parallel


def square(x):
    return x * x


def pid_of(x):
    return os.getpid()


class TestMapParallel:
    def test_serial_path(self):
        out = map_parallel(square, [{"x": 2}, {"x": 3}], n_workers=1)
        assert out == [4, 9]

    def test_parallel_path_preserves_order(self):
        out = map_parallel(square, [{"x": i} for i in range(8)], n_workers=2)
        assert out == [i * i for i in range(8)]

    def test_parallel_matches_serial(self):
        kwargs = [{"x": i} for i in range(6)]
        assert map_parallel(square, kwargs, n_workers=2) == map_parallel(square, kwargs, n_workers=1)

    def test_empty_input(self):
        assert map_parallel(square, []) == []

    def test_single_task_runs_inline(self):
        assert map_parallel(square, [{"x": 5}], n_workers=4) == [25]
        assert map_parallel(pid_of, [{"x": 5}], n_workers=4) == [os.getpid()]

    def test_two_workers_run_outside_the_calling_process(self):
        assert os.getpid() not in map_parallel(pid_of, [{"x": 1}, {"x": 2}], n_workers=2)

    def test_lambda_rejected_with_clear_error(self):
        with pytest.raises(ExperimentError):
            map_parallel(lambda x: x, [{"x": 1}, {"x": 2}], n_workers=2)

    def test_invalid_worker_count(self):
        with pytest.raises(ExperimentError):
            map_parallel(square, [{"x": 1}], n_workers=0)

    def test_default_workers_at_least_one(self):
        assert default_workers() >= 1


class TestParallelExperiments:
    def test_simulated_runs_in_pool(self):
        # End-to-end: run two real simulations across processes.
        from repro.parallel.pool import map_parallel as mp

        out = mp(_energy_of, [{"workload": "bfs"}, {"workload": "sort"}], n_workers=2)
        assert all(e > 0 for e in out)


def _energy_of(workload):
    from repro.runtime.session import make_governor, run_application

    result = run_application("intel_a100", workload, make_governor("static_max"), seed=0)
    return result.total_energy_j
