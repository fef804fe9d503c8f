"""Pool error paths: task failures, dead workers, interrupts, bad input."""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.errors import ExperimentError, PoolError
from repro.parallel.pool import map_parallel


# --- worker functions (module top level: picklable) ------------------------

def ident(x):
    return x


def boom(x, bad=3):
    if x == bad:
        raise ValueError(f"bad point {x}")
    return x


def fail_after(x, delay_s):
    time.sleep(delay_s)
    raise ValueError(f"task {x} failed after {delay_s}s")


def die_once(x, marker):
    """Kills its worker process (once) when x == 2."""
    if x == 2 and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("died")
        os._exit(43)
    return x


class TestTaskFailureRecords:
    def test_raise_mode_carries_failures(self):
        with pytest.raises(PoolError, match=r"task\[3\].*ValueError: bad point 3") as err:
            map_parallel(boom, [{"x": i} for i in range(5)], n_workers=2)
        assert isinstance(err.value.__cause__, ValueError)

    def test_serial_raise_chains_cause(self):
        with pytest.raises(PoolError) as err:
            map_parallel(boom, [{"x": 3}], n_workers=1)
        assert isinstance(err.value.__cause__, ValueError)

    @pytest.mark.parametrize("run", range(3))
    def test_first_failure_in_submission_order_is_reported(self, run):
        """Task 0 fails slowly and task 1 at once: the report names task 0,
        however the two finish."""
        with pytest.raises(PoolError, match=r"task\[0\]") as err:
            map_parallel(
                fail_after, [{"x": 0, "delay_s": 0.3}, {"x": 1, "delay_s": 0.0}], n_workers=2
            )
        assert isinstance(err.value.__cause__, ValueError)
        assert "task 0 failed" in str(err.value.__cause__)


class TestBrokenPoolRecovery:
    def test_worker_death_without_retry_raises_pool_error(self, tmp_path):
        marker = str(tmp_path / "died")
        with pytest.raises(PoolError):
            map_parallel(
                die_once,
                [{"x": i, "marker": marker} for i in range(4)],
                n_workers=2,
            )


class TestKeyboardInterrupt:
    def test_interrupt_terminates_workers(self, tmp_path):
        """SIGINT during a sweep exits promptly and leaves no orphan workers."""
        pids_file = tmp_path / "pids"
        script = textwrap.dedent(
            f"""
            import os, time
            from repro.parallel.pool import map_parallel

            def slow(i):
                with open({str(pids_file)!r}, "a") as fh:
                    fh.write(str(os.getpid()) + "\\n")
                time.sleep(120)

            map_parallel(slow, [{{"i": i}} for i in range(2)], n_workers=2)
            """
        )
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=env, cwd=os.path.dirname(os.path.dirname(__file__))
        )
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if pids_file.exists() and len(pids_file.read_text().splitlines()) >= 2:
                break
            time.sleep(0.1)
        else:
            proc.kill()
            pytest.fail("workers never started")
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) != 0
        worker_pids = [int(p) for p in pids_file.read_text().split()]
        time.sleep(0.5)  # give terminate() a beat to land
        for pid in worker_pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_interrupt_in_scheduler_reraises(self, monkeypatch):
        """A KeyboardInterrupt while results are collected tears the pool
        down and propagates (the CLI sees Ctrl-C, not a swallowed sweep)."""
        from concurrent.futures import Future

        def interrupting_result(self, timeout=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(Future, "result", interrupting_result)
        with pytest.raises(KeyboardInterrupt):
            map_parallel(ident, [{"x": i} for i in range(4)], n_workers=2)


class TestPicklabilityValidation:
    def test_unpicklable_kwarg_named(self):
        with pytest.raises(ExperimentError, match=r"task\[1\] kwarg 'x'"):
            map_parallel(ident, [{"x": 1}, {"x": open(os.devnull)}], n_workers=2)

    def test_lambda_still_rejected(self):
        with pytest.raises(ExperimentError, match="top level"):
            map_parallel(lambda x: x, [{"x": 1}, {"x": 2}], n_workers=2)


class TestWorkerEnvOverride:
    def test_env_override_honored(self, monkeypatch):
        from repro.parallel.pool import default_workers

        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_env_override_validated(self, monkeypatch):
        from repro.parallel.pool import default_workers

        for bad in ("0", "-2", "many"):
            monkeypatch.setenv("REPRO_WORKERS", bad)
            with pytest.raises(ExperimentError):
                default_workers()

    def test_env_absent_falls_back(self, monkeypatch):
        from repro.parallel.pool import default_workers

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() >= 1
