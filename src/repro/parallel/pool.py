"""Process-pool helper for embarrassingly parallel simulation sweeps.

Simulated runs are independent, CPU-bound Python — the textbook case for
process pools rather than threads.  :func:`map_parallel` wraps
:class:`concurrent.futures.ProcessPoolExecutor` with the conventions its
caller, :meth:`~repro.cluster.simulator.ClusterSimulator.run_fleet`, needs:

* **Determinism** — results are returned in submission order regardless of
  completion order, so a parallel sweep is bit-identical to a serial one.
* **Top-level callables only** — workers receive picklable (function,
  kwargs) pairs; passing a lambda — or a non-picklable kwarg such as an
  open file or a live ``Node`` — raises immediately with a clear message
  naming the offender instead of a cryptic pickling error from inside the
  pool.
* **In-process fallback** — one worker (or a single task) runs in the
  calling process, which keeps coverage tools and debuggers usable.
* **Deterministic failure** — the first task in submission order that
  raised, or lost its worker, is reported as a
  :class:`~repro.errors.PoolError` chained to its exception, whatever
  order the tasks finished in.
* **Clean interrupt** — ``KeyboardInterrupt`` terminates the worker
  processes before re-raising, so a Ctrl-C leaves no orphaned workers
  burning CPU.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ExperimentError, PoolError

__all__ = ["map_parallel", "default_workers"]


def _check_picklable(func: Callable[..., Any], kwargs_list: Sequence[Dict[str, Any]]) -> None:
    """Validate that the function *and every task kwarg* cross the process
    boundary, raising a clear :class:`ExperimentError` naming the offender."""
    try:
        pickle.dumps(func)
    except Exception as exc:  # pickling failures vary by type
        raise ExperimentError(
            f"{func!r} is not picklable (lambdas/closures cannot cross process "
            f"boundaries); define it at module top level"
        ) from exc
    for i, kwargs in enumerate(kwargs_list):
        try:
            pickle.dumps(kwargs)
        except Exception:
            # Re-pickle key by key so the error names the offending kwarg.
            for key, value in kwargs.items():
                try:
                    pickle.dumps(value)
                except Exception as exc:
                    raise ExperimentError(
                        f"task[{i}] kwarg {key!r} ({type(value).__name__}) is not "
                        f"picklable and cannot be sent to a pool worker; pass "
                        f"constructor arguments instead of live objects"
                    ) from exc
            raise  # dict pickles per-value but not whole — genuinely odd


def default_workers() -> int:
    """A sensible worker count: physical parallelism minus one, at least 1.

    The ``REPRO_WORKERS`` environment variable overrides the detected value
    (validated integer >= 1), so CI and memory-constrained boxes can pin
    pool width without threading ``n_workers`` through every call site.
    """
    override = os.environ.get("REPRO_WORKERS")
    if override is not None:
        try:
            workers = int(override)
        except ValueError:
            raise ExperimentError(
                f"REPRO_WORKERS must be an integer >= 1, got {override!r}"
            ) from None
        if workers < 1:
            raise ExperimentError(f"REPRO_WORKERS must be an integer >= 1, got {override!r}")
        return workers
    return max(1, (os.cpu_count() or 2) - 1)


def _task_failed(index: int, exc: BaseException) -> PoolError:
    return PoolError(f"task[{index}] failed: {type(exc).__name__}: {exc}")


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool: terminate the workers, then join the executor.

    Order matters: the workers are killed *first* (their death sentinels
    wake the executor's management thread, which marks the pool broken),
    and only then is ``shutdown`` called to join that thread.  Calling
    ``shutdown(wait=False)`` first consumes the executor's only wakeup
    signal and can leave the management thread blocked in ``select`` with
    nothing left to wake it — the interpreter then hangs joining it at
    exit (observed on Ctrl-C).
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already-dead workers
            pass
    pool.shutdown(wait=True, cancel_futures=True)


def _run_pool(
    func: Callable[..., Any], kwargs_list: Sequence[Dict[str, Any]], width: int
) -> List[Any]:
    """Submit every task to one pool and collect results in submission order."""
    pool = ProcessPoolExecutor(max_workers=width)
    try:
        futures = [pool.submit(func, **kwargs) for kwargs in kwargs_list]
        results: List[Any] = []
        for index, future in enumerate(futures):
            try:
                results.append(future.result())
            except Exception as exc:  # the task's own error, or BrokenProcessPool
                raise _task_failed(index, exc) from exc
    except BaseException:
        # A failed task or a Ctrl-C: stop the tasks still running rather
        # than wait for results nobody will read.
        _terminate_workers(pool)
        raise
    pool.shutdown(wait=True)
    return results


def map_parallel(
    func: Callable[..., Any],
    kwargs_list: Sequence[Dict[str, Any]],
    *,
    n_workers: Optional[int] = None,
) -> List[Any]:
    """Run ``func(**kwargs)`` for every kwargs dict, preserving order.

    Parameters
    ----------
    func:
        A module-top-level callable (must be picklable).
    kwargs_list:
        One kwargs dict per task.
    n_workers:
        Pool size; default :func:`default_workers`. ``1`` (or a single
        task) runs in the calling process.

    Returns
    -------
    list
        Results in the order of ``kwargs_list``.

    Raises
    ------
    PoolError
        For the first task, in submission order, that raised or lost its
        worker; the task's exception is chained as ``__cause__``.
    """
    if not kwargs_list:
        return []
    workers = n_workers if n_workers is not None else default_workers()
    if workers < 1:
        raise ExperimentError(f"n_workers must be >= 1, got {workers!r}")
    if workers == 1 or len(kwargs_list) == 1:
        results: List[Any] = []
        for index, kwargs in enumerate(kwargs_list):
            try:
                results.append(func(**kwargs))
            except Exception as exc:
                raise _task_failed(index, exc) from exc
        return results
    _check_picklable(func, kwargs_list)
    return _run_pool(func, kwargs_list, min(workers, len(kwargs_list)))
