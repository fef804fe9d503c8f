"""Runtime harness: daemons, sessions and overhead measurement.

* :mod:`~repro.runtime.daemon` — wraps a governor into the engine's
  :class:`~repro.sim.engine.ScheduledRuntime` protocol, owning all cost
  accounting (invocation time, monitoring power);
* :mod:`~repro.runtime.session` — ``run_application``: one workload under
  one governor on one system, returning a :class:`RunResult` (``build_run``
  and :meth:`BuiltRun.finish` are its two halves);
* :mod:`~repro.runtime.overhead` — the paper's Table 2 procedure: idle
  runs isolating each runtime's power and invocation overhead;
* :mod:`~repro.runtime.supervisor` — ``SupervisedDaemon``: retry,
  exception containment, fail-safe actuation and degraded-mode accounting
  around a daemon (the crash-proof deployment shell);
* :mod:`~repro.runtime.derived` — a run's metrics registry and time
  series, built from its layers' records when it ends.
"""

from repro.runtime.daemon import MonitorDaemon
from repro.runtime.session import BuiltRun, RunResult, build_run, run_application, make_governor
from repro.runtime.overhead import OverheadResult, measure_overhead
from repro.runtime.batch import AppWindow, BatchResult, run_batch
from repro.runtime.supervisor import SupervisedDaemon, SupervisorConfig

__all__ = [
    "MonitorDaemon",
    "SupervisedDaemon",
    "SupervisorConfig",
    "RunResult",
    "run_application",
    "BuiltRun",
    "build_run",
    "make_governor",
    "OverheadResult",
    "measure_overhead",
    "AppWindow",
    "BatchResult",
    "run_batch",
]
