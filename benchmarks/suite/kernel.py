"""Reference kernel: a fixed unit of host work that calibrates every timing.

The shared machines this benchmark runs on drift: back-to-back runs of
the same simulation slow down and speed up by tens of percent as
neighbours come and go. Each host time is therefore reported in *reference seconds*,
``t_host * REF_NOMINAL_S / kernel``: the time the work would have taken
on a machine where this kernel takes exactly ``REF_NOMINAL_S``.

The kernel mirrors the simulator's hot path (a Python loop dispatching
NumPy ops on 40-element arrays) so that it slows down with the same
things that slow the simulator down. It imports nothing from ``repro``,
so no change to the program under test can move it. It is made of
``UNITS`` equal units of about 5 ms, the smallest sample of machine
speed the benchmark takes.

Set-up time is calibrated by a second unit of its own kind,
:func:`time_setup_unit`, which compiles and runs a fixed module body.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

__all__ = [
    "REF_NOMINAL_S",
    "SETUP_UNIT_NOMINAL_S",
    "UNITS",
    "reference_kernel",
    "time_setup_unit",
    "time_unit",
]

#: Kernel time on the machine the baseline was taken on (a shared 2-vCPU
#: x86-64 Xeon VM, Python 3.11, NumPy 2.4). Changing it rescales every
#: reported time, so it is a constant of the benchmark, never re-measured.
REF_NOMINAL_S = 0.025
#: Units per kernel.
UNITS = 5

#: Time of one setup unit (:func:`time_setup_unit`) on that machine, which
#: calibrates ``setup_s``: 1.5 kernel units.
SETUP_UNIT_NOMINAL_S = 0.0075

#: Loop trips per unit; UNITS units took REF_NOMINAL_S on that machine.
_UNIT_TRIPS = 280
_WARM_TRIPS = 40
_N = 40
#: Dataclass-and-function pairs per setup unit.
_SETUP_DEFS = 12


def reference_kernel(trips: int = _UNIT_TRIPS) -> float:
    """Run ``trips`` loop trips and return a checksum (so no step is dead)."""
    rng = np.random.default_rng(20250611)
    weights = 1.0 / (1.0 + 0.35 * np.arange(_N, dtype=float))
    acc = 0.0
    for i in range(trips):
        jitter = rng.normal(1.0, 0.06, _N)
        util = np.clip((0.5 + 0.3 * ((i % 7) / 7.0)) * weights * jitter, 0.0, 1.0)
        freqs = np.clip(0.8 + 2.6 * np.minimum(util * 1.3, 1.0), 0.8, 3.4)
        ipc = np.where(util > 1e-3, 1.7, 0.0)
        acc += float(ipc[util > 1e-3].mean()) + float(((freqs / 3.4) ** 2).sum())
    return acc


#: Source the setup unit compiles and runs: small frozen dataclasses and
#: functions, the kind of module body that importing ``repro`` executes.
_SETUP_SOURCE = "\n".join(
    f"""
@dataclasses.dataclass(frozen=True)
class C{i}:
    a: int = {i}
    b: float = {i}.5
    c: str = "x{i}"

    def f(self, x):
        return [self.a * x + k for k in range({i % 7 + 1})]


def g{i}(x, y=({i}, "{i}")):
    return {{"k": x, "v": y, "n": {i}}}
"""
    for i in range(_SETUP_DEFS)
)


def time_setup_unit() -> int:
    """Host nanoseconds one setup unit takes right now.

    Setup time is mostly imports: compiling, unmarshalling and running
    module bodies that build classes. That slows down with the machine
    differently from the numeric kernel; on ten-run sets of setup
    launches, this unit calibrated them to about half the spread the
    kernel did.
    """
    namespace = {"dataclasses": dataclasses}
    t0 = time.perf_counter_ns()
    exec(compile(_SETUP_SOURCE, "<setup unit>", "exec"), namespace)
    return time.perf_counter_ns() - t0


def time_unit(warm: bool = False) -> int:
    """Host nanoseconds one unit takes right now.

    ``warm`` first runs a few untimed trips, for a unit that interrupts
    other work: it then measures the machine, not how much of the
    kernel's code and data the interrupted work has evicted from cache.
    """
    if warm:
        reference_kernel(_WARM_TRIPS)
    t0 = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - t0

