"""UPScavenger (UPS) reimplementation — the state-of-the-art baseline.

UPS [Gholkar, Mueller, Rountree — SC '19] is a model-free runtime that
dynamically adjusts the uncore frequency based on changes in DRAM power and
instructions-per-cycle.  No open-source implementation exists; like the
MAGUS authors, we reimplement it from its published description:

* every cycle it reads **instructions retired and cycles for every core**
  (the per-core MSR sweep that dominates its overhead) plus DRAM power;
* a significant change in window-averaged DRAM power signals a *phase
  change*: reset the uncore to max and start exploring;
* while exploring, step the uncore **down one bin per cycle** as long as
  IPC stays within a slack of the phase's reference IPC; on IPC
  degradation, step back up one bin and settle;
* settled phases are periodically re-probed.

Two structural contrasts with MAGUS (both emerge in the experiments):
the monitoring sweep costs ~0.3 s and several watts on high-core-count
nodes (Table 2), and the *gradual* stepping with window-averaged signals
cannot keep up with millisecond-scale demand fluctuation — averaging hides
the bursts, so UPS keeps stepping down and the bursts get clipped
(Fig. 5/6 SRAD case study).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional

import numpy as np

from repro.errors import GovernorError
from repro.governors.base import Decision, GovernorContext, UncoreGovernor
from repro.telemetry.msr import counter_delta_array
from repro.telemetry.rapl import RAPL_DRAM
from repro.telemetry.sampling import AccessMeter
from repro.units import require_finite

__all__ = ["UPSConfig", "UPSGovernor"]


@dataclass(frozen=True)
class UPSConfig:
    """Tunables of the UPS reimplementation (defaults per the SC '19 paper's
    published behaviour, adapted to this simulator's cycle times)."""

    #: Sleep between invocations; with the ~0.3 s per-core sweep this gives
    #: the 0.5 s decision period the MAGUS paper quotes for UPScavenger.
    interval_s: float = 0.2
    #: Relative change in window-averaged DRAM power that signals a phase
    #: transition.
    dram_rel_threshold: float = 0.22
    #: Tolerated relative IPC loss vs the phase reference before rollback.
    ipc_slack: float = 0.10
    #: Uncore step per exploring cycle, GHz. The ~0.6 GHz/s down-slope of
    #: the paper's Fig. 6 UPS trace at the 0.5 s decision period.
    step_ghz: float = 0.3
    #: Cycles to hold after settling before re-probing a lower frequency.
    reprobe_cycles: int = 10
    #: Runtime start-up delay (application detection + attach).
    launch_delay_s: float = 0.5

    def __post_init__(self) -> None:
        # Every range check below is a comparison, which NaN passes.
        for spec in fields(self):
            require_finite(
                getattr(self, spec.name),
                error=lambda _, name=spec.name: GovernorError(f"{name} must not be NaN"),
                allow_inf=True,
            )
        if self.interval_s <= 0:
            raise GovernorError(f"interval must be positive, got {self.interval_s!r}")
        if not (0 < self.dram_rel_threshold < 1) or not (0 < self.ipc_slack < 1):
            raise GovernorError("thresholds must be in (0, 1)")
        if self.step_ghz <= 0:
            raise GovernorError(f"step_ghz must be positive, got {self.step_ghz!r}")
        if self.reprobe_cycles < 1:
            raise GovernorError(f"reprobe_cycles must be >= 1, got {self.reprobe_cycles!r}")


class UPSGovernor(UncoreGovernor):
    """Uncore Power Scavenger: DRAM-power phase detection + IPC-guarded
    gradual uncore down-stepping."""

    name = "ups"
    hardware = False

    # Exploration states
    _EXPLORING = "exploring"
    _SETTLED = "settled"

    def __init__(self, config: UPSConfig = UPSConfig()):
        super().__init__()
        self.config = config
        self.launch_delay_s = config.launch_delay_s
        self._prev_instr: Optional[np.ndarray] = None
        self._prev_cycles: Optional[np.ndarray] = None
        self._prev_dram_energy_j: Optional[float] = None
        self._prev_time_s: Optional[float] = None
        self._prev_dram_power_w: Optional[float] = None
        self._state = self._EXPLORING
        self._ref_ipc: Optional[float] = None
        self._settled_cycles = 0

    @property
    def interval_s(self) -> float:
        """Sleep between invocations."""
        return self.config.interval_s

    @property
    def initial_uncore_ghz(self) -> float:
        """UPS starts every phase — including launch — at max uncore."""
        return self.context.uncore_max_ghz

    def on_attach(self, context: GovernorContext) -> None:
        self._state = self._EXPLORING
        self._ref_ipc = None

    def on_rearm(self) -> None:
        """Restart from a fresh phase after a supervised outage.

        The measurement windows spanning the outage are meaningless (the
        node may have sat pinned at the fail-safe ceiling for seconds), so
        drop them and re-enter exploration exactly as at launch.
        """
        self._prev_instr = None
        self._prev_cycles = None
        self._prev_dram_energy_j = None
        self._prev_time_s = None
        self._prev_dram_power_w = None
        self._state = self._EXPLORING
        self._ref_ipc = None
        self._settled_cycles = 0

    # ------------------------------------------------------------------
    # Measurement helpers
    # ------------------------------------------------------------------
    def _measure(self, now_s: float, meter: AccessMeter):
        """One full UPS monitoring sweep: all core counters + DRAM energy.

        Returns ``(ipc, dram_power_w)`` window-averaged since the previous
        invocation, or ``(None, None)`` on the first call (no window yet).
        """
        tel = self.context.telemetry
        instr, cycles = tel.read_all_core_counters(meter)
        dram_energy = tel.energy_j(RAPL_DRAM, meter)

        ipc: Optional[float] = None
        dram_power: Optional[float] = None
        if self._prev_instr is not None and self._prev_time_s is not None:
            # Wrap-safe modular deltas: a fixed counter crossing 2^48
            # between sweeps (or shifted there by a fault campaign) must
            # not corrupt the IPC window.
            d_instr = counter_delta_array(instr, self._prev_instr)
            d_cycles = counter_delta_array(cycles, self._prev_cycles)
            total_cycles = int(d_cycles.sum())
            ipc = float(d_instr.sum() / total_cycles) if total_cycles > 0 else 0.0
            elapsed = now_s - self._prev_time_s
            if elapsed > 0 and self._prev_dram_energy_j is not None:
                dram_power = (dram_energy - self._prev_dram_energy_j) / elapsed
        self._prev_instr = instr
        self._prev_cycles = cycles
        self._prev_dram_energy_j = dram_energy
        self._prev_time_s = now_s
        return ipc, dram_power

    def decision_attributes(self) -> Dict[str, object]:
        """Attribution for the cycle span: exploration state + references."""
        attrs: Dict[str, object] = {"state": self._state}
        if self._ref_ipc is not None:
            attrs["ref_ipc"] = self._ref_ipc
        if self._prev_dram_power_w is not None:
            attrs["dram_power_w"] = self._prev_dram_power_w
        return attrs

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------
    def sample_and_decide(self, now_s: float, meter: AccessMeter) -> Decision:
        """One UPS decision cycle."""
        ctx = self.context
        unc = ctx.node.uncore(0)
        tracer = ctx.tracer
        if tracer is not None:
            sample_start = now_s + meter.time_s
        ipc, dram_power = self._measure(now_s, meter)
        if tracer is not None:
            sid = tracer.begin(
                "governor.sample", sample_start, category="sample", counter="msr_sweep"
            )
            tracer.end(sid, now_s + meter.time_s, ipc=ipc, dram_power_w=dram_power)
        if ipc is None:
            return Decision(now_s, None, "warmup")

        # Phase-change detection on window-averaged DRAM power.
        phase_changed = False
        if dram_power is not None and self._prev_dram_power_w is not None:
            base = max(self._prev_dram_power_w, 1e-6)
            if abs(dram_power - self._prev_dram_power_w) / base > self.config.dram_rel_threshold:
                phase_changed = True
        if dram_power is not None:
            self._prev_dram_power_w = dram_power

        if phase_changed:
            self._state = self._EXPLORING
            self._ref_ipc = None
            return Decision(now_s, ctx.uncore_max_ghz, "phase_reset")

        if self._state == self._EXPLORING:
            if self._ref_ipc is None:
                # First sample of the phase at (or on the way to) max uncore
                # becomes the reference.
                self._ref_ipc = ipc
                return Decision(now_s, None, "ref_capture")
            if self._ref_ipc <= 1e-9:
                # Idle phase: nothing to guard; scavenge to the floor.
                self._state = self._SETTLED
                self._settled_cycles = 0
                return Decision(now_s, ctx.uncore_min_ghz, "idle_floor")
            if ipc >= (1.0 - self.config.ipc_slack) * self._ref_ipc:
                if unc.target_ghz <= ctx.uncore_min_ghz + 1e-12:
                    self._state = self._SETTLED
                    self._settled_cycles = 0
                    return Decision(now_s, None, "at_floor")
                target = max(ctx.uncore_min_ghz, unc.target_ghz - self.config.step_ghz)
                return Decision(now_s, target, "step_down")
            # IPC degraded: roll back (twice the exploration step, so a
            # bad probe recovers quickly) and settle.
            self._state = self._SETTLED
            self._settled_cycles = 0
            target = min(ctx.uncore_max_ghz, unc.target_ghz + 2.0 * self.config.step_ghz)
            return Decision(now_s, target, "rollback")

        # Settled: hold, eventually re-probe.
        self._settled_cycles += 1
        if self._settled_cycles >= self.config.reprobe_cycles:
            self._state = self._EXPLORING
            self._ref_ipc = ipc
            return Decision(now_s, None, "reprobe")
        return Decision(now_s, None, "hold")
