"""TelemetryGuard: validate every sample, verify every write, trip per device.

The guard sits between the hub's (possibly fault-proxied) devices and the
governors.  Each guarded read issues the *same* device call with the same
meter the governor would have made directly, then validates the result:

* **physical bounds** — throughput within the preset's peak bandwidth,
  power within TDP/DRAM envelopes, counter values within 48 bits, counter
  rates within core-clock × margin (all from :class:`GuardBounds`);
* **slew** — RAPL energy deltas bounded by max power × elapsed;
* **frozen samples** — cumulative counters that stop advancing, repeated
  bit-identical readings that diverge from the cumulative byte counter;
* **cross-sensor consistency** — DRAM power implied by RAPL energy deltas
  against the preset's DRAM power model at the last fresh PCM bandwidth
  sample (passive: it only ever fires when a governor happens to read
  both sensors).

A failed check *quarantines* the sample: the caller receives a
deterministic last-known-good/holdover estimate (cumulative channels are
extrapolated at the last good rate, so downstream deltas stay plausible),
an incident is logged with ``source="guard"``, and the device's circuit
breaker takes a strike.  ``breaker_threshold`` consecutive strikes open
the breaker; further accesses raise :class:`~repro.errors.GuardError`
(a :class:`~repro.errors.TelemetryError`, so the supervised runtime's
existing retry → fail-safe → re-arm path handles the outage — the guard
adds no second fail-safe mechanism).  Probe times are seeded and live on
the sim clock, so recovery is bit-deterministic at any worker count.

Validation on clean telemetry is pure arithmetic over values the governor
already paid for — with the default zero check cost, a guard-on run under
a zero-fault plan is golden-trace bit-identical to guard-off.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import GuardError, TelemetryError
from repro.faults.incidents import Incident, IncidentLog
from repro.guard.bounds import GuardBounds
from repro.guard.breaker import CircuitBreaker
from repro.guard.config import GuardConfig
from repro.hw.presets import SystemPreset
from repro.telemetry.msr import (
    COUNTER_WIDTH_BITS,
    MSR_UNCORE_RATIO_LIMIT,
    counter_delta_array,
    decode_uncore_ratio_limit,
)
from repro.telemetry.rapl import RAPL_DRAM
from repro.telemetry.sampling import AccessMeter
from repro.units import ghz_to_uncore_ratio

if TYPE_CHECKING:  # typing-only: the hub imports the guard the same way
    from repro.telemetry.hub import TelemetryHub

__all__ = ["GUARD_DEVICES", "TelemetryGuard"]

#: Device families the guard runs a circuit breaker for.
GUARD_DEVICES = ("msr", "pcm", "rapl", "actuation")

_COUNTER_MOD = 1 << COUNTER_WIDTH_BITS


class _PCMChannel:
    __slots__ = ("last_raw", "last_good", "last_good_time_s", "last_bytes", "last_time_s")

    def __init__(self) -> None:
        self.last_raw: Optional[float] = None
        self.last_good: Optional[float] = None
        self.last_good_time_s: Optional[float] = None
        self.last_bytes = 0.0
        self.last_time_s: Optional[float] = None


class _MSRChannel:
    __slots__ = ("instr", "cycles", "rate_instr", "rate_cycles", "last_time_s", "last_good_time_s")

    def __init__(self) -> None:
        self.instr: Optional[np.ndarray] = None
        self.cycles: Optional[np.ndarray] = None
        self.rate_instr: Optional[np.ndarray] = None
        self.rate_cycles: Optional[np.ndarray] = None
        self.last_time_s: Optional[float] = None
        self.last_good_time_s: Optional[float] = None


class _EnergyChannel:
    __slots__ = ("last_good", "rate_w", "last_time_s", "last_good_time_s")

    def __init__(self) -> None:
        self.last_good: Optional[float] = None
        self.rate_w = 0.0
        self.last_time_s: Optional[float] = None
        self.last_good_time_s: Optional[float] = None


class _PowerChannel:
    __slots__ = ("last_raw", "last_good", "consecutive", "last_time_s", "last_good_time_s")

    def __init__(self) -> None:
        self.last_raw: Optional[float] = None
        self.last_good: Optional[float] = None
        self.consecutive = 0
        self.last_time_s: Optional[float] = None
        self.last_good_time_s: Optional[float] = None


class TelemetryGuard:
    """The telemetry-integrity and actuation-verification layer.

    Parameters
    ----------
    preset:
        The hardware preset physical bounds derive from.
    config:
        Tunables; defaults keep clean runs bit-identical (see
        :class:`~repro.guard.config.GuardConfig`).
    log:
        Incident log for quarantines/trips/verifies (supervised runs share
        one log between injector, guard and supervisor).
    seed:
        Run seed the breaker probe streams derive from.
    """

    def __init__(
        self,
        preset: SystemPreset,
        config: Optional[GuardConfig] = None,
        *,
        log: Optional[IncidentLog] = None,
        seed: int = 0,
    ) -> None:
        self.preset = preset
        self.config = config if config is not None else GuardConfig()
        self.log = log if log is not None else IncidentLog()
        self.seed = seed
        self.bounds = GuardBounds.from_preset(
            preset, margin=self.config.margin, max_ipc=self.config.max_ipc
        )
        self.breakers: Dict[str, CircuitBreaker] = {
            device: CircuitBreaker(device, self.config, seed) for device in GUARD_DEVICES
        }
        self._hub: Optional["TelemetryHub"] = None
        self.quarantine_count = 0
        self.quarantines_by_device: Dict[str, int] = {d: 0 for d in GUARD_DEVICES}
        #: Validated accesses per device (clean and quarantined alike) —
        #: the detection-coverage scorer uses this to tell "the guard
        #: missed it" from "the governor never looked".
        self.reads_by_device: Dict[str, int] = {d: 0 for d in GUARD_DEVICES}
        self.refusal_count = 0
        self.verify_failure_count = 0
        #: ``(time, device, holdover age or None)`` per quarantine; the age
        #: is the time since the device's last good sample.
        self.quarantine_events: List[Tuple[float, str, Optional[float]]] = []
        #: ``(time, device, breaker gauge)`` per breaker step, starting with
        #: every device's state at construction.
        self.breaker_steps: List[Tuple[float, str, float]] = [
            (self.now_s, device, breaker.gauge_value) for device, breaker in self.breakers.items()
        ]
        self._pcm = _PCMChannel()
        self._msr = _MSRChannel()
        self._rapl_energy: Dict[str, _EnergyChannel] = {}
        self._rapl_power: Dict[str, _PowerChannel] = {}
        #: Freshest clean PCM sample, (time_s, mbps) — cross-check input.
        self._last_pcm_sample: Optional[Tuple[float, float]] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, hub: "TelemetryHub") -> None:
        """Attach to a hub (called by ``hub.install_guard``); once only."""
        if self._hub is not None:
            raise TelemetryError("guard is already bound to a hub")
        # Held weakly: the hub holds the guard, and a cycle would keep a
        # dropped run alive until the cyclic collector ran.
        self._hub = weakref.proxy(hub)

    @property
    def now_s(self) -> float:
        """The guard's clock: the bound node's time (0.0 before its first
        step); breaker probe schedules live on it, not on wall time."""
        return self._hub.node.time_s if self._hub is not None else 0.0

    @property
    def breaker_trip_count(self) -> int:
        """Total breaker openings across all devices."""
        return sum(b.trip_count for b in self.breakers.values())

    # ------------------------------------------------------------------
    # Guarded reads
    # ------------------------------------------------------------------
    def read_throughput_mbps(
        self, meter: Optional[AccessMeter] = None, *, window_s: Optional[float] = None
    ) -> float:
        """Guarded PCM throughput read (MB/s)."""
        self._gate("pcm")
        hub = self._require_hub()
        raw = hub.pcm.read_throughput_mbps(meter, window_s=window_s)
        self._charge_check(meter)
        cfg, st = self.config, self._pcm
        bytes_total = float(hub.pcm.bytes_total)
        verdict: Optional[Tuple[str, str]] = None
        if not (0.0 <= raw <= self.bounds.pcm_max_mbps):
            verdict = (
                "bound_violation",
                f"throughput {raw:.1f} MB/s outside [0, {self.bounds.pcm_max_mbps:.1f}] MB/s",
            )
        elif st.last_time_s is not None and self.now_s > st.last_time_s:
            elapsed = self.now_s - st.last_time_s
            delta = bytes_total - st.last_bytes
            implied = (delta / elapsed) / 1e6
            if delta == 0.0 and raw > cfg.pcm_floor_mbps:
                verdict = (
                    "frozen_sample",
                    f"byte counter stalled for {elapsed:.2f}s while the read "
                    f"claims {raw:.1f} MB/s",
                )
            elif (
                raw == st.last_raw
                and abs(raw - implied)
                > cfg.stuck_rel_tol * max(implied, cfg.pcm_floor_mbps) + cfg.stuck_abs_tol_mbps
            ):
                verdict = (
                    "stuck_sample",
                    f"bit-identical {raw:.1f} MB/s diverges from counter-implied "
                    f"{implied:.1f} MB/s",
                )
        advance = st.last_time_s is None or self.now_s > st.last_time_s
        st.last_raw = raw
        if advance:
            st.last_bytes = bytes_total
            st.last_time_s = self.now_s
        if verdict is None:
            st.last_good = raw
            if advance:
                st.last_good_time_s = self.now_s
            self._last_pcm_sample = (self.now_s, raw)
            self._record_clean("pcm")
            return raw
        holdover = (
            st.last_good
            if st.last_good is not None
            else min(max(raw, 0.0), self.bounds.pcm_max_mbps)
        )
        self._quarantine("pcm", verdict[0], verdict[1], st.last_good_time_s)
        return holdover

    def read_all_core_counters(
        self, meter: Optional[AccessMeter] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Guarded UPS per-core (instructions, cycles) MSR sweep."""
        self._gate("msr")
        hub = self._require_hub()
        instr, cycles = hub.msr.read_all_core_counters(meter)
        self._charge_check(meter)
        st = self._msr
        verdict: Optional[Tuple[str, str]] = None
        d_instr = d_cycles = None
        elapsed = 0.0
        if int(instr.max(initial=0)) >= _COUNTER_MOD or int(cycles.max(initial=0)) >= _COUNTER_MOD:
            verdict = ("bound_violation", "counter sweep outside the 48-bit range")
        elif st.last_time_s is not None and self.now_s > st.last_time_s:
            elapsed = self.now_s - st.last_time_s
            d_instr = counter_delta_array(instr, st.instr)
            d_cycles = counter_delta_array(cycles, st.cycles)
            max_cycle_rate = float(d_cycles.max(initial=0)) / elapsed
            max_instr_rate = float(d_instr.max(initial=0)) / elapsed
            if not bool(d_cycles.any()):
                verdict = (
                    "frozen_sample",
                    f"no core's cycle counter advanced over {elapsed:.2f}s",
                )
            elif max_cycle_rate > self.bounds.core_max_hz:
                verdict = (
                    "slew_violation",
                    f"cycle rate {max_cycle_rate:.3e}/s exceeds "
                    f"{self.bounds.core_max_hz:.3e}/s",
                )
            elif max_instr_rate > self.bounds.core_max_hz * self.bounds.max_ipc:
                verdict = (
                    "slew_violation",
                    f"instruction rate {max_instr_rate:.3e}/s exceeds "
                    f"IPC-bounded {self.bounds.core_max_hz * self.bounds.max_ipc:.3e}/s",
                )
        advance = st.last_time_s is None or self.now_s > st.last_time_s
        if verdict is None:
            if d_instr is not None and elapsed > 0:
                st.rate_instr = d_instr.astype(np.float64) / elapsed
                st.rate_cycles = d_cycles.astype(np.float64) / elapsed
            if advance:
                st.instr = instr.copy()
                st.cycles = cycles.copy()
                st.last_time_s = self.now_s
                st.last_good_time_s = self.now_s
            self._record_clean("msr")
            return instr, cycles
        if st.instr is None:
            hold_instr = instr % np.uint64(_COUNTER_MOD)
            hold_cycles = cycles % np.uint64(_COUNTER_MOD)
        else:
            # Extrapolate from the last good sweep at the last good rate,
            # so downstream modular deltas stay plausible.
            gap = max(self.now_s - st.last_time_s, 0.0)
            rate_i = st.rate_instr if st.rate_instr is not None else np.zeros_like(st.instr, dtype=np.float64)
            rate_c = st.rate_cycles if st.rate_cycles is not None else np.zeros_like(st.cycles, dtype=np.float64)
            hold_instr = (
                (st.instr.astype(np.float64) + rate_i * gap) % float(_COUNTER_MOD)
            ).astype(np.uint64)
            hold_cycles = (
                (st.cycles.astype(np.float64) + rate_c * gap) % float(_COUNTER_MOD)
            ).astype(np.uint64)
        if advance:
            st.instr = hold_instr.copy()
            st.cycles = hold_cycles.copy()
            st.last_time_s = self.now_s
        self._quarantine("msr", verdict[0], verdict[1], st.last_good_time_s)
        return hold_instr, hold_cycles

    def energy_j(self, domain: str, meter: Optional[AccessMeter] = None) -> float:
        """Guarded cumulative RAPL energy read (J)."""
        self._gate("rapl")
        hub = self._require_hub()
        raw = hub.rapl.energy_j(domain, meter)
        self._charge_check(meter)
        cfg = self.config
        st = self._rapl_energy.setdefault(domain, _EnergyChannel())
        max_w = self.bounds.rapl_power_max_w(domain)
        verdict: Optional[Tuple[str, str]] = None
        implied_w: Optional[float] = None
        elapsed = 0.0
        if raw < 0.0:
            verdict = ("bound_violation", f"negative {domain} energy {raw:.3f} J")
        elif st.last_time_s is not None and self.now_s > st.last_time_s:
            elapsed = self.now_s - st.last_time_s
            delta = raw - st.last_good
            if delta < -1e-9:
                verdict = (
                    "bound_violation",
                    f"{domain} energy went backwards by {-delta:.3f} J",
                )
            elif delta == 0.0:
                verdict = (
                    "frozen_sample",
                    f"{domain} energy counter stalled for {elapsed:.2f}s",
                )
            elif delta > max_w * elapsed + cfg.slew_slack_j:
                verdict = (
                    "slew_violation",
                    f"{domain} energy delta {delta:.1f} J over {elapsed:.2f}s "
                    f"implies > {max_w:.0f} W",
                )
            else:
                implied_w = delta / elapsed
                verdict = self._cross_check(domain, implied_w)
        advance = st.last_time_s is None or self.now_s > st.last_time_s
        if verdict is None:
            if advance:
                st.last_good = raw
                st.last_time_s = self.now_s
                st.last_good_time_s = self.now_s
                if implied_w is not None:
                    st.rate_w = implied_w
            self._record_clean("rapl")
            return raw
        if st.last_good is None:
            holdover = max(raw, 0.0)
        else:
            holdover = st.last_good + max(st.rate_w, 0.0) * max(self.now_s - st.last_time_s, 0.0)
        if advance:
            st.last_good = holdover
            st.last_time_s = self.now_s
        self._quarantine("rapl", verdict[0], f"[{domain}] {verdict[1]}", st.last_good_time_s)
        return holdover

    def power_w(self, domain: str, meter: Optional[AccessMeter] = None) -> float:
        """Guarded instantaneous RAPL power read (W)."""
        self._gate("rapl")
        hub = self._require_hub()
        raw = hub.rapl.power_w(domain, meter)
        self._charge_check(meter)
        cfg = self.config
        st = self._rapl_power.setdefault(domain, _PowerChannel())
        max_w = self.bounds.rapl_power_max_w(domain)
        verdict: Optional[Tuple[str, str]] = None
        if not (0.0 <= raw <= max_w):
            verdict = (
                "bound_violation",
                f"{domain} power {raw:.1f} W outside [0, {max_w:.0f}] W",
            )
        else:
            advance = st.last_time_s is None or self.now_s > st.last_time_s
            if raw == st.last_raw and advance:
                st.consecutive += 1
            elif raw != st.last_raw:
                st.consecutive = 1
            if st.consecutive >= cfg.freeze_consecutive and raw > 0.0:
                verdict = (
                    "frozen_sample",
                    f"{domain} power pinned at {raw:.2f} W for "
                    f"{st.consecutive} consecutive reads",
                )
        advance = st.last_time_s is None or self.now_s > st.last_time_s
        st.last_raw = raw
        if advance:
            st.last_time_s = self.now_s
        if verdict is None:
            st.last_good = raw
            if advance:
                st.last_good_time_s = self.now_s
            self._record_clean("rapl")
            return raw
        holdover = st.last_good if st.last_good is not None else min(max(raw, 0.0), max_w)
        self._quarantine("rapl", verdict[0], f"[{domain}] {verdict[1]}", st.last_good_time_s)
        return holdover

    # ------------------------------------------------------------------
    # Write-verified actuation
    # ------------------------------------------------------------------
    def actuate_uncore_max_ghz(self, freq_ghz: float, meter: Optional[AccessMeter] = None) -> None:
        """Program the uncore ceiling through the backend, then verify.

        After each backend write, the per-socket register shadow (MSR
        ``0x620`` on Intel, the fabric-clock target on AMD) is read back
        free of charge and compared against the snapped request.  On
        mismatch the write is retried with the supervisor-style bounded
        backoff (charged to ``meter`` as ``retry_backoff``); when
        ``verify_retries`` are exhausted, the actuation breaker trips and
        a :class:`~repro.errors.GuardError` surfaces the dead knob to the
        supervised runtime.
        """
        self._gate("actuation")
        hub = self._require_hub()
        cfg = self.config
        breaker = self.breakers["actuation"]
        attempt = 0
        while True:
            hub.backend.set_uncore_max_ghz(freq_ghz, meter)
            self._charge_check(meter)
            if not cfg.verify_writes or self._readback_matches(freq_ghz):
                self._record_clean("actuation")
                return
            self.verify_failure_count += 1
            if attempt >= cfg.verify_retries:
                self._log(
                    "actuation",
                    fault="verify_mismatch",
                    action="verify",
                    outcome="exhausted",
                    detail=f"read-back disagreed after {attempt + 1} write attempts",
                )
                if breaker.force_open(self.now_s):
                    self._log_trip("actuation", breaker)
                raise GuardError(
                    f"actuation write-verify failed: uncore limit read-back "
                    f"disagreed with {freq_ghz:.2f} GHz after "
                    f"{attempt + 1} attempts [guard]"
                )
            backoff_s = cfg.verify_backoff_base_s * (cfg.verify_backoff_factor**attempt)
            self._log(
                "actuation",
                fault="verify_mismatch",
                action="verify",
                outcome="retried",
                detail=f"attempt {attempt + 1}: re-writing after {backoff_s * 1e3:.1f} ms backoff",
            )
            if meter is not None:
                meter.charge("retry_backoff", backoff_s, 0.0)
            attempt += 1

    def _readback_matches(self, freq_ghz: float) -> bool:
        hub = self._require_hub()
        node = hub.node
        for socket in range(node.n_sockets):
            unc = node.uncore(socket)
            expected_ratio = ghz_to_uncore_ratio(unc.snap(freq_ghz))
            if hub.hsmp is not None:
                got = hub.hsmp.read_fabric_clock_ghz(socket, None)
                if ghz_to_uncore_ratio(got) == expected_ratio:
                    continue
                # A modeled switch latency keeps the target pending for a
                # while; an in-flight transition to the right value is a
                # verified write, not a mismatch.
                pending = unc.pending_target_ghz
                if pending is not None and ghz_to_uncore_ratio(pending) == expected_ratio:
                    continue
                return False
            value = hub.msr.read(socket, MSR_UNCORE_RATIO_LIMIT, None)
            if decode_uncore_ratio_limit(value)[0] != expected_ratio:
                return False
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_hub(self) -> "TelemetryHub":
        if self._hub is None:
            raise TelemetryError("guard is not bound to a hub")
        return self._hub

    def _charge_check(self, meter: Optional[AccessMeter]) -> None:
        cfg = self.config
        if meter is not None and (cfg.check_time_s > 0.0 or cfg.check_energy_j > 0.0):
            meter.charge("guard_check", cfg.check_time_s, cfg.check_energy_j)

    def _gate(self, device: str) -> None:
        breaker = self.breakers[device]
        state_before = breaker.state
        if not breaker.allow(self.now_s):
            self.refusal_count += 1
            probe_at = breaker.probe_at_s
            until = f" until t={probe_at:.2f}s" if probe_at is not None else ""
            raise GuardError(f"{device} circuit breaker open{until} [guard]")
        if breaker.state != state_before:
            # open → half-open: this access is the probe.
            self._log(
                device,
                fault="breaker",
                action="probe",
                outcome="half_open",
                detail=f"probe #{breaker.probe_count}",
            )
            self._step_breaker(device)

    def _record_clean(self, device: str) -> None:
        self.reads_by_device[device] += 1
        breaker = self.breakers[device]
        if breaker.record_success():
            self._log(
                device,
                fault="breaker",
                action="close",
                outcome="closed",
                detail="half-open probe validated clean",
            )
            self._step_breaker(device)

    def _quarantine(
        self, device: str, fault: str, detail: str, last_good_time_s: Optional[float]
    ) -> None:
        self.reads_by_device[device] += 1
        self.quarantine_count += 1
        self.quarantines_by_device[device] += 1
        self._log(device, fault=fault, action="quarantine", outcome="holdover", detail=detail)
        age_s = None if last_good_time_s is None else self.now_s - last_good_time_s
        self.quarantine_events.append((self.now_s, device, age_s))
        breaker = self.breakers[device]
        if breaker.record_failure(self.now_s):
            self._log_trip(device, breaker)
        else:
            self._step_breaker(device)

    def _log_trip(self, device: str, breaker: CircuitBreaker) -> None:
        probe_at = breaker.probe_at_s
        detail = f"probe scheduled at t={probe_at:.2f}s" if probe_at is not None else ""
        self._log(device, fault="breaker", action="trip", outcome="open", detail=detail)
        self._step_breaker(device)

    def _step_breaker(self, device: str) -> None:
        self.breaker_steps.append((self.now_s, device, self.breakers[device].gauge_value))

    def _cross_check(self, domain: str, implied_w: float) -> Optional[Tuple[str, str]]:
        cfg = self.config
        if domain != RAPL_DRAM or not cfg.cross_check or self._last_pcm_sample is None:
            return None
        sample_time_s, mbps = self._last_pcm_sample
        if self.now_s - sample_time_s > cfg.cross_window_s:
            return None
        expected_w = self.bounds.implied_dram_w(
            self.preset.dram_base_w, self.preset.dram_w_per_gbps, mbps
        )
        if abs(implied_w - expected_w) > cfg.cross_rel_tol * expected_w + cfg.cross_abs_slack_w:
            return (
                "inconsistent",
                f"implied DRAM power {implied_w:.1f} W disagrees with "
                f"{expected_w:.1f} W expected at {mbps:.0f} MB/s",
            )
        return None

    def _log(self, device: str, *, fault: str, action: str, outcome: str, detail: str) -> None:
        self.log.append(
            Incident(
                time_s=self.now_s,
                source="guard",
                device=device,
                fault=fault,
                action=action,
                outcome=outcome,
                fault_id=None,
                detail=detail,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TelemetryGuard(t={self.now_s:.2f}s, quarantines={self.quarantine_count}, "
            f"trips={self.breaker_trip_count})"
        )
