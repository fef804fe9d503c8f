"""FaultInjector: interprets a FaultPlan against a TelemetryHub.

The injector wraps every device of a hub behind a thin proxy (composition +
``__getattr__`` passthrough, so untouched methods keep their exact cost and
semantics).  Each proxied access asks the injector whether an active fault
window wants it to fail; if so, the access is *charged to the caller's
meter exactly as if it had succeeded* — a failed MSR read still interrupted
the core, a dropped PCM aggregation still spanned its window — and then the
fault surfaces as the telemetry error it models (with a ``fault_id``
attribute tying it back to the campaign's incident log).

Silent faults never raise: a frozen PCM counter simply stops advancing, a
RAPL glitch returns a reset register, a counter wrap shifts every fixed
counter to just below 2^48 so it wraps within the next few ticks (the shift
is uniform, so wrap-safe modular readers see exact deltas for every window
except the single one spanning the injection).  The corruption kinds added
for the telemetry guard follow the same rule: ``stuck`` repeats the last
value the proxy returned, ``bias`` shifts counter sweeps additively,
``drift`` scales or inflates readings in proportion to time-in-window,
``spike`` returns physically impossible values, and ``write_ignored``
acknowledges (and charges) an actuation write without applying it — only a
register read-back can tell.

Activation depends only on simulated time and access order — both
deterministic — so the same plan replays the same incident log.
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, List, Optional, Tuple

from repro.errors import FaultInjectionError, MSRAccessError, TelemetryError
from repro.faults.incidents import Incident, IncidentLog
from repro.faults.plan import FaultPlan, FaultSpec
from repro.telemetry.hsmp import _MAILBOX_ENERGY_J, _MAILBOX_TIME_S
from repro.telemetry.msr import COUNTER_WIDTH_BITS, IA32_FIXED_CTR0, MSR_UNCORE_RATIO_LIMIT
from repro.telemetry.sampling import AccessMeter

__all__ = ["FaultInjector"]

_COUNTER_MOD = 1 << COUNTER_WIDTH_BITS
#: A wrap injection parks the highest counter this far below 2^48.
_WRAP_LEAD = 1_000_000
#: A biased MSR sweep is shifted by this many counts (an impossible jump).
_BIAS_COUNTS = 7_500_000_000
#: PCM drift: fractional growth per second in-window.
_PCM_DRIFT_RATE = 0.6
#: PCM spike: reads return value * gain + 3x peak bandwidth.
_PCM_SPIKE_GAIN = 4.0
#: RAPL drift: bogus extra watts folded into the energy slope.
_RAPL_DRIFT_W = 30.0
#: RAPL spike: reads return value * gain.
_RAPL_SPIKE_GAIN = 50.0


class FaultInjector:
    """Executes one :class:`~repro.faults.plan.FaultPlan` against one hub.

    Parameters
    ----------
    plan:
        The campaign to run.
    log:
        Incident log to append injections to; a fresh one is created if
        omitted (supervised runs share one log between injector and
        supervisor).
    """

    def __init__(self, plan: FaultPlan, log: Optional[IncidentLog] = None):
        self.plan = plan
        self.log = log if log is not None else IncidentLog()
        self._remaining: List[float] = [
            float("inf") if spec.count is None else float(spec.count) for spec in plan.specs
        ]
        self._fired: List[bool] = [False] * len(plan.specs)
        self._next_fault_id = 1
        self._hub = None
        self._msr = None

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self, hub) -> None:
        """Replace the hub's devices with fault proxies (called by the hub).

        Use :meth:`TelemetryHub.install_fault_injector`; arming the same
        injector or hub twice is an error.
        """
        if self._hub is not None:
            raise FaultInjectionError("fault injector is already armed")
        # Held weakly: the hub holds the injector, and a cycle would keep a
        # dropped run alive until the cyclic collector ran.
        self._hub = weakref.proxy(hub)
        self._msr = hub.msr
        hub.msr = _FaultyMSRDevice(hub.msr, self)
        hub.pcm = _FaultyPCMCounters(hub.pcm, self)
        hub.rapl = _FaultyRAPLCounters(hub.rapl, self)
        if hub.hsmp is not None:
            hub.hsmp = _FaultyHSMPDevice(hub.hsmp, self)

    @property
    def now_s(self) -> float:
        """Campaign time: the armed node's time (0.0 before its first step)."""
        return self._hub.node.time_s if self._hub is not None else 0.0

    # ------------------------------------------------------------------
    # Time-driven faults
    # ------------------------------------------------------------------
    def on_tick(self) -> None:
        """Fire the point faults and window entries due at the node's latest
        tick, which steps alone (:meth:`quiet_ticks`)."""
        now = self.now_s
        for i, spec in enumerate(self.plan.specs):
            if spec.kind == "wrap" and not self._fired[i] and now >= spec.start_s:
                self._fired[i] = True
                if self._remaining[i] >= 1:
                    self._remaining[i] -= 1
                    self._inject_wrap(spec)
            elif spec.kind == "freeze" and not self._fired[i] and _in_window(spec, now):
                self._fired[i] = True
                if self._remaining[i] >= 1:
                    self._remaining[i] -= 1
                    self._log_injection(spec, outcome="silent", detail="counter frozen")

    def quiet_ticks(self, dt_s: float, limit: int) -> int:
        """How many of the next ``limit`` ticks of ``dt_s`` (at least 1) pass
        before the next edge tick, the first at or past an unfired wrap's
        start or a freeze window's start or end, counted by replaying the
        node's running time ``t + dt_s``. An edge tick steps alone: a wrap
        reads the counters before the tick folds into them, and a freeze
        stops PCM on exactly the ticks in its window."""
        now = self.now_s
        edge = math.inf
        for fired, spec in zip(self._fired, self.plan.specs):
            if spec.kind == "wrap" and not fired:
                edge = min(edge, spec.start_s)
            elif spec.kind == "freeze" and spec.end_s > now:
                # A fired freeze is open until its end; an unfired one opens
                # (and fires) at its start.
                edge = min(edge, spec.end_s if fired else spec.start_s)
        if edge == math.inf:
            return limit
        quiet, time_s = 0, now
        while quiet < limit:
            time_s += dt_s
            if time_s >= edge:
                break
            quiet += 1
        return max(1, quiet)

    def _inject_wrap(self, spec: FaultSpec) -> None:
        instr, cycles = self._msr.read_all_core_counters(None)
        top = int(max(int(instr.max(initial=0)), int(cycles.max(initial=0))))
        offset = (_COUNTER_MOD - _WRAP_LEAD - top) % _COUNTER_MOD
        self._msr.jump_counters(offset)
        self._log_injection(
            spec, outcome="silent", detail=f"counters shifted +{offset} to 2^48-{_WRAP_LEAD}"
        )

    # ------------------------------------------------------------------
    # Access-driven faults
    # ------------------------------------------------------------------
    def trip(self, device: str, kind: str, detail: str = "") -> Optional[int]:
        """Consume one injection if a matching window is active.

        Returns the campaign-unique fault id, or ``None`` when no fault
        wants this access to fail.  Specs of this *(device, kind)* are
        matched in plan order (the first with budget left wins).
        """
        fault_id, _ = self.trip_spec(device, kind, detail)
        return fault_id

    def trip_spec(
        self, device: str, kind: str, detail: str = ""
    ) -> Tuple[Optional[int], Optional[FaultSpec]]:
        """Like :meth:`trip`, but also returns the consumed spec (so
        time-in-window fault shapes such as ``drift`` can be computed)."""
        now = self.now_s
        for i, spec in enumerate(self.plan.specs):
            if (
                spec.device == device
                and spec.kind == kind
                and self._remaining[i] >= 1
                and _in_window(spec, now)
            ):
                self._remaining[i] -= 1
                outcome = "silent" if spec.silent else "raised"
                return self._log_injection(spec, outcome=outcome, detail=detail), spec
        return None, None

    def pcm_frozen(self) -> bool:
        """True while any PCM freeze window is active."""
        now = self.now_s
        return any(spec.kind == "freeze" and _in_window(spec, now) for spec in self.plan.specs)

    def peak_bw_mbps(self) -> float:
        """The armed node's peak memory bandwidth (spike-fault scale)."""
        if self._hub is None:
            raise FaultInjectionError("fault injector is not armed")
        return float(self._hub.node.memory.peak_bw_gbps) * 1e3

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _log_injection(self, spec: FaultSpec, *, outcome: str, detail: str = "") -> int:
        fault_id = self._next_fault_id
        self._next_fault_id += 1
        self.log.append(
            Incident(
                time_s=self.now_s,
                source="injector",
                device=spec.device,
                fault=spec.kind,
                action="inject",
                outcome=outcome,
                fault_id=fault_id,
                detail=detail,
            )
        )
        return fault_id

    @property
    def injections(self) -> Tuple[Incident, ...]:
        """Every fault injected so far (the injector's side of the log)."""
        return self.log.for_source("injector")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjector({self.plan.name!r}, t={self.now_s:.2f}s, {len(self.injections)} injected)"


def _in_window(spec: FaultSpec, now_s: float) -> bool:
    return spec.start_s <= now_s < spec.end_s


def _fault_error(exc: Exception, fault_id: int) -> Exception:
    """Tag an injected error with its campaign fault id."""
    exc.fault_id = fault_id
    return exc


class _Proxy:
    """A device behind the injector; what it does not override passes
    through to the device unchanged."""

    def __init__(self, inner, injector: FaultInjector):
        self._inner = inner
        self._injector = injector

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _write_dropped(
        self,
        what: str,
        meter: Optional[AccessMeter],
        charge: Tuple[str, float, float],
        error: Callable[[int], Exception],
    ) -> bool:
        """Trip the actuation write faults for one write of ``what``; either
        charges ``meter`` one ``(kind, time, energy)`` transaction. A
        ``write_error`` raises ``error(fault_id)`` with the device untouched
        (no settling window begins). A ``write_ignored`` returns True: the
        write is acknowledged, never applied; only a read-back can tell."""
        for kind in ("write_error", "write_ignored"):
            fault_id = self._injector.trip("actuation", kind, what)
            if fault_id is not None:
                if meter is not None:
                    meter.charge(*charge)
                if kind == "write_error":
                    raise _fault_error(error(fault_id), fault_id)
                return True
        return False


class _FaultyMSRDevice(_Proxy):
    """MSR proxy: transient read failures, silent sweep corruption
    (``stuck``/``bias``), and actuation-write failures (raised or silently
    ignored)."""

    #: The last sweep returned, which a ``stuck`` fault repeats.
    _last_sweep = None

    def read(self, socket: int, address: int, meter: Optional[AccessMeter] = None, core: int = 0) -> int:
        value = self._inner.read(socket, address, meter, core)
        fault_id = self._injector.trip("msr", "read_error", f"read 0x{address:X}")
        if fault_id is not None:
            raise _fault_error(
                MSRAccessError(address, f"injected transient read failure [fault #{fault_id}]"),
                fault_id,
            )
        return value

    def read_all_core_counters(self, meter: Optional[AccessMeter] = None):
        # The sweep runs (and is charged) in full; the fault corrupts its
        # result, so the caller must discard and retry.
        result = self._inner.read_all_core_counters(meter)
        fault_id = self._injector.trip("msr", "read_error", "per-core counter sweep")
        if fault_id is not None:
            raise _fault_error(
                MSRAccessError(
                    IA32_FIXED_CTR0, f"injected transient sweep failure [fault #{fault_id}]"
                ),
                fault_id,
            )
        fault_id = self._injector.trip("msr", "stuck", "per-core counter sweep")
        if fault_id is not None:
            if self._last_sweep is not None:
                # The device stopped advancing: hand back the previous sweep.
                return tuple(arr.copy() for arr in self._last_sweep)
            return result  # nothing to be stuck at yet
        fault_id = self._injector.trip("msr", "bias", "per-core counter sweep")
        if fault_id is not None:
            instr, cycles = result
            return (
                (instr + _BIAS_COUNTS) % _COUNTER_MOD,
                (cycles + _BIAS_COUNTS) % _COUNTER_MOD,
            )
        self._last_sweep = tuple(arr.copy() for arr in result)
        return result

    def write(
        self,
        socket: int,
        address: int,
        value: int,
        meter: Optional[AccessMeter] = None,
        *,
        delay_s: float = 0.0,
    ) -> None:
        if not self._write_dropped(
            f"write 0x{address:X}",
            meter,
            self._write_charge(),
            lambda fault_id: MSRAccessError(address, f"injected write failure [fault #{fault_id}]"),
        ):
            self._inner.write(socket, address, value, meter, delay_s=delay_s)

    def set_uncore_max_ghz(
        self,
        freq_ghz: float,
        meter: Optional[AccessMeter] = None,
        *,
        delay_s: float = 0.0,
    ) -> None:
        if not self._write_dropped(
            "uncore limit write",
            meter,
            self._write_charge(),
            lambda fault_id: MSRAccessError(
                MSR_UNCORE_RATIO_LIMIT, f"injected actuation failure [fault #{fault_id}]"
            ),
        ):
            self._inner.set_uncore_max_ghz(freq_ghz, meter, delay_s=delay_s)

    def _write_charge(self) -> Tuple[str, float, float]:
        costs = self._inner.costs
        return ("msr_write", costs.msr_write_time_s, costs.msr_write_energy_j)


class _FaultyPCMCounters(_Proxy):
    """PCM proxy: sample dropouts, frozen/stale counters, and silent value
    corruption (``stuck``/``spike``/``drift``)."""

    #: The last value returned, which a ``stuck`` fault repeats.
    _last_value: Optional[float] = None

    def on_tick(self, dt_s: float) -> None:
        if self._injector.pcm_frozen():
            return  # the cumulative counter stops advancing
        self._inner.on_tick(dt_s)

    def read_throughput_mbps(self, meter: Optional[AccessMeter] = None, *, window_s=None) -> float:
        value = self._inner.read_throughput_mbps(meter, window_s=window_s)
        fault_id = self._injector.trip("pcm", "dropout", "throughput aggregation")
        if fault_id is not None:
            raise _fault_error(
                TelemetryError(f"injected PCM sample dropout [fault #{fault_id}]"), fault_id
            )
        fault_id = self._injector.trip("pcm", "stuck", "throughput aggregation")
        if fault_id is not None:
            return value if self._last_value is None else self._last_value
        fault_id = self._injector.trip("pcm", "spike", "throughput aggregation")
        if fault_id is not None:
            # A burst no memory subsystem could deliver.
            return value * _PCM_SPIKE_GAIN + 3.0 * self._injector.peak_bw_mbps()
        fault_id, spec = self._injector.trip_spec("pcm", "drift", "throughput aggregation")
        if fault_id is not None and spec is not None:
            elapsed = self._injector.now_s - spec.start_s
            return value * (1.0 + _PCM_DRIFT_RATE * elapsed)
        self._last_value = value
        return value


class _FaultyRAPLCounters(_Proxy):
    """RAPL proxy: transient read failures, register-reset glitches, and
    silent value corruption (``stuck``/``spike``/``drift``)."""

    def __init__(self, inner, injector: FaultInjector):
        super().__init__(inner, injector)
        self._last_values: dict = {}

    def _faulted_read(self, value: float, what: str) -> float:
        fault_id = self._injector.trip("rapl", "read_error", what)
        if fault_id is not None:
            raise _fault_error(
                TelemetryError(f"injected RAPL read failure [fault #{fault_id}]"), fault_id
            )
        fault_id = self._injector.trip("rapl", "glitch", what)
        if fault_id is not None:
            return 0.0  # register-reset glitch: silent value corruption
        fault_id = self._injector.trip("rapl", "stuck", what)
        if fault_id is not None:
            return self._last_values.get(what, value)
        fault_id = self._injector.trip("rapl", "spike", what)
        if fault_id is not None:
            return value * _RAPL_SPIKE_GAIN
        fault_id, spec = self._injector.trip_spec("rapl", "drift", what)
        if fault_id is not None and spec is not None:
            # A bogus extra-watts slope folded into the reading.
            elapsed = self._injector.now_s - spec.start_s
            return value + _RAPL_DRIFT_W * elapsed
        self._last_values[what] = value
        return value

    def energy_j(self, domain: str, meter: Optional[AccessMeter] = None) -> float:
        return self._faulted_read(self._inner.energy_j(domain, meter), f"energy {domain}")

    def read_register(self, domain: str, meter: Optional[AccessMeter] = None) -> int:
        return int(self._faulted_read(float(self._inner.read_register(domain, meter)), f"register {domain}"))

    def power_w(self, domain: str, meter: Optional[AccessMeter] = None) -> float:
        return self._faulted_read(self._inner.power_w(domain, meter), f"power {domain}")


class _FaultyHSMPDevice(_Proxy):
    """HSMP proxy: mailbox actuation failures (the AMD §6.6 path)."""

    def set_fabric_clock_ghz(
        self,
        freq_ghz: float,
        meter: Optional[AccessMeter] = None,
        *,
        delay_s: float = 0.0,
    ) -> float:
        # A fault costs one mailbox transaction; an ignored request is
        # acked with the requested clock.
        if self._write_dropped(
            "fabric P-state request",
            meter,
            ("hsmp_mailbox", _MAILBOX_TIME_S, _MAILBOX_ENERGY_J),
            lambda fault_id: TelemetryError(f"injected HSMP mailbox failure [fault #{fault_id}]"),
        ):
            return float(freq_ghz)
        return self._inner.set_fabric_clock_ghz(freq_ghz, meter, delay_s=delay_s)
