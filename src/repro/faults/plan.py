"""Fault campaigns: what fails, where, when — fixed before the run starts.

A :class:`FaultPlan` is an ordered tuple of :class:`FaultSpec` windows. Each
spec names one telemetry device, one fault kind, an activation window in
simulated time and a budget of injections.  Plans are *data*: the
:class:`~repro.faults.injector.FaultInjector` interprets them against a
:class:`~repro.telemetry.hub.TelemetryHub`, and because activation depends
only on simulated time and access order, a plan replays identically from
run to run — the incident log is bit-reproducible.

Seeded campaigns come from :meth:`FaultPlan.generate` (fully random mix)
or :func:`standard_campaign` (the fixed shape used by the resilience
experiment and the chaos CI job: one of each fault family, with the exact
times jittered by the seed).

Fault kinds by device
---------------------
========== ============== ====================================================
device     kind           behaviour while active
========== ============== ====================================================
msr        read_error     MSR counter reads raise :class:`MSRAccessError`
                          (the read still charges the meter — time was spent)
msr        wrap           fixed counters jump to just below 2^48 and wrap
                          (silent; readers must delta modulo 2^48)
msr        stuck          per-core counter sweeps return the previous
                          sweep's values — the device stops advancing
                          (silent; deltas collapse to zero)
msr        bias           per-core counter sweeps come back additively
                          shifted (silent; implied rates explode)
pcm        dropout        throughput reads raise :class:`TelemetryError`
pcm        freeze         the cumulative counter stops advancing (silent;
                          reads return stale throughput)
pcm        stuck          throughput reads repeat the last returned sample
                          (silent; the device itself keeps advancing)
pcm        drift          throughput reads grow by a multiplicative factor
                          proportional to time-in-window (silent, sneaky)
pcm        spike          throughput reads return a physically impossible
                          burst well beyond peak memory bandwidth (silent)
rapl       read_error     energy/power reads raise :class:`TelemetryError`
rapl       glitch         energy reads return 0 — a register-reset glitch
                          (silent value corruption)
rapl       stuck          energy/power reads repeat the last returned value
                          (silent; cumulative energy stops advancing)
rapl       drift          energy reads gain a bogus extra-watts slope
                          (silent, sneaky miscalibration)
rapl       spike          energy/power reads come back scaled far beyond
                          any physical power budget (silent)
actuation  write_error    uncore-limit writes (MSR 0x620 or HSMP mailbox)
                          raise without applying the request
actuation  write_ignored  uncore-limit writes are acknowledged and charged
                          but never applied (silent; only a register
                          read-back can tell)
========== ============== ====================================================

Control-plane fault kinds (``device="control"``) are interpreted by the
cluster power-budget coordinator's :class:`~repro.coordinator.chaos.
ControlPlane` rather than by the telemetry-hub proxies — a hub-level
:class:`~repro.faults.injector.FaultInjector` simply never matches them.
They may carry an optional ``target`` node id (``None`` = every node):

========== ==================== ==============================================
device     kind                 behaviour while active
========== ==================== ==============================================
control    heartbeat_drop       node→coordinator heartbeats are discarded
control    heartbeat_delay      heartbeats are delivered late (a seeded
                                multiple of the heartbeat period)
control    heartbeat_reorder    heartbeats are held one tick and delivered
                                in inverted node order
control    partition_uplink     one-way partition: nothing the target node
                                sends reaches the coordinator
control    partition_downlink   one-way partition: no grant the coordinator
                                sends reaches the target node
control    coordinator_crash    the coordinator loses its in-memory grant
                                state at the window start and restarts
                                (journal replay + quarantine) at the later
                                of window end and its restart delay
control    grant_replay         a stale, previously delivered grant is
                                re-delivered to the target node (nodes must
                                reject it by lease sequence number)
========== ==================== ==============================================

All control kinds are *silent*: nothing raises — safety must come from the
lease protocol itself (expiry to the safe floor, monotone sequence
numbers, conservative reclamation), which is exactly what the coordinated
chaos campaign scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import FaultInjectionError
from repro.sim.rng import spawn_generator
from repro.units import require_finite

__all__ = [
    "FAULT_KINDS",
    "HUB_DEVICES",
    "CONTROL_DEVICE",
    "SILENT_KINDS_BY_DEVICE",
    "SILENT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "standard_campaign",
    "silent_campaign",
    "coordinated_campaign",
    "uplink_campaign",
]

#: Valid fault kinds per device.
FAULT_KINDS = {
    "msr": ("read_error", "wrap", "stuck", "bias"),
    "pcm": ("dropout", "freeze", "stuck", "drift", "spike"),
    "rapl": ("read_error", "glitch", "stuck", "drift", "spike"),
    "actuation": ("write_error", "write_ignored"),
    "control": (
        "heartbeat_drop",
        "heartbeat_delay",
        "heartbeat_reorder",
        "partition_uplink",
        "partition_downlink",
        "coordinator_crash",
        "grant_replay",
    ),
}

#: Devices whose faults the telemetry-hub injector proxies interpret.
#: :meth:`FaultPlan.generate` draws only from these — control-plane faults
#: are composed explicitly (or via :func:`coordinated_campaign`) because
#: they are meaningless without a coordinator in the loop.
HUB_DEVICES = ("actuation", "msr", "pcm", "rapl")

#: The cluster-coordinator control-plane pseudo-device.
CONTROL_DEVICE = "control"

#: Kinds that never raise, per device: they corrupt or stall data instead.
#: Silence is a *(device, kind)* property — a kind name shared across
#: devices (``stuck``, ``drift``, ``spike``) is classified per device, never
#: by a flat name lookup.
SILENT_KINDS_BY_DEVICE = {
    "msr": frozenset({"wrap", "stuck", "bias"}),
    "pcm": frozenset({"freeze", "stuck", "drift", "spike"}),
    "rapl": frozenset({"glitch", "stuck", "drift", "spike"}),
    "actuation": frozenset({"write_ignored"}),
    # Control-plane faults never raise anywhere: lost messages are just
    # lost, and only the lease protocol's own fail-safes can contain them.
    "control": frozenset(FAULT_KINDS["control"]),
}


def _validate_silent_table() -> None:
    if set(SILENT_KINDS_BY_DEVICE) != set(FAULT_KINDS):
        raise FaultInjectionError(
            "SILENT_KINDS_BY_DEVICE devices "
            f"{sorted(SILENT_KINDS_BY_DEVICE)} != FAULT_KINDS devices {sorted(FAULT_KINDS)}"
        )
    for device, kinds in SILENT_KINDS_BY_DEVICE.items():
        unknown = kinds - set(FAULT_KINDS[device])
        if unknown:
            raise FaultInjectionError(
                f"SILENT_KINDS_BY_DEVICE[{device!r}] names unknown kinds {sorted(unknown)}; "
                f"known: {FAULT_KINDS[device]}"
            )


_validate_silent_table()

#: Flat view of every silent kind name (back-compat/reporting only — use
#: :data:`SILENT_KINDS_BY_DEVICE` to classify a spec).
SILENT_KINDS = tuple(
    sorted({kind for kinds in SILENT_KINDS_BY_DEVICE.values() for kind in kinds})
)


def _nan_window(start_s: float, duration_s: float) -> FaultInjectionError:
    return FaultInjectionError(
        f"fault window must not be NaN, got start={start_s!r} duration={duration_s!r}"
    )


def _infinite_start(start_s: float) -> FaultInjectionError:
    return FaultInjectionError(f"fault window must start at a finite time, got start={start_s!r}")


@dataclass(frozen=True)
class FaultSpec:
    """One fault window.

    Attributes
    ----------
    device:
        Which device family fails (see :data:`FAULT_KINDS`).
    kind:
        The fault kind, valid for the device.
    start_s:
        Window start, simulated seconds.
    duration_s:
        Window length. Point faults (``wrap``) fire once at ``start_s`` and
        ignore the duration; access faults trigger on accesses that fall
        inside ``[start_s, start_s + duration_s)``.
    count:
        Maximum number of injections charged to this spec (``None`` =
        unlimited within the window). A ``freeze`` spec counts as a single
        injection covering its whole window.
    target:
        Control-plane faults only: the node id the fault applies to
        (``None`` = every node; ``coordinator_crash`` ignores it).  Hub
        device faults must leave it ``None`` — they hit the whole device.

    Window semantics (pinned by ``tests/test_fault_windows.py``):

    * Access faults activate on ``start_s <= now < end_s`` — half-open, so
      a zero-duration window never matches an access, and back-to-back
      windows on the same device hand over without overlap: an access at
      exactly the boundary belongs to the later window.
    * Point faults (``wrap``) fire at the first tick with ``now >=
      start_s`` even when ``duration_s`` is zero.
    * When several in-window specs could satisfy one access, precedence is
      two-level and deterministic. Across *different kinds* the device
      proxy asks in a fixed order — raising kinds before silent
      corruption (e.g. ``read_error`` before ``stuck`` before ``bias``;
      ``dropout`` before ``stuck`` before ``spike`` before ``drift``).
      Within *one kind*, **plan order wins**: the injector consumes the
      first matching spec with budget left.
    """

    device: str
    kind: str
    start_s: float
    duration_s: float = 1.0
    count: Optional[int] = 1
    target: Optional[int] = None

    def __post_init__(self) -> None:
        if self.device not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown device {self.device!r}; known: {sorted(FAULT_KINDS)}"
            )
        if self.kind not in FAULT_KINDS[self.device]:
            raise FaultInjectionError(
                f"device {self.device!r} has no fault kind {self.kind!r}; "
                f"known: {FAULT_KINDS[self.device]}"
            )
        # NaN passes the comparison below, and a NaN window never fires; nor
        # does one that opens at infinity. An infinite duration is an
        # open-ended window.
        require_finite(self.start_s, self.duration_s, error=_nan_window, allow_inf=True)
        require_finite(self.start_s, error=_infinite_start)
        if self.start_s < 0 or self.duration_s < 0:
            raise FaultInjectionError(
                f"fault window must be non-negative, got start={self.start_s!r} "
                f"duration={self.duration_s!r}"
            )
        if self.count is not None and self.count < 1:
            raise FaultInjectionError(f"count must be >= 1 or None, got {self.count!r}")
        if self.target is not None:
            if self.device != CONTROL_DEVICE:
                raise FaultInjectionError(
                    f"target is a control-plane concept; device {self.device!r} "
                    f"faults hit the whole device (got target={self.target!r})"
                )
            if not isinstance(self.target, int) or self.target < 0:
                raise FaultInjectionError(
                    f"target must be a node id >= 0 or None, got {self.target!r}"
                )

    @property
    def end_s(self) -> float:
        """Window end (exclusive)."""
        return self.start_s + self.duration_s

    @property
    def silent(self) -> bool:
        """True if this fault corrupts data instead of raising."""
        return self.kind in SILENT_KINDS_BY_DEVICE[self.device]

    def describe(self) -> str:
        """One-line human summary."""
        budget = "∞" if self.count is None else str(self.count)
        where = f" node{self.target}" if self.target is not None else ""
        return (
            f"{self.device}/{self.kind}{where} @ [{self.start_s:.2f}, {self.end_s:.2f})s "
            f"x{budget}"
        )


class FaultPlan:
    """An ordered, immutable campaign of fault windows.

    Parameters
    ----------
    specs:
        The fault windows, matched in the given order when an access could
        satisfy several.
    seed:
        The seed the campaign was generated from, if any — carried for
        reporting only; the plan itself is already fully deterministic.
    name:
        Campaign label for reports.
    """

    def __init__(self, specs: Sequence[FaultSpec], *, seed: Optional[int] = None, name: str = "campaign"):
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        self.name = name

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def describe(self) -> str:
        """Multi-line summary of the campaign."""
        seed = f" (seed {self.seed})" if self.seed is not None else ""
        head = f"{self.name}{seed}: {len(self.specs)} fault windows"
        return "\n".join([head, *(f"  {spec.describe()}" for spec in self.specs)])

    @classmethod
    def generate(
        cls,
        seed: int,
        *,
        horizon_s: float = 20.0,
        n_faults: int = 8,
        name: str = "generated",
    ) -> "FaultPlan":
        """Draw a fully random campaign from a seed.

        Every device/kind pair is equally likely; windows are uniform over
        the horizon with ~0.5 s durations and small injection budgets. The
        same ``(seed, horizon_s, n_faults)`` triple always produces the
        same plan.
        """
        if horizon_s <= 0:
            raise FaultInjectionError(f"horizon must be positive, got {horizon_s!r}")
        if n_faults < 1:
            raise FaultInjectionError(f"n_faults must be >= 1, got {n_faults!r}")
        rng = spawn_generator(seed)
        pairs = [(d, k) for d in HUB_DEVICES for k in FAULT_KINDS[d]]
        specs = []
        for _ in range(n_faults):
            device, kind = pairs[int(rng.integers(len(pairs)))]
            start = float(rng.uniform(0.05, 0.9) * horizon_s)
            duration = float(rng.uniform(0.2, 0.8))
            count = int(rng.integers(1, 4))
            specs.append(FaultSpec(device, kind, round(start, 3), round(duration, 3), count))
        specs.sort(key=lambda s: s.start_s)
        return cls(specs, seed=seed, name=name)


def standard_campaign(seed: int = 1, *, horizon_s: float = 20.0) -> FaultPlan:
    """The resilience experiment's standard fault mix.

    One window per fault family, anchored at fixed fractions of the horizon
    with a small seed-driven jitter (±2 % of the horizon), so different
    seeds probe different alignments against governor cycles while keeping
    the campaign's shape comparable across systems and runtimes:

    * transient MSR read failures early on (hits the UPS per-core sweep),
    * PCM sample dropouts (hits the MAGUS throughput read),
    * a fixed-counter wrap mid-run (silent; UPS must delta modulo 2^48),
    * a RAPL read failure and a later RAPL register-reset glitch,
    * one actuation-write failure,
    * two sustained outages — every PCM read failing for a stretch, then
      every MSR read — long enough to exhaust any bounded retry budget, so
      whichever runtime depends on the dead device must fail safe and
      later re-arm,
    * a frozen PCM counter window near the end.
    """
    rng = spawn_generator(seed)

    def at(frac: float) -> float:
        return round(float((frac + rng.uniform(-0.02, 0.02)) * horizon_s), 3)

    win = round(horizon_s * 0.06, 3)
    outage = round(horizon_s * 0.08, 3)
    specs = (
        FaultSpec("msr", "read_error", at(0.12), win, count=2),
        FaultSpec("pcm", "dropout", at(0.22), win, count=2),
        FaultSpec("msr", "wrap", at(0.32), 0.0, count=1),
        FaultSpec("rapl", "read_error", at(0.40), win, count=1),
        FaultSpec("actuation", "write_error", at(0.48), win, count=1),
        FaultSpec("pcm", "dropout", at(0.56), outage, count=None),
        FaultSpec("msr", "read_error", at(0.68), outage, count=None),
        FaultSpec("rapl", "glitch", at(0.78), win, count=1),
        FaultSpec("pcm", "freeze", at(0.86), round(horizon_s * 0.05, 3), count=1),
    )
    return FaultPlan(specs, seed=seed, name="standard")


def silent_campaign(seed: int = 1, *, horizon_s: float = 20.0) -> FaultPlan:
    """A campaign of *only silent* corruption windows, for detection scoring.

    Every window is a fault that never raises — the supervised runtime is
    blind to all of them, so any detection must come from the telemetry
    guard.  Windows are anchored at fixed fractions of the horizon with a
    small seed-driven jitter (±1 % of the horizon) and sized at 9 % of the
    horizon (~1.8 s at the default horizon — several governor decision
    periods, matching the CI gate on sustained ``stuck``/``freeze``
    faults), except the trailing actuation window, which is longer because
    actuations are sparse.  Value-corruption kinds run with an unlimited
    budget so every access in the window is corrupted.
    """
    rng = spawn_generator(seed)

    def at(frac: float) -> float:
        return round(float((frac + rng.uniform(-0.01, 0.01)) * horizon_s), 3)

    win = round(horizon_s * 0.09, 3)
    specs = (
        FaultSpec("pcm", "freeze", at(0.08), win, count=1),
        FaultSpec("pcm", "stuck", at(0.20), win, count=None),
        FaultSpec("pcm", "spike", at(0.32), win, count=None),
        FaultSpec("msr", "stuck", at(0.44), win, count=None),
        FaultSpec("msr", "bias", at(0.56), win, count=None),
        FaultSpec("rapl", "stuck", at(0.08), win, count=None),
        FaultSpec("rapl", "spike", at(0.32), win, count=None),
        FaultSpec("rapl", "drift", at(0.68), win, count=None),
        FaultSpec("pcm", "drift", at(0.68), win, count=None),
        FaultSpec("actuation", "write_ignored", at(0.80), round(horizon_s * 0.15, 3), count=None),
    )
    return FaultPlan(specs, seed=seed, name="silent")


def coordinated_campaign(
    seed: int = 1, *, horizon_s: float = 60.0, n_nodes: int = 3
) -> FaultPlan:
    """The control-plane chaos campaign for the cluster budget coordinator.

    One window per control-plane fault family, anchored at fixed fractions
    of the horizon with a small seed-driven jitter (±1 % of the horizon),
    targeting nodes round-robin so every failure mode lands on a live
    node:

    * a fleet-wide heartbeat-loss stretch (telemetry goes dark, leases
      must coast then decay),
    * delayed and reordered heartbeat windows (stale/out-of-order demand),
    * a one-way **downlink** partition long enough to outlive a lease, so
      the cut-off node must self-revert to the safe floor,
    * a coordinator crash-restart (journal replay + quarantine epoch),
    * a one-way **uplink** partition (the coordinator must reclaim the
      silent node's headroom only after its lease provably expired),
    * a stale-grant replay burst the node must reject by sequence number.

    Partition windows are sized at 18 % / 12 % of the horizon, so with the
    default coordinator timing (3 s leases on a 60 s horizon) every
    partition comfortably outlives a lease duration.
    """
    if n_nodes < 1:
        raise FaultInjectionError(f"n_nodes must be >= 1, got {n_nodes!r}")
    rng = spawn_generator(seed)

    def at(frac: float) -> float:
        return round(float((frac + rng.uniform(-0.01, 0.01)) * horizon_s), 3)

    win = round(horizon_s * 0.08, 3)
    specs = (
        FaultSpec("control", "heartbeat_drop", at(0.08), win, count=None),
        FaultSpec("control", "heartbeat_delay", at(0.20), win, count=None),
        FaultSpec("control", "heartbeat_reorder", at(0.30), round(horizon_s * 0.06, 3), count=None),
        FaultSpec(
            "control", "partition_downlink", at(0.40), round(horizon_s * 0.18, 3),
            count=None, target=1 % n_nodes,
        ),
        FaultSpec("control", "coordinator_crash", at(0.62), round(horizon_s * 0.04, 3), count=1),
        FaultSpec(
            "control", "partition_uplink", at(0.72), round(horizon_s * 0.12, 3),
            count=None, target=2 % n_nodes,
        ),
        FaultSpec("control", "grant_replay", at(0.90), round(horizon_s * 0.05, 3), count=3, target=0),
    )
    return FaultPlan(specs, seed=seed, name="coordinated")


def uplink_campaign(
    seed: int = 1, *, horizon_s: float = 60.0, n_nodes: int = 3
) -> FaultPlan:
    """A single sustained one-way uplink partition, for the alert gate.

    One node goes silent toward the coordinator for 40 % of the horizon
    (anchored at 30 % with ±1 % seed jitter) while its workload keeps
    running.  The partition comfortably outlives the lease duration *and*
    the alerting burn-rate window, so the coordinator provably reclaims
    the node's headroom (its cap decays to the safe floor) and the
    ``repro.alert.fleet.node_starved`` page-severity burn-rate alert MUST
    fire — which is exactly what the CI ``alert-gate`` job asserts.  The
    same gate's zero-fault leg asserts the page stays silent.
    """
    if n_nodes < 1:
        raise FaultInjectionError(f"n_nodes must be >= 1, got {n_nodes!r}")
    rng = spawn_generator(seed)
    start = round(float((0.30 + rng.uniform(-0.01, 0.01)) * horizon_s), 3)
    spec = FaultSpec(
        "control",
        "partition_uplink",
        start,
        round(horizon_s * 0.40, 3),
        count=None,
        target=1 % n_nodes,
    )
    return FaultPlan((spec,), seed=seed, name="uplink")
