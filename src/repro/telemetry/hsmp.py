"""AMD HSMP-style mailbox interface — the §6.6 adaptation path.

AMD EPYC parts expose SoC/fabric management through the Host System
Management Port (HSMP): a per-socket mailbox the host kernel driver
(``amd_hsmp``) talks to with request/response transactions. Relevant here:

* **DDR bandwidth telemetry** — HSMP reports maximum, utilised and percent
  DDR bandwidth per socket. This is the AMD analogue of Intel PCM's system
  memory throughput: exactly one cheap query per socket, independent of
  core count, so MAGUS's single-counter design ports unchanged.
* **Fabric clock control** — recent parts accept fabric/SoC P-state
  requests. P-states are *coarse* (the node's uncore model is built with a
  0.4 GHz bin), and each mailbox transaction takes on the order of a
  millisecond — slower than an MSR write, but still O(sockets), not
  O(cores).

The mailbox protocol details (message IDs, argument packing) are modelled
at the transaction level; what the reproduction preserves is the cost
structure and the actuation granularity.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import TelemetryError
from repro.hw.node import HeterogeneousNode
from repro.hw.presets import TelemetryCosts
from repro.telemetry.sampling import AccessMeter

__all__ = ["HSMPDevice"]

#: One mailbox transaction: request write + poll + response read.
_MAILBOX_TIME_S = 1.2e-3
_MAILBOX_ENERGY_J = 8e-3


class HSMPDevice:
    """Per-socket HSMP mailbox over the simulated node.

    Parameters
    ----------
    node:
        The node; must have been built from an AMD preset (coarse fabric
        bins), though the device itself only needs the generic uncore API.
    costs:
        Preset cost model (used for the PCM-equivalent aggregation window).
    """

    def __init__(self, node: HeterogeneousNode, costs: TelemetryCosts):
        self.node = node
        self.costs = costs
        self._bytes_total = 0.0
        self._time_s = 0.0

    def on_tick(self, dt_s: float) -> None:
        """Integrate delivered DDR traffic for the bandwidth queries, over
        each tick of the node's latest step."""
        if dt_s <= 0:
            raise TelemetryError(f"dt must be positive, got {dt_s!r}")
        state = self.node.last_state
        if state is None:  # before the node's first step: one tick of nothing
            increment, ticks = 0.0, (dt_s,)
        else:
            increment, ticks = state.delivered_gbps * 1e9 * dt_s, state.tick_time_s
        total, time_s = self._bytes_total, self._time_s
        for _ in ticks:
            total += increment
            time_s += dt_s
        self._bytes_total, self._time_s = total, time_s

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def read_ddr_max_bandwidth_gbps(self, meter: Optional[AccessMeter] = None) -> float:
        """HSMP_GET_DDR_BANDWIDTH (theoretical max field)."""
        if meter is not None:
            meter.charge("hsmp_mailbox", _MAILBOX_TIME_S, _MAILBOX_ENERGY_J)
        return self.node.memory.peak_bw_gbps

    def read_ddr_utilization_pct(self, meter: Optional[AccessMeter] = None) -> float:
        """HSMP_GET_DDR_BANDWIDTH (utilisation-percent field)."""
        if meter is not None:
            meter.charge("hsmp_mailbox", _MAILBOX_TIME_S, _MAILBOX_ENERGY_J)
        state = self.node.last_state
        if state is None:
            return 0.0
        return 100.0 * state.delivered_gbps / self.node.memory.peak_bw_gbps

    def fabric_pstate_levels_ghz(self) -> List[float]:
        """The discrete fabric clocks the part supports (coarse bins)."""
        unc = self.node.uncore(0)
        levels = []
        f = unc.min_ghz
        while f <= unc.max_ghz + 1e-9:
            levels.append(round(f, 3))
            f += unc.bin_ghz
        return levels

    def read_fabric_clock_ghz(self, socket: int = 0, meter: Optional[AccessMeter] = None) -> float:
        """HSMP_GET_FCLK: the socket's current fabric clock target."""
        if meter is not None:
            meter.charge("hsmp_mailbox", _MAILBOX_TIME_S, _MAILBOX_ENERGY_J)
        return self.node.uncore(socket).target_ghz

    # ------------------------------------------------------------------
    # Actuation
    # ------------------------------------------------------------------
    def set_fabric_clock_ghz(
        self,
        freq_ghz: float,
        meter: Optional[AccessMeter] = None,
        *,
        delay_s: float = 0.0,
    ) -> float:
        """Request a fabric clock (HSMP_SET_PSTATE-style) on every socket.

        The request snaps to the part's coarse P-state grid; the snapped
        value is returned. One mailbox transaction per socket. ``delay_s``
        is a modeled P-state switch latency: the mailbox acknowledges
        immediately but the fabric adopts the new clock only after the
        delay (:meth:`~repro.hw.uncore.UncoreModel.request_target`).
        """
        if freq_ghz <= 0:
            raise TelemetryError(f"invalid fabric clock request {freq_ghz!r}")
        snapped = freq_ghz
        for s in range(self.node.n_sockets):
            if meter is not None:
                meter.charge("hsmp_mailbox", _MAILBOX_TIME_S, _MAILBOX_ENERGY_J)
            snapped = self.node.uncore(s).request_target(freq_ghz, delay_s=delay_s)
        return snapped
