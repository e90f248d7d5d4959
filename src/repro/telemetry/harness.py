"""Telemetry harness: drive measured traffic bursts and counter sweeps.

Shared by ``repro perf``, ``repro top`` and the chaos runner's telemetry
mode: inject an all-to-all burst on the *current* hardware LFTs, sweep the
counters through the MAD plane, and accumulate the delivered flows into a
:class:`~repro.telemetry.analytics.TrafficMatrix`.

Every burst builds a **fresh** :class:`~repro.sim.dataplane.DataPlaneSimulator`
so topology mutations between bursts (a link that died, a reroute that
landed) are visible to the traffic — the property that makes flap windows
show up as discards on the dead link's ports.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.hub import get_hub
from repro.sim.dataplane import DataPlaneSimulator, DataPlaneStats
from repro.telemetry.analytics import TrafficMatrix
from repro.telemetry.perf import PerfManager
from repro.workloads.traffic import all_to_all_flows

__all__ = ["TelemetryHarness"]


class TelemetryHarness:
    """Bursts + sweeps over one subnet, with an accumulated traffic matrix."""

    def __init__(
        self,
        sm,
        *,
        perf: Optional[PerfManager] = None,
        endpoints: Optional[Sequence[int]] = None,
        max_endpoints: int = 12,
        channel_credits: int = 2,
        hop_time: float = 1e-6,
        hoq_timeout: float = 1e-3,
        packet_bytes: int = 256,
        spacing: float = 1e-7,
    ) -> None:
        if max_endpoints < 2:
            raise ReproError("a burst needs at least two endpoints")
        self.sm = sm
        self.perf = perf if perf is not None else PerfManager(sm)
        self._endpoints = list(endpoints) if endpoints is not None else None
        self.max_endpoints = max_endpoints
        self.channel_credits = channel_credits
        self.hop_time = hop_time
        self.hoq_timeout = hoq_timeout
        self.packet_bytes = packet_bytes
        self.spacing = spacing
        self.matrix = TrafficMatrix()
        #: Per-burst outcome stats, burst order.
        self.bursts: List[DataPlaneStats] = []

    # -- endpoints -----------------------------------------------------------

    def endpoints(self) -> List[int]:
        """The burst endpoints: explicit list, else the first HCA LIDs."""
        if self._endpoints is not None:
            return list(self._endpoints)
        lids = sorted(
            h.lid for h in self.sm.topology.hcas if h.lid is not None
        )
        if len(lids) < 2:
            raise ReproError("fewer than two addressable endpoints")
        return lids[: self.max_endpoints]

    def set_endpoints(self, lids: Sequence[int]) -> None:
        """Pin the endpoint set (e.g. to VM LIDs)."""
        self._endpoints = list(lids)

    # -- driving -------------------------------------------------------------

    def burst(
        self, flows: Optional[List[Tuple[int, int]]] = None
    ) -> DataPlaneStats:
        """Run one burst on a fresh simulator; fold flows into the matrix."""
        sim = DataPlaneSimulator(
            self.sm.topology,
            channel_credits=self.channel_credits,
            hop_time=self.hop_time,
            hoq_timeout=self.hoq_timeout,
            packet_bytes=self.packet_bytes,
        )
        sim.inject_flows(
            flows if flows is not None else all_to_all_flows(self.endpoints()),
            spacing=self.spacing,
        )
        stats = sim.run()
        # The burst occupied fabric time: fold the data-plane clock into
        # the hub's sim clock so sweep timestamps (and windowed rates)
        # span the traffic interval, not just MAD latencies.
        get_hub().advance(sim.engine.now)
        self.bursts.append(stats)
        self.matrix.add(stats.flows)
        return stats

    def sweep(self):
        """One PerfManager sweep (costed MADs through the SM's sender)."""
        return self.perf.sweep()

    # -- accumulated outcomes -------------------------------------------------

    @property
    def store(self):
        """The PerfManager's time-series store."""
        return self.perf.store

    @property
    def injected(self) -> int:
        """Packets injected across all bursts."""
        return sum(b.injected for b in self.bursts)

    @property
    def delivered(self) -> int:
        """Packets delivered across all bursts (== ``matrix.total``)."""
        return sum(b.delivered for b in self.bursts)

    @property
    def dropped_timeout(self) -> int:
        """HOQ-lifetime drops across all bursts."""
        return sum(b.dropped_timeout for b in self.bursts)

    @property
    def dropped_no_route(self) -> int:
        """Dead-port drops across all bursts."""
        return sum(b.dropped_no_route for b in self.bursts)

    @property
    def dropped_port255(self) -> int:
        """Drop-port (LFT entry 255) drops across all bursts."""
        return sum(b.dropped_port255 for b in self.bursts)

    def verify_matrix(self) -> bool:
        """Row sums must reproduce the delivered-packet totals exactly."""
        return (
            self.matrix.total == self.delivered
            and sum(self.matrix.row_sum(lid) for lid in self.matrix.endpoints)
            == self.delivered
        )
