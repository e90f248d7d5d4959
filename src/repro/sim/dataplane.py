"""Flow-level data-plane simulation with credit-based flow control.

Lossless IB links use credit-based flow control: a packet may only advance
when the next channel has a free buffer credit, and it keeps holding its
current channel's credit until it does. That hold-and-wait is what makes
routing deadlocks real (section VI-C): a cycle of packets each holding one
channel and waiting for the next never progresses and is only broken by the
IB **head-of-queue lifetime timeout**, which drops the stuck packet.

This simulator executes that model on the *hardware* LFTs of a topology:

* packets consult each switch's current LFT on arrival, so a reconfiguration
  performed mid-flight (a LID swap during traffic) affects in-flight packets
  exactly as it would on real switches;
* every inter-switch channel has a configurable credit count;
* a packet that waits longer than ``hoq_timeout`` is dropped and its held
  credit released — reproducing the paper's "deadlocks ... will be resolved
  by IB timeouts".

It is a flow-control-faithful, bandwidth-abstract model: serialization time
is folded into the per-hop latency, which is all the reconfiguration
experiments need.

The kernel is struct-of-arrays: a packet is an index into parallel lists,
a channel a dense id into another set, and each of the three fixed-delay
event kinds (arrival from the host, arrival over a hop, HOQ expiry) rides
one :class:`~repro.sim.engine.Lane` of the engine with one handler. The
order of events is exactly that of one closure per event on a single heap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.constants import LFT_DROP_PORT, LFT_UNSET
from repro.errors import SimulationError
from repro.fabric.node import Port, PortCounters, Switch
from repro.fabric.topology import Topology
from repro.sim.engine import SimulationEngine

__all__ = ["DataPlaneStats", "DataPlaneSimulator"]

#: ``next switch`` of a channel that ends at an HCA (delivery) ...
_HOST = -1
#: ... and of one whose port has no live peer (a cable that died after
#: the tables were computed).
_DEAD = -2
#: The counter slots of a dead channel: it transmits nothing, so they are
#: never read (its expiry charges the switch port it points at).
_NOWHERE = PortCounters()


@dataclass
class DataPlaneStats:
    """Outcome counters of one data-plane run.

    ``dropped_by_port`` attributes every drop to the switch port whose
    forwarding decision caused it, keyed ``(switch_name, out_port,
    reason)`` with reason one of ``timeout`` (HOQ lifetime), ``no_route``
    (unset or dead-port LFT entry) and ``port255`` (intentional
    invalidation, section VI-C) — the per-cause view telemetry discard
    counters and the static analyzer's LFT002 findings cross-check
    against. ``flows`` counts *delivered* packets per (src LID, dst LID)
    pair; its total equals ``delivered`` exactly, which is what makes a
    measured traffic matrix auditable against this struct.
    """

    injected: int = 0
    delivered: int = 0
    dropped_no_route: int = 0
    dropped_timeout: int = 0
    dropped_port255: int = 0
    latencies: List[float] = field(default_factory=list)
    dropped_by_port: Dict[Tuple[str, int, str], int] = field(
        default_factory=dict
    )
    flows: Dict[Tuple[int, int], int] = field(default_factory=dict)

    @property
    def in_flight(self) -> int:
        """Packets not yet accounted as delivered or dropped."""
        return (
            self.injected
            - self.delivered
            - self.dropped_no_route
            - self.dropped_timeout
            - self.dropped_port255
        )


class DataPlaneSimulator:
    """Drives packets across a topology's switches under credit flow control."""

    def __init__(
        self,
        topology: Topology,
        *,
        engine: Optional[SimulationEngine] = None,
        channel_credits: int = 1,
        hop_time: float = 1e-6,
        hoq_timeout: float = 1e-3,
        lid_to_vl: Optional[Dict[int, int]] = None,
        packet_bytes: int = 256,
    ) -> None:
        if channel_credits < 1:
            raise SimulationError("channels need at least one credit")
        if hop_time <= 0 or hoq_timeout <= 0:
            raise SimulationError("hop_time and hoq_timeout must be positive")
        if packet_bytes < 1:
            raise SimulationError("packet_bytes must be positive")
        self.topology = topology
        self.engine = engine or SimulationEngine()
        self.channel_credits = channel_credits
        self.hop_time = hop_time
        self.hoq_timeout = hoq_timeout
        #: Octets charged to the PMA data counters per packet (the model
        #: is bandwidth-abstract; a fixed MTU-sized payload keeps byte
        #: counters proportional to packet counters).
        self.packet_bytes = packet_bytes
        #: Destination LID -> virtual lane. Each VL has its own credit pool
        #: per physical channel, so traffic on different lanes never blocks
        #: each other — the mechanism behind DFSSSP/LASH deadlock freedom.
        #: Missing LIDs ride VL 0.
        self.lid_to_vl = dict(lid_to_vl or {})
        self.stats = DataPlaneStats()

        # Static maps from the physical graph.
        self._switches = topology.switches
        #: A packet is dropped as a runaway loop past this many hops.
        self._max_hops = 4 * max(len(self._switches), 1)
        #: (switch, out port) -> (next switch or _HOST, the far Port).
        self._peer: Dict[Tuple[int, int], Tuple[int, Port]] = {}
        for sw in self._switches:
            for port in sw.connected_ports():
                peer = port.remote
                if peer is None:
                    raise port.no_far_end()
                nxt = peer.node.index if isinstance(peer.node, Switch) else _HOST
                self._peer[(sw.index, port.num)] = (nxt, peer)

        # Channels, dense ids keyed (switch, out port, VL) on first use:
        # each VL gets its own credit pool on every physical link.
        self._channel_of: Dict[Tuple[int, int, int], int] = {}
        self._port_of: List[int] = []
        self._next: List[int] = []
        self._credits: List[int] = []
        self._waiters: List[Deque[int]] = []
        self._egress: List[PortCounters] = []
        self._ingress: List[PortCounters] = []

        # Packets, indexed by packet id.
        self._src: List[int] = []
        self._dst: List[int] = []
        self._vl: List[int] = []
        #: (HCA port, leaf port) the packet leaves its host through.
        self._origin: List[Tuple[Port, Port]] = []
        self._inject_time: List[float] = []
        self._at: List[int] = []
        #: The channel whose credit the packet holds (-1: none — still at
        #: the source host, or delivered).
        self._held: List[int] = []
        #: Sim time the packet joined a channel's waiter queue (None when
        #: not blocked) — the source of the PortXmitWait counter.
        self._wait_start: List[Optional[float]] = []
        self._hops: List[int] = []

        engine = self.engine
        self._arrivals = engine.lane(self._on_arrival)
        self._hop_arrivals = engine.lane(self._on_hop)
        self._expiries = engine.lane(self._on_expiry)

    # -- injection -----------------------------------------------------------

    def inject(self, src_lid: int, dst_lid: int, *, delay: float = 0.0) -> int:
        """Inject one packet from the host holding *src_lid*; returns its
        packet index."""
        return self._inject([(src_lid, dst_lid)], [delay])[0]

    def inject_flows(
        self, flows: List[Tuple[int, int]], *, spacing: float = 0.0
    ) -> range:
        """Inject a list of (src_lid, dst_lid) flows, optionally staggered;
        returns the packet indices."""
        if spacing < 0:
            raise SimulationError(f"negative injection spacing {spacing}")
        return self._inject(flows, [i * spacing for i in range(len(flows))])

    def _inject(
        self, flows: List[Tuple[int, int]], delays: Sequence[float]
    ) -> range:
        # Sources and delays are checked before anything is booked.
        sources = dict.fromkeys(src for src, _ in flows)
        edges = {src: self._edge_of(src) for src in sources}
        first, now = len(self._dst), self.engine.now
        packets = range(first, first + len(flows))
        self._arrivals.extend(delays, packets)
        self._src.extend(src for src, _ in flows)
        self._dst.extend(dst for _, dst in flows)
        self._vl.extend(self.lid_to_vl.get(dst, 0) for _, dst in flows)
        self._origin.extend(edges[src] for src, _ in flows)
        self._at.extend(edges[src][1].node.index for src, _ in flows)
        self._inject_time.extend(now + delay for delay in delays)
        self._held.extend([-1] * len(flows))
        self._wait_start.extend([None] * len(flows))
        self._hops.extend([0] * len(flows))
        self.stats.injected += len(flows)
        return packets

    def _edge_of(self, src_lid: int) -> Tuple[Port, Port]:
        port = self.topology.port_of_lid(src_lid)
        if port is None or port.remote is None:
            raise SimulationError(f"source LID {src_lid} is not attached")
        if not isinstance(port.remote.node, Switch):
            raise SimulationError(f"source LID {src_lid} not behind a switch")
        return port, port.remote

    def run(self, *, until: Optional[float] = None) -> DataPlaneStats:
        """Run the event loop to completion (or *until*)."""
        self.engine.run(until=until)
        return self.stats

    # -- events --------------------------------------------------------------

    def _on_arrival(self, pkt: int) -> None:
        """The packet left its host: count the host edge, then forward."""
        host, entry = self._origin[pkt]
        self._cross(
            host.node.port_counters(host.num), entry.node.port_counters(entry.num)
        )
        self._forward(pkt)

    def _on_hop(self, crossing: Tuple[int, int]) -> None:
        """The packet crossed a channel: release the old one, then forward."""
        pkt, channel = crossing
        self._release_held(pkt)
        self._held[pkt] = channel
        self._at[pkt] = self._next[channel]
        hops = self._hops[pkt] = self._hops[pkt] + 1
        if hops > self._max_hops:
            self._drop(pkt, "timeout", None)  # runaway loop guard
            return
        self._forward(pkt)

    def _on_expiry(self, hold: Tuple[int, int, int]) -> None:
        """A head-of-queue lifetime ran out: drop the packet if it is still
        where it was (the IB timeout that resolves deadlocks)."""
        pkt, hops, channel = hold
        if self._hops[pkt] != hops:
            return
        port = self._port_of[channel]
        if self._next[channel] == _DEAD:
            # The port transmits nothing: the packet sat at the head of
            # its queue for the whole lifetime — charged as xmit-wait —
            # and is discarded as unroutable.
            sw = self._switches[self._at[pkt]]
            sw.port_counters(port).add_wait(self.hoq_timeout)
            self._drop(pkt, "no_route", port)
        elif self._wait_start[pkt] is not None:
            self._waiters[channel].remove(pkt)
            # The full lifetime was spent blocked on this port.
            self._egress[channel].add_wait(self.hoq_timeout)
            self._wait_start[pkt] = None
            self._drop(pkt, "timeout", port)

    # -- movement ------------------------------------------------------------

    def _forward(self, pkt: int) -> None:
        """Packet sits at a switch: look up the LFT and try to advance."""
        at = self._at[pkt]
        out = self._switches[at].lft.get(self._dst[pkt])
        if out == LFT_DROP_PORT or out == LFT_UNSET:
            # Port 255 / unprogrammed: the partially-static reconfiguration
            # of section VI-C intentionally drops this traffic.
            self._drop(pkt, "port255" if out == LFT_DROP_PORT else "no_route", 0)
            return
        key = (at, out, self._vl[pkt])
        channel = self._channel_of.get(key)
        if channel is None:
            channel = self._open(key)
        nxt = self._next[channel]
        if nxt == _HOST:
            self._deliver(pkt, channel)
        elif nxt >= 0 and self._credits[channel] > 0:
            self._credits[channel] -= 1
            self._advance(pkt, channel)
        else:
            # No credit, or a dead port: the packet holds the head of the
            # queue until a credit comes back or its lifetime runs out.
            if nxt >= 0:
                self._waiters[channel].append(pkt)
                self._wait_start[pkt] = self.engine.now
            self._expiries.push(self.hoq_timeout, (pkt, self._hops[pkt], channel))

    def _open(self, key: Tuple[int, int, int]) -> int:
        """Give (switch, out port, VL) a channel id. A live port's counter
        pair is fetched now: the packet that opened it crosses at once."""
        at, out, _ = key
        channel = self._channel_of[key] = len(self._next)
        peer = self._peer.get((at, out))
        self._port_of.append(out)
        self._credits.append(self.channel_credits)
        self._waiters.append(deque())
        if peer is None:
            self._next.append(_DEAD)
            self._egress.append(_NOWHERE)
            self._ingress.append(_NOWHERE)
            return channel
        nxt, far = peer
        self._next.append(nxt)
        self._egress.append(self._switches[at].port_counters(out))
        self._ingress.append(far.node.port_counters(far.num))
        return channel

    def _advance(self, pkt: int, channel: int) -> None:
        """Credit acquired: cross the channel (the old one is released on
        arrival)."""
        wait_start = self._wait_start[pkt]
        if wait_start is not None:
            # The packet queued for this credit: the blocked interval is
            # the egress port's PortXmitWait.
            self._egress[channel].add_wait(self.engine.now - wait_start)
            self._wait_start[pkt] = None
        self._cross(self._egress[channel], self._ingress[channel])
        self._hop_arrivals.push(self.hop_time, (pkt, channel))

    def _cross(self, tx: PortCounters, rx: PortCounters) -> None:
        """PMA counters of one packet on a cable: transmit, then receive."""
        tx.xmit_packets += 1
        tx.xmit_data += self.packet_bytes
        rx.rcv_packets += 1
        rx.rcv_data += self.packet_bytes

    def _release_held(self, pkt: int) -> None:
        if self._held[pkt] >= 0:
            self._release(self._held[pkt])
            self._held[pkt] = -1

    def _release(self, channel: int) -> None:
        """Return a credit, or hand it straight to the first waiter."""
        waiters = self._waiters[channel]
        if waiters:
            self._advance(waiters.popleft(), channel)
        else:
            self._credits[channel] += 1

    def _deliver(self, pkt: int, channel: int) -> None:
        self._release_held(pkt)
        # Host edge: transmit on the leaf's port, receive on the HCA port.
        self._cross(self._egress[channel], self._ingress[channel])
        stats = self.stats
        stats.delivered += 1
        flow = (self._src[pkt], self._dst[pkt])
        stats.flows[flow] = stats.flows.get(flow, 0) + 1
        stats.latencies.append(
            self.engine.now + self.hop_time - self._inject_time[pkt]
        )

    def _drop(self, pkt: int, reason: str, port: Optional[int]) -> None:
        sw = self._switches[self._at[pkt]]
        if port is None:
            out = sw.lft.get(self._dst[pkt])
            port = out if 0 <= out <= sw.num_ports else 0
        counters = sw.port_counters(port)
        if reason == "timeout":
            counters.hoq_discards += 1
        else:
            counters.unroutable_discards += 1
        stats = self.stats
        drop_key = (sw.name, port, reason)
        stats.dropped_by_port[drop_key] = stats.dropped_by_port.get(drop_key, 0) + 1
        self._release_held(pkt)
        if reason == "timeout":
            stats.dropped_timeout += 1
        elif reason == "port255":
            stats.dropped_port255 += 1
        else:
            stats.dropped_no_route += 1
