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
a channel a dense id into another set. Each of the three fixed-delay event
kinds (arrival from the host, arrival over a hop, HOQ expiry) queues in its
own FIFO of ``(time, seq, ...)`` tuples, seqs drawn from the engine's one
counter, and :meth:`DataPlaneSimulator.run` is the one loop that merges the
FIFO heads with the engine heap's head. The order of events is exactly that
of one closure per event on a single heap.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import LFT_DROP_PORT
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
#: The head of an empty FIFO: later than every event.
_NEVER = (math.inf, math.inf)


@dataclass
class DataPlaneStats:
    """Outcome counters of one data-plane run.

    ``dropped_by_port`` attributes every drop to the switch port whose
    forwarding decision caused it, keyed ``(switch_name, out_port,
    reason)`` with reason one of ``timeout`` (HOQ lifetime spent waiting
    for a credit, or a runaway loop), ``no_route`` (HOQ lifetime spent at
    a dead port) and ``port255`` (the LFT entry is the drop port, charged
    to port 0: an intentional invalidation, section VI-C, and also an
    unprogrammed entry, since ``LFT_UNSET`` *is* the drop port) — the
    per-cause view telemetry discard counters and the static analyzer's
    LFT002 findings cross-check against. ``flows`` counts *delivered*
    packets per (src LID, dst LID) pair; its total equals ``delivered``
    exactly, which is what makes a measured traffic matrix auditable
    against this struct.
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
    """Drives packets across a topology's switches under credit flow control
    (in :meth:`run` only: ``engine.run()`` fires just the heap)."""

    def __init__(
        self,
        topology: Topology,
        *,
        engine: Optional[SimulationEngine] = None,
        channel_credits: int = 1,
        hop_time: float = 1e-6,
        hoq_timeout: float = 1e-3,
        lanes: Optional[np.ndarray] = None,
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
        #: The routing's lane plane (``RoutingTables.lanes``): a packet
        #: rides ``lanes[entry switch, dst]``. Each VL has its own credit
        #: pool per physical channel, so traffic on different lanes never
        #: blocks each other — the mechanism behind DFSSSP/LASH deadlock
        #: freedom. Without a plane, or from a cell without a lane, a
        #: packet rides VL 0.
        self.lanes = lanes
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
        #: Host edge (HCA port, leaf port) -> its (transmit, receive)
        #: counters, fetched on the first arrival over the edge. Kept per
        #: edge: a LID re-bound between injections leaves by its new edge.
        self._edge_counters: Dict[Tuple[Port, Port], Tuple[PortCounters, PortCounters]] = {}

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

        # The event FIFOs, each sorted by (time, seq): host arrivals
        # (time, seq, packet), hop arrivals (time, seq, packet, channel) and
        # HOQ expiries (time, seq, packet, hop count, channel).
        self._arrivals: Deque[Tuple[float, int, int]] = deque()
        self._hop_arrivals: Deque[Tuple[float, int, int, int]] = deque()
        self._expiries: Deque[Tuple[float, int, int, int, int]] = deque()

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
        edges = {src: self._edge_of(src) for src in dict.fromkeys(src for src, _ in flows)}
        if min(delays, default=0.0) < 0:
            raise SimulationError(f"cannot schedule {min(delays)}s in the past")
        now, first, count = self.engine.now, len(self._dst), len(flows)
        packets = range(first, first + count)
        whens = [now + delay for delay in delays]
        arrivals = self._arrivals
        late = bool(arrivals and whens) and whens[0] < arrivals[-1][0]
        arrivals.extend(zip(whens, self.engine._seq, packets))
        if late or whens != sorted(whens):
            # An early delay, or a burst behind a pending one: re-sorted by
            # (time, seq), which is exactly a heap's order.
            ordered = sorted(arrivals)
            arrivals.clear()
            arrivals.extend(ordered)
        origins = [edges[src] for src, _ in flows]
        self._src.extend([src for src, _ in flows])
        self._dst.extend([dst for _, dst in flows])
        self._vl.extend(
            [0] * count if self.lanes is None else self._lanes_of(flows, origins)
        )
        self._origin.extend(origins)
        self._at.extend([entry.node.index for _, entry in origins])
        self._inject_time.extend(whens)
        self._held.extend([-1] * count)
        self._wait_start.extend([None] * count)
        self._hops.extend([0] * count)
        self.stats.injected += count
        return packets

    def _lanes_of(
        self, flows: List[Tuple[int, int]], origins: List[Tuple[Port, Port]]
    ) -> List[int]:
        """Each flow's VL: its entry switch's lane cell toward *dst*."""
        lanes = self.lanes
        width = lanes.shape[1]
        return [
            max(int(lanes[entry.node.index, dst]), 0) if dst < width else 0
            for (_, dst), (_, entry) in zip(flows, origins)
        ]

    def _edge_of(self, src_lid: int) -> Tuple[Port, Port]:
        port = self.topology.port_of_lid(src_lid)
        if port is None or port.remote is None:
            raise SimulationError(f"source LID {src_lid} is not attached")
        if not isinstance(port.remote.node, Switch):
            raise SimulationError(f"source LID {src_lid} not behind a switch")
        return port, port.remote

    # -- the burst loop ------------------------------------------------------

    def run(self, *, until: Optional[float] = None) -> DataPlaneStats:
        """Run the event loop to completion (or *until*).

        Each step fires the smallest of the three FIFO heads and the engine
        heap's head by ``(time, seq)``: a heap event (a reconfiguration or
        a PerfManager sweep landing mid-flight) through
        :meth:`SimulationEngine.fire_head`, the data plane's own inline.
        An event counts in ``events_processed`` once its body has returned.
        """
        engine, stats = self.engine, self.stats
        heap, seq = engine._heap, engine._seq
        arrivals, hop_q, exp_q = self._arrivals, self._hop_arrivals, self._expiries
        flows, latencies, switches = stats.flows, stats.latencies, self._switches
        topology = self.topology
        src, dst, vl, origin, inject_time = self._src, self._dst, self._vl, self._origin, self._inject_time
        at, held, wait_start, hop_count = self._at, self._held, self._wait_start, self._hops
        channel_of, nxt_of, edge_counters = self._channel_of, self._next, self._edge_counters
        credits, waiters, egress, ingress = self._credits, self._waiters, self._egress, self._ingress
        hop_time, hoq, nbytes = self.hop_time, self.hoq_timeout, self.packet_bytes
        now, events, max_hops = engine.now, engine.events_processed, self._max_hops
        head: Tuple[Any, ...]
        queue: Optional[Deque[Any]]
        with engine.running(until) as horizon:
            try:
                while True:
                    head, queue = (arrivals[0] if arrivals else _NEVER), arrivals
                    if hop_q and hop_q[0] < head:
                        head, queue = hop_q[0], hop_q
                    if exp_q and exp_q[0] < head:
                        head, queue = exp_q[0], exp_q
                    if heap and heap[0] < head:
                        head, queue = heap[0], None
                    if head is _NEVER:
                        break
                    now = head[0]
                    if now > horizon:
                        now = horizon
                        break
                    events += 1  # taken back below if the body raises
                    if queue is None:
                        engine.fire_head()
                        continue
                    queue.popleft()
                    pkt = head[2]
                    if queue is exp_q:
                        # A head-of-queue lifetime ran out: drop the packet if
                        # it is still where it was (the IB timeout that
                        # resolves deadlocks).
                        if hop_count[pkt] != head[3]:
                            continue
                        channel = head[4]
                        if nxt_of[channel] == _DEAD:
                            # Nothing leaves a dead port: the whole lifetime
                            # is xmit-wait, then the packet is discarded.
                            port = self._port_of[channel]
                            switches[at[pkt]].port_counters(port).add_wait(hoq)
                            self._drop(pkt, "no_route", port)
                        elif wait_start[pkt] is not None:
                            waiters[channel].remove(pkt)
                            egress[channel].add_wait(hoq)
                            wait_start[pkt] = None
                            self._drop(pkt, "timeout", self._port_of[channel])
                        else:
                            continue
                    else:
                        if queue is hop_q:
                            # The packet crossed a channel: it holds that
                            # one's credit now and frees the one it held.
                            channel = head[3]
                            freed, held[pkt] = held[pkt], channel
                            if freed >= 0:
                                if waiters[freed]:
                                    self._grant(freed, now)
                                else:
                                    credits[freed] += 1
                            here = at[pkt] = nxt_of[channel]
                            hops = hop_count[pkt] = hop_count[pkt] + 1
                        else:
                            # The packet left its host: count the host edge.
                            ends = origin[pkt]
                            pair = edge_counters.get(ends)
                            if pair is None:
                                host, entry = ends
                                pair = edge_counters[ends] = (
                                    host.node.port_counters(host.num),
                                    entry.node.port_counters(entry.num),
                                )
                            tx, rx = pair
                            tx.xmit_packets += 1
                            tx.xmit_data += nbytes
                            rx.rcv_packets += 1
                            rx.rcv_data += nbytes
                            here, hops = at[pkt], 0
                        if hops > max_hops:
                            self._drop(pkt, "timeout", None)  # runaway loop guard
                        else:
                            # At a switch: its LFT row, read live (an event may
                            # widen the store); a LID beyond it is unprogrammed.
                            lid, lft = dst[pkt], topology._lft
                            try:
                                out = lft.item(here, lid) if lid >= 0 else switches[here].route(lid)
                            except IndexError:
                                out = LFT_DROP_PORT
                            if out == LFT_DROP_PORT:
                                # Port 255 — also what an unprogrammed entry
                                # holds: section VI-C's drop.
                                self._drop(pkt, "port255", 0)
                            else:
                                key = (here, out, vl[pkt])
                                channel = channel_of.get(key)
                                if channel is None:
                                    channel = self._open(key)
                                nxt = nxt_of[channel]
                                if nxt == _DEAD or nxt >= 0 and not credits[channel]:
                                    # The packet holds the head of the queue
                                    # until a credit comes back or its
                                    # lifetime ends.
                                    if nxt >= 0:
                                        waiters[channel].append(pkt)
                                        wait_start[pkt] = now
                                    exp_q.append((now + hoq, next(seq), pkt, hops, channel))
                                    continue
                                tx, rx = egress[channel], ingress[channel]
                                tx.xmit_packets += 1
                                tx.xmit_data += nbytes
                                rx.rcv_packets += 1
                                rx.rcv_data += nbytes
                                if nxt >= 0:
                                    # Credit acquired: the held one is freed
                                    # on arrival.
                                    credits[channel] -= 1
                                    hop_q.append((now + hop_time, next(seq), pkt, channel))
                                    continue
                                stats.delivered += 1
                                flow = (src[pkt], lid)
                                flows[flow] = flows.get(flow, 0) + 1
                                latencies.append(now + hop_time - inject_time[pkt])
                    # Delivered or dropped: free the held credit.
                    freed, held[pkt] = held[pkt], -1
                    if freed >= 0:
                        if waiters[freed]:
                            self._grant(freed, now)
                        else:
                            credits[freed] += 1
            except BaseException:
                events -= 1
                raise
            finally:
                engine._now, engine.events_processed = now, events
        return stats

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

    def _grant(self, channel: int, now: float) -> None:
        """Hand a freed credit straight to the channel's first waiter: it
        crosses now, and its blocked interval is the egress PortXmitWait."""
        waiter = self._waiters[channel].popleft()
        tx, rx = self._egress[channel], self._ingress[channel]
        tx.add_wait(now - self._wait_start[waiter])  # type: ignore[operator]
        self._wait_start[waiter] = None
        tx.xmit_packets += 1
        tx.xmit_data += self.packet_bytes
        rx.rcv_packets += 1
        rx.rcv_data += self.packet_bytes
        self._hop_arrivals.append((now + self.hop_time, next(self.engine._seq), waiter, channel))

    def _drop(self, pkt: int, reason: str, port: Optional[int]) -> None:
        """Count one drop at the packet's switch (the loop then frees its
        credit). *port* None charges the LFT's port for the destination."""
        sw = self._switches[self._at[pkt]]
        if port is None:
            out = sw.route(self._dst[pkt])
            port = out if 0 <= out <= sw.num_ports else 0
        counters, stats = sw.port_counters(port), self.stats
        if reason == "timeout":
            counters.hoq_discards += 1
            stats.dropped_timeout += 1
        else:
            counters.unroutable_discards += 1
            if reason == "port255":
                stats.dropped_port255 += 1
            else:
                stats.dropped_no_route += 1
        drop_key = (sw.name, port, reason)
        stats.dropped_by_port[drop_key] = stats.dropped_by_port.get(drop_key, 0) + 1
