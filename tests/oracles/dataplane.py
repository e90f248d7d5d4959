"""The closure data-plane simulator — oracle for the struct-of-arrays kernel.

One ``Packet`` object per packet and one closure per event on the engine's
heap (``arrive``, ``dead_port_drop``, ``maybe_timeout``), exactly as
``repro.sim.dataplane.DataPlaneSimulator`` was before its packets became
parallel lists and its events became tuples on the burst loop's own FIFOs.
It schedules through ``SimulationEngine.schedule`` only, so comparing the
two also holds the burst loop's merge of its FIFOs with the engine heap to
the plain heap order. Two changes from the original:
the ``label=`` keyword the engine no longer takes, and a rejected injection
(``delay < 0``, ``spacing < 0``) raises before anything is booked.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.constants import LFT_DROP_PORT, LFT_UNSET
from repro.errors import SimulationError
from repro.fabric.node import Switch
from repro.fabric.topology import Topology
from repro.sim.dataplane import DataPlaneStats
from repro.sim.engine import SimulationEngine

__all__ = ["Packet", "ClosureDataPlane"]

#: A directed inter-switch channel: (switch index, out port).
ChannelId = Tuple[int, int]


class Packet:
    """One packet in flight."""

    _ids = itertools.count(1)

    def __init__(self, src_lid: int, dst_lid: int, inject_time: float) -> None:
        self.id = next(self._ids)
        self.src_lid = src_lid
        self.dst_lid = dst_lid
        self.inject_time = inject_time
        #: The (switch, port, VL) channel whose credit this packet holds
        #: (None while still at the source host or after delivery).
        self.held: Optional[Tuple[int, int, int]] = None
        #: Switch index the packet currently sits at.
        self.at_switch: Optional[int] = None
        #: Sim time this packet joined a channel's waiter queue (None when
        #: not blocked) — the source of the PortXmitWait counter.
        self.wait_start: Optional[float] = None
        self.hops = 0
        self.dropped = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Packet#{self.id} {self.src_lid}->{self.dst_lid}>"


class _Channel:
    """Credit state of one directed inter-switch channel."""

    __slots__ = ("credits", "waiters")

    def __init__(self, credits: int) -> None:
        self.credits = credits
        self.waiters: Deque[Packet] = deque()


class ClosureDataPlane:
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
        self._p2p: Dict[ChannelId, int] = {}
        #: (switch, out port) -> in-port on the peer, for rcv counters.
        self._peer_port: Dict[ChannelId, int] = {}
        #: Delivery edges: (switch, out port) -> the HCA-side Port, so
        #: delivery can feed the host port's PMA receive counters.
        self._host_ports: Dict[ChannelId, object] = {}
        for sw in self._switches:
            for port in sw.connected_ports():
                peer = port.remote
                assert peer is not None
                key = (sw.index, port.num)
                if isinstance(peer.node, Switch):
                    self._p2p[key] = peer.node.index
                    self._peer_port[key] = peer.num
                else:
                    self._host_ports[key] = peer
        # Channels are keyed (switch, out port, VL) and created lazily:
        # each VL gets its own credit pool on every physical link.
        self._channels: Dict[Tuple[int, int, int], _Channel] = {}

    # -- injection -----------------------------------------------------------

    def inject(self, src_lid: int, dst_lid: int, *, delay: float = 0.0) -> Packet:
        """Inject one packet from the host holding *src_lid*."""
        port = self.topology.port_of_lid(src_lid)
        if port is None or port.remote is None:
            raise SimulationError(f"source LID {src_lid} is not attached")
        entry = port.remote
        if not isinstance(entry.node, Switch):
            raise SimulationError(f"source LID {src_lid} not behind a switch")
        if delay < 0:
            raise SimulationError(f"cannot inject {delay}s in the past")
        pkt = Packet(src_lid, dst_lid, 0.0)
        self.stats.injected += 1
        leaf = entry.node.index
        host_port, entry_port = port, entry

        def arrive() -> None:
            pkt.inject_time = self.engine.now
            pkt.at_switch = leaf
            # Host edge: transmit on the HCA port, receive on the leaf.
            hc = host_port.node.port_counters(host_port.num)
            hc.xmit_packets += 1
            hc.xmit_data += self.packet_bytes
            ec = entry_port.node.port_counters(entry_port.num)
            ec.rcv_packets += 1
            ec.rcv_data += self.packet_bytes
            self._forward(pkt)

        self.engine.schedule(delay, arrive)
        return pkt

    def inject_flows(
        self, flows: List[Tuple[int, int]], *, spacing: float = 0.0
    ) -> List[Packet]:
        """Inject a list of (src_lid, dst_lid) flows, optionally staggered."""
        if spacing < 0:
            raise SimulationError(f"negative injection spacing {spacing}")
        return [
            self.inject(s, d, delay=i * spacing)
            for i, (s, d) in enumerate(flows)
        ]

    def run(self, *, until: Optional[float] = None) -> DataPlaneStats:
        """Run the event loop to completion (or *until*)."""
        self.engine.run(until=until)
        return self.stats

    # -- movement ------------------------------------------------------------

    def _forward(self, pkt: Packet) -> None:
        """Packet sits at a switch: look up the LFT and try to advance."""
        if pkt.dropped:
            return
        assert pkt.at_switch is not None
        sw = self._switches[pkt.at_switch]
        out = sw.route(pkt.dst_lid)
        if out == LFT_DROP_PORT or out == LFT_UNSET:
            # Port 255 / unprogrammed: the partially-static reconfiguration
            # of section VI-C intentionally drops this traffic.
            self._drop(
                pkt,
                "port255" if out == LFT_DROP_PORT else "no_route",
                port=0,
            )
            return
        key = (pkt.at_switch, out)
        if key in self._host_ports:
            self._deliver(pkt, key)
            return
        if key not in self._p2p:
            # The LFT points at a port with no live peer (a cable that
            # died after the tables were computed): the port transmits
            # nothing, so the packet sits at the head of its queue for
            # the HOQ lifetime — charged as xmit-wait — and is then
            # discarded as unroutable.
            def dead_port_drop() -> None:
                if not pkt.dropped:
                    sw.port_counters(out).add_wait(self.hoq_timeout)
                    self._drop(pkt, "no_route", port=out)

            self.engine.schedule(self.hoq_timeout, dead_port_drop)
            return
        vl = self.lid_to_vl.get(pkt.dst_lid, 0)
        vkey = (key[0], key[1], vl)
        channel = self._channels.get(vkey)
        if channel is None:
            channel = self._channels[vkey] = _Channel(self.channel_credits)
        if channel.credits > 0:
            channel.credits -= 1
            self._advance(pkt, vkey)
        else:
            channel.waiters.append(pkt)
            pkt.wait_start = self.engine.now
            deadline_hops = pkt.hops

            def maybe_timeout() -> None:
                # Still waiting on the same channel after the head-of-queue
                # lifetime: drop (the IB timeout that resolves deadlocks).
                if (
                    not pkt.dropped
                    and pkt.hops == deadline_hops
                    and pkt in channel.waiters
                ):
                    channel.waiters.remove(pkt)
                    # The full lifetime was spent blocked on this port.
                    sw.port_counters(out).add_wait(self.hoq_timeout)
                    pkt.wait_start = None
                    self._drop(pkt, "timeout", port=out)

            self.engine.schedule(self.hoq_timeout, maybe_timeout)

    def _advance(self, pkt: Packet, channel_key: Tuple[int, int, int]) -> None:
        """Credit acquired: traverse the channel, then release the old one."""
        phys = channel_key[:2]
        nxt = self._p2p[phys]
        # PMA counters: transmit on the egress, receive on the far ingress.
        egress = self._switches[phys[0]].port_counters(phys[1])
        if pkt.wait_start is not None:
            # The packet queued for this credit: the blocked interval is
            # the egress port's PortXmitWait.
            egress.add_wait(self.engine.now - pkt.wait_start)
            pkt.wait_start = None
        egress.xmit_packets += 1
        egress.xmit_data += self.packet_bytes
        ingress = self._switches[nxt].port_counters(self._peer_port[phys])
        ingress.rcv_packets += 1
        ingress.rcv_data += self.packet_bytes

        def arrive() -> None:
            if pkt.dropped:
                self._release(channel_key)
                return
            self._release_held(pkt)
            pkt.held = channel_key
            pkt.at_switch = nxt
            pkt.hops += 1
            if pkt.hops > 4 * max(len(self._switches), 1):
                self._drop(pkt, "timeout")  # runaway loop guard
                return
            self._forward(pkt)

        self.engine.schedule(self.hop_time, arrive)

    def _release_held(self, pkt: Packet) -> None:
        if pkt.held is not None:
            self._release(pkt.held)
            pkt.held = None

    def _release(self, channel_key: Tuple[int, int, int]) -> None:
        """Return a credit and wake the first waiter, if any."""
        channel = self._channels[channel_key]
        if channel.waiters:
            waiter = channel.waiters.popleft()
            # Credit handed directly to the waiter.
            self._advance(waiter, channel_key)
        else:
            channel.credits += 1

    def _deliver(self, pkt: Packet, key: ChannelId) -> None:
        self._release_held(pkt)
        # Host edge: transmit on the leaf's port, receive on the HCA port.
        egress = self._switches[key[0]].port_counters(key[1])
        egress.xmit_packets += 1
        egress.xmit_data += self.packet_bytes
        host = self._host_ports[key]
        hc = host.node.port_counters(host.num)  # type: ignore[attr-defined]
        hc.rcv_packets += 1
        hc.rcv_data += self.packet_bytes
        self.stats.delivered += 1
        flow = (pkt.src_lid, pkt.dst_lid)
        self.stats.flows[flow] = self.stats.flows.get(flow, 0) + 1
        self.stats.latencies.append(
            self.engine.now + self.hop_time - pkt.inject_time
        )

    def _drop(
        self, pkt: Packet, reason: str, *, port: Optional[int] = None
    ) -> None:
        pkt.dropped = True
        if pkt.at_switch is not None:
            sw = self._switches[pkt.at_switch]
            if port is None:
                out = sw.route(pkt.dst_lid)
                port = out if 0 <= out <= sw.num_ports else 0
            counters = sw.port_counters(port)
            if reason == "timeout":
                counters.hoq_discards += 1
            else:
                counters.unroutable_discards += 1
            drop_key = (sw.name, port, reason)
            self.stats.dropped_by_port[drop_key] = (
                self.stats.dropped_by_port.get(drop_key, 0) + 1
            )
        self._release_held(pkt)
        if reason == "timeout":
            self.stats.dropped_timeout += 1
        elif reason == "port255":
            self.stats.dropped_port255 += 1
        else:
            self.stats.dropped_no_route += 1
