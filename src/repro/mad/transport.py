"""SMP delivery: hop counting, latency model and accounting.

The transport realizes the paper's cost decomposition (section VI-A):

* ``k`` — time for an SMP to traverse the network to its target. We derive
  it per packet from the hop distance between the SM's attachment switch and
  the target (footnote 4: switches closer to the SM are reached faster).
* ``r`` — additional per-packet cost of directed routing, charged per hop
  because every intermediate switch rewrites the packet header.

The transport also owns the **SMP counters** used throughout the
reproduction: total SMPs, LFT-update SMPs per reconfiguration, hops and
serial time. ``pipelined_time``/``serial_time`` model the SM's LFT-update
pipelining (section VI-B: "In practice, pipelining is used by OpenSM").

An SMP leaves through :meth:`SmpTransport.send` (one packet whose reply
matters) or :meth:`SmpTransport.deliver` (an :class:`~repro.mad.smp.SmpPlan`);
both account through one :meth:`SmpTransport._book`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import LFT_BLOCKS_FULL_SUBNET
from repro.errors import TopologyError, UnreachableTargetError
from repro.fabric.graph import bfs_distances
from repro.fabric.lft import check_blocks
from repro.fabric.node import HCA, Node, Switch
from repro.fabric.topology import Topology
from repro.mad.smp import Smp, SmpKind, SmpMethod, SmpPlan, SmpResult, SmpStatus
from repro.obs.hub import get_hub
from repro.obs.spans import current_span

__all__ = ["TransportStats", "SmpPlan", "SmpTransport", "MAD_BYTES"]

#: Default per-hop wire+forwarding latency (the building block of ``k``).
DEFAULT_HOP_LATENCY = 200e-9
#: Default per-hop directed-routing processing overhead (``r`` per hop).
DEFAULT_DR_OVERHEAD = 250e-9
#: Octets charged to the PMA data counters per MAD (one 256-byte datagram,
#: IBA 13.4.2).
MAD_BYTES = 256


@dataclass
class TransportStats:
    """Aggregated accounting of everything sent through a transport.

    Scalars only, so million-SMP runs stay bounded: the per-SMP record
    (kind, target, latency, outcome) lives in the bounded
    :class:`repro.obs.flight.FlightRecorder`, and the per-kind totals in
    the ``repro_smp_total{kind,routed}`` series.
    """

    total_smps: int = 0
    lft_update_smps: int = 0
    directed_smps: int = 0
    destination_routed_smps: int = 0
    total_hops: int = 0
    serial_time: float = 0.0
    #: SMPs that never produced a response (injected drop/corrupt-discard).
    timeouts: int = 0
    #: Fenced writes rejected for carrying a stale SM generation
    #: (split-brain fencing — see :mod:`repro.sm.ha`).
    stale_rejected: int = 0
    #: Retransmissions performed by a ReliableSmpSender on this transport.
    retransmissions: int = 0
    #: SET-LFT payloads silently damaged in flight (injected corruption).
    corrupted: int = 0
    #: Sim time spent waiting out retry timeouts (downtime inflation).
    retry_wait_seconds: float = 0.0
    #: Slowest single SMP seen (``pipelined_time``'s lower bound).
    max_latency: float = 0.0

    def mean_k(self) -> float:
        """Average per-SMP traversal time — the paper's ``k``. Retry
        waits land in ``serial_time`` but are no packet's traversal."""
        if self.total_smps:
            return (self.serial_time - self.retry_wait_seconds) / self.total_smps
        return 0.0

    def pipelined_time(self, window: int) -> float:
        """LFT-distribution time with *window* outstanding SMPs: serial
        issue takes ``sum(t_i)`` (equation (2)), ``window`` requests in
        flight roughly ``sum(t_i)/window``, never below the slowest packet."""
        if window < 1:
            raise TopologyError("pipeline window must be >= 1")
        if not self.total_smps:
            return 0.0
        return max(self.serial_time / window, self.max_latency)

    def snapshot(self) -> "TransportStats":
        """A frozen copy, so callers can diff before/after an operation."""
        return replace(self)

    def delta_since(self, before: "TransportStats") -> "TransportStats":
        """The counts accumulated since *before* was snapshot — what an
        operation cost.

        The slowest packet *of this window* is not kept; the overall
        maximum capped by the window's serial sum is a tight bound that
        keeps :meth:`pipelined_time` from exceeding the serial time.
        """
        out = TransportStats(
            **{name: getattr(self, name) - getattr(before, name) for name in _COUNTED}
        )
        if out.serial_time > 0:
            out.max_latency = min(self.max_latency, out.serial_time)
        return out


#: The fields of :class:`TransportStats` that only ever count up.
_COUNTED = (
    "total_smps", "lft_update_smps", "directed_smps",
    "destination_routed_smps", "total_hops", "serial_time", "timeouts",
    "stale_rejected", "retransmissions", "corrupted", "retry_wait_seconds",
)


#: Called with a packet that came back not delivered and its result; what
#: it returns replaces the result.
OnLoss = Optional[Callable[[Smp, SmpResult], SmpResult]]

#: Kinds a row is checked for, bound once (an enum member read is slow).
_LFT, _PORT_INFO = SmpKind.LFT_BLOCK, SmpKind.PORT_INFO

#: The attribute names of a span's SMP event, in the order of a route row's
#: span values.
_SPAN_KEYS = ("kind", "target", "hops", "directed", "latency", "lft_update")


class _Route:
    """What every SMP to one node in one routing mode shares.

    The resolved target, the hop count and the wire latency (``k``, plus
    ``r`` per hop when directed) are the same for every packet. ``rx``
    (the target's endpoint counters) is filled by the first packet that
    arrives, so a target no packet reached keeps no counters. ``rows``
    keeps, per kind, the :meth:`row` of a delivered plan row of that kind.
    :meth:`SmpTransport._route` keeps a route while its target keeps its
    name and hop count: it :meth:`serves` at the distance row serial it
    was ``checked`` at, which :meth:`SmpTransport._recheck` moves on by
    ``via`` (an HCA's uplink switch, else the target), and for an HCA
    while the ``cable`` it was checked on is plugged.
    """

    __slots__ = ("target", "directed", "hops", "latency", "via", "cable", "checked", "rx", "rows")

    def __init__(self, target: Node, directed: bool, hops: int, latency: float) -> None:
        self.target = target
        self.directed = directed
        self.hops = hops
        self.latency = latency
        self.via = self.cable = self.rx = None
        self.checked = -1
        self.rows: Dict[SmpKind, Tuple[tuple, tuple]] = {}

    def serves(self, serial: int) -> bool:
        """Checked at distance row *serial*, and still on its cable."""
        return self.checked == serial and (self.cable is None or self.cable.a.link is self.cable)

    def row(
        self, kind: SmpKind, method: SmpMethod, latency: float, fault: str
    ) -> Tuple[tuple, tuple]:
        """What packets of *kind* sent with *method*, each taking
        *latency* and coming back *fault*, leave besides their times: the
        flight-event fields and the span-event values."""
        label = kind.name.lower()
        lft = kind is SmpKind.LFT_BLOCK and method is SmpMethod.SET
        shared = (self.target.name, self.hops, self.directed, latency, lft)
        return (label, method.name.lower(), *shared, fault), (label, *shared)

    def booked(self, kind: SmpKind) -> Tuple[tuple, tuple]:
        """Work out (and keep) the :meth:`row` of a delivered plan row of
        *kind*: SubnSet for an LFT block, SubnGet else."""
        self.rows[kind] = row = self.row(kind, SmpPlan.method_of(kind), self.latency, "delivered")
        return row


class SmpTransport:
    """Delivers SMPs from the SM to fabric nodes, applying their effects.

    The SM attaches behind one HCA port; hop distances are BFS distances on
    the switch graph from that HCA's leaf switch (plus the first hop from
    the HCA and, for HCA targets, the final hop off the fabric).
    """

    def __init__(
        self,
        topology: Topology,
        *,
        sm_node: Optional[Node] = None,
        hop_latency: float = DEFAULT_HOP_LATENCY,
        dr_overhead: float = DEFAULT_DR_OVERHEAD,
    ) -> None:
        self.topology = topology
        self.hop_latency = hop_latency
        self.dr_overhead = dr_overhead
        self.stats = TransportStats()
        self._sm_node = sm_node
        #: Optional fault injector (see :mod:`repro.faults`). None keeps
        #: the delivery path exactly as it always was — zero cost.
        self._injector = None
        #: Highest SM generation seen on an accepted fenced write — what
        #: "the switches" believe the current master's generation to be.
        #: A fenced write older than this is rejected (split-brain fence).
        self._fabric_generation = 0
        #: Nodes whose SM software is dead: SMInfo MADs addressed to them
        #: get no response (the node's port firmware still answers
        #: PortInfo/NodeInfo — only the SM agent is gone).
        self._dead_sm_nodes: set = set()
        #: Optional SM agent (see :class:`repro.sm.ha.HighAvailabilityManager`)
        #: answering SMInfo GET/SET with real per-candidate state.
        self._sm_agent = None
        self._dist_cache: Optional[np.ndarray] = None
        self._dist_version: int = -1
        #: Moves whenever ``_dist_cache`` is dropped (see ``_Route.checked``).
        self._dist_serial = 0
        #: Routes by target name, one table per routing mode (indexed by
        #: ``directed``), kept for the transport's lifetime.
        self._routes: Tuple[Dict[str, _Route], Dict[str, _Route]] = ({}, {})
        #: Duck-typed shared distance cache (``row(switch_index) ->
        #: np.ndarray``; the SM's :class:`repro.sm.routing.cache.RoutingState`),
        #: so the SM and the transport do not compute the same BFS twice.
        self._distance_source = None

    # -- SM attachment and hop distances ------------------------------------

    @property
    def sm_node(self) -> Node:
        """The node hosting the SM (defaults to the first HCA)."""
        if self._sm_node is None:
            hcas = self.topology.hcas
            if not hcas:
                raise TopologyError("no HCA to host the SM")
            self._sm_node = hcas[0]
        return self._sm_node

    def set_sm_node(self, node: Node) -> None:
        """Move the SM (invalidates the distance cache)."""
        self._sm_node = node
        self.invalidate_distances()

    def set_distance_source(self, source) -> None:
        """Attach a shared distance cache (``row(index) -> distances``)."""
        self._distance_source = source
        self.invalidate_distances()

    def invalidate_distances(self) -> None:
        """Drop the BFS cache after a topology mutation (and re-check
        every kept route against the next one before it is used)."""
        self._dist_cache = None
        self._dist_serial += 1

    def _table(self, directed: bool) -> Dict[str, _Route]:
        """The kept routes of one mode (a version move drops the distance row)."""
        if self._dist_version != self.topology.version:
            self.invalidate_distances()
            self._dist_version = self.topology.version
        return self._routes[directed]

    # -- fault injection ------------------------------------------------------

    @property
    def fault_injector(self):
        """The attached :class:`~repro.faults.FaultInjector`, if any."""
        return self._injector

    def set_fault_injector(self, injector) -> None:
        """Attach (or detach with ``None``) a fault injector."""
        self._injector = injector

    # -- HA hooks (generation fencing, SM liveness, SMInfo agent) ------------

    @property
    def fabric_generation(self) -> int:
        """The highest SM generation accepted on a fenced write so far."""
        return self._fabric_generation

    def set_sm_agent(self, agent) -> None:
        """Attach (or detach with ``None``) an SMInfo agent answering with
        per-candidate state: ``sminfo(node_name) -> dict`` for GETs and
        ``handle_sminfo_set(node_name, payload) -> dict`` for SETs (with
        none attached the stub replies are kept)."""
        self._sm_agent = agent

    def mark_sm_dead(self, node_name: str) -> None:
        """The SM software on *node_name* died: its SMInfo stops answering."""
        self._dead_sm_nodes.add(node_name)

    def mark_sm_alive(self, node_name: str) -> None:
        """The SM software on *node_name* (re)started."""
        self._dead_sm_nodes.discard(node_name)

    def _sm_root_switch(self) -> Switch:
        node = self.sm_node
        if isinstance(node, Switch):
            return node
        if not isinstance(node, HCA):
            raise TopologyError(
                f"SM host {node.name!r} is neither a switch nor an HCA"
            )
        up = node.uplink_switch()
        if up is None:
            raise TopologyError(f"SM host {node.name!r} is not cabled to a switch")
        return up

    def _switch_distances(self) -> np.ndarray:
        self._table(True)  # follows the topology version
        if self._dist_cache is None:
            root = self._sm_root_switch().index
            if self._distance_source is not None:
                self._dist_cache = self._distance_source.row(root)
            else:
                self._dist_cache = bfs_distances(self.topology.fabric_view(), root)
            self._recheck(self._dist_cache)
        return self._dist_cache

    def _recheck(self, dist: np.ndarray) -> None:
        """Check every kept route against a new distance row in one pass,
        one gather of *dist* at the routes' ``via`` switches: a route whose
        hop count holds serves at the new serial. The rest — the SM host's
        own, one whose switch is gone, or whose count moved — go back
        through :meth:`_route` when next used."""
        sm = self.sm_node
        base = 0 if isinstance(sm, Switch) else 1
        kept = [
            route for table in self._routes for route in table.values()
            if route.target is not sm and isinstance(route.via, Switch) and route.via.index >= 0
        ]
        d = dist[[route.via.index for route in kept]]
        off = d + [base + (route.via is not route.target) - route.hops for route in kept]
        for route, held in zip(kept, ((d >= 0) & (off == 0)).tolist()):
            if held:
                route.checked = self._dist_serial

    def hops_to(self, target: Node) -> int:
        """Hop count from the SM host to *target*.

        One hop from the SM's HCA onto its leaf switch, BFS hops across the
        fabric, plus one hop down to an HCA target.
        """
        return self._hops(target)[0]

    def _hops(self, target: Node) -> Tuple[int, Node]:
        """:meth:`hops_to` *target*, and what the count hangs on besides
        the distance row: an HCA's uplink switch, else *target* itself."""
        dist = self._switch_distances()
        if target is self.sm_node:
            return 0, target
        base = 0 if isinstance(self.sm_node, Switch) else 1
        if isinstance(target, Switch):
            d = int(dist[target.index])
            if d < 0:
                raise TopologyError(f"switch {target.name!r} unreachable from SM")
            return base + d, target
        if not isinstance(target, HCA):
            raise TopologyError(
                f"SMP target {target.name!r} is neither a switch nor an HCA"
            )
        up = target.uplink_switch()
        if up is None:
            raise TopologyError(f"HCA {target.name!r} is not cabled to a switch")
        d = int(dist[up.index])
        if d < 0:
            raise TopologyError(f"HCA {target.name!r} unreachable from SM")
        return base + d + 1, up

    # -- delivery ------------------------------------------------------------

    def send(self, smp: Smp, *, on_loss: OnLoss = None) -> SmpResult:
        """Deliver one SMP whose reply matters: apply it, then
        :meth:`_book` it (counters, sim clock, flight ring, open span).

        With a fault injector attached a delivery may be dropped
        (``status`` TIMEOUT, effect *not* applied), silently corrupted
        (SET-LFT payload applied damaged), or delayed. A packet that
        cannot be delivered raises before any counter moves:
        :class:`~repro.errors.UnreachableTargetError` for a missing or
        unreachable target (not a timeout: retry layers do not burn their
        budget on it), :class:`~repro.errors.TopologyError` for an LFT
        block to a non-switch or the PortInfo of a port the node lacks.
        *on_loss*, when given, is called with a packet that came back not
        delivered and its result, and what it returns replaces the result
        (the :class:`~repro.mad.reliable.ReliableSmpSender` retransmits).
        """
        route = self._route(smp.target, smp.directed)
        # Port 1 stands in for a PortInfo without a port (the node's own
        # one): every node has both.
        self._refuse(route.target, smp.kind, (smp.payload.get("port", 1),))
        # A MAD leaves the SM host's endpoint whatever happens to it on the
        # wire, and before a PMA GET of that very port is answered; arrival
        # is counted in :meth:`_deliver`, so a dropped packet never is.
        tx = self._endpoint_counters(self.sm_node)
        tx.xmit_packets += 1
        tx.xmit_data += MAD_BYTES
        data, status, fault, latency = self._on_the_wire(route, smp)
        row = route.row(smp.kind, smp.method, latency, fault)
        self._book(route.directed, [row], [1], [latency])
        metrics = get_hub().metrics
        if fault in ("dropped", "corrupt", "delayed"):
            metrics.counter("repro_faults_injected_total", action=fault).add(1)
        if fault in ("dropped", "no-response"):
            metrics.counter("repro_smp_timeouts_total", kind=row[0][0]).add(1)
        result = SmpResult(smp, route.hops, latency, data, status)
        if on_loss is not None and status is not SmpStatus.DELIVERED:
            result = on_loss(smp, result)
        return result

    def deliver(
        self, plan: SmpPlan, *, on_loss: OnLoss = None,
        applied: Optional[List[int]] = None,
    ) -> None:
        """Deliver the packets of *plan* in order, dropping the replies.

        Equivalent to one :meth:`send` per packet of ``plan.packets()``,
        which is what happens whenever a packet can come back lost or
        rejected: a fault injector is attached, the plan's generation is
        behind the fabric's, or a row is an SMInfo. Otherwise the plan is
        *booked*: a row does only what it owns (its typed refusal and the
        target's endpoint counters) on the route :meth:`_route` keeps, its
        LFT blocks are written with the plan's in one assignment, and one
        :meth:`_book` accounts for every row delivered.

        A row that cannot be delivered — its target missing or
        unreachable, an LFT block for a non-switch or out of range, the
        PortInfo of a port the node does not have — raises when its turn
        comes: the rows before it are delivered (their LFT blocks in one
        write) and accounted, its own are not. The index of every packet
        delivered is appended to *applied* (when given), so a caller with
        an undo log knows what to restore after such an error.
        """
        generation = plan.generation
        if (
            self._injector is not None
            or (generation is not None and generation < self._fabric_generation)
            or SmpKind.SM_INFO in plan.kinds
        ):
            for i, smp in enumerate(plan.packets()):
                if self.send(smp, on_loss=on_loss).ok and applied is not None:
                    applied.append(i)
            return

        # The plan's LFT blocks are checked first, at once: the row holding
        # the first one out of range is refused when its turn comes.
        refused = len(plan.args)
        if _LFT in plan.kinds:
            blocks = np.asarray(plan.args)
            out = (blocks < 0) | (blocks >= LFT_BLOCKS_FULL_SUBNET)
            out &= np.repeat([kind is _LFT for kind in plan.kinds], plan.counts)
            refused = int(out.argmax()) if out.any() else refused
        directed = plan.directed
        routes = self._table(directed)
        serial = self._dist_serial
        #: Per delivered row: its route's flight fields and span values,
        #: and its switch row if it writes LFT blocks (-1 if not).
        rows: List[Tuple[tuple, tuple]] = []
        counts: List[int] = []
        latencies: List[float] = []
        lft: List[int] = []
        route = None
        sent = 0
        try:
            for name, kind, count in zip(plan.targets, plan.kinds, plan.counts):
                if not count:
                    continue
                if route is None or name != route.target.name:
                    # A checked directed route serves as is.
                    route = routes.get(name)
                    if not (directed and route and route.serves(serial)):
                        route = self._route(name, directed)
                target = route.target
                end = sent + count
                self._refuse(target, kind, plan.args[sent:end])
                if end > refused and kind is _LFT:
                    check_blocks(plan.args[sent:end])
                lft.append(target.index if kind is _LFT else -1)
                rx = route.rx
                if rx is None:
                    rx = route.rx = self._endpoint_counters(target)
                rx.rcv_packets += count
                rx.rcv_data += count * MAD_BYTES
                rows.append(route.rows.get(kind) or route.booked(kind))
                counts.append(count)
                latencies += [route.latency] * count
                sent = end
        finally:
            if max(lft, default=-1) >= 0:
                # Every LFT block before the refused row, in one write; the
                # plan's own payloads when every row is LFT (no copy).
                at = np.repeat(lft, counts)
                blocks, entries = np.asarray(plan.args[:sent]), plan.entries[:sent]
                if at.min() < 0:
                    keep = at >= 0
                    at, blocks, entries = at[keep], blocks[keep], entries[keep]
                self.topology.load_lft_blocks(at, blocks, entries)
                if generation is not None:
                    self._fabric_generation = generation
            if applied is not None:
                applied.extend(range(sent))
            if sent:
                tx = self._endpoint_counters(self.sm_node)
                tx.xmit_packets += sent
                tx.xmit_data += sent * MAD_BYTES
                self._book(directed, rows, counts, latencies)

    def _book(
        self, directed: bool, rows: List[Tuple[tuple, tuple]],
        counts: List[int], latencies: List[float],
    ) -> None:
        """Account for delivered packets in one routing mode: ``counts[i]``
        of them leave the flight fields and span values ``rows[i]`` (see
        :meth:`_Route.row`), packet ``p`` took ``latencies[p]``.

        Both clocks take one add per packet in packet order: ``count *
        latency`` or any other summation rounds differently, and the
        pinned sim-second figures are compared bit for bit. The flight
        ring and the open span take one append each, ``repro_smp_total``
        one add per kind in first-appearance order.
        """
        st = self.stats
        hub = get_hub()
        *_, st.serial_time = accumulate(latencies, initial=st.serial_time)
        times = list(accumulate(latencies, initial=hub.now()))[1:]
        hub.advance_to(times[-1])
        fields, values = zip(*rows)
        hub.flight.record_rows(times, fields, counts)
        kinds: Dict[str, int] = {}
        hops = lft = 0
        for (label, _, _, row_hops, _, _, update, _), count in zip(fields, counts):
            kinds[label] = kinds.get(label, 0) + count
            hops += count * row_hops
            if update:
                lft += count
        sp = current_span()
        if sp is not None:
            sp.record_rows(times, _SPAN_KEYS, values, counts, lft)
        sent = len(latencies)
        st.total_smps += sent
        st.lft_update_smps += lft
        st.total_hops += hops
        st.max_latency = max(st.max_latency, max(latencies))
        if directed:
            st.directed_smps += sent
        else:
            st.destination_routed_smps += sent
        routed = "directed" if directed else "destination"
        for label, count in kinds.items():
            hub.metrics.counter("repro_smp_total", kind=label, routed=routed).add(count)

    def _route(self, name: str, directed: bool) -> _Route:
        """The route of SMPs to *name*, kept per target and routing mode.

        A kept route serves while it :meth:`_Route.serves` (cabling an HCA
        does not bump the version); else it is checked again, and kept if
        *name* still resolves to the same node at the same hop count. A
        destination-routed target has its live LID checked on every use:
        binding a LID does not bump the version either.
        """
        routes = self._table(directed)
        route = routes.get(name)
        if route is not None and route.serves(self._dist_serial):
            if not directed:
                self._check_live_lid(route.target)
            return route
        if name not in self.topology:
            raise UnreachableTargetError(
                f"SMP target {name!r} does not exist in the subnet"
            )
        target = self.topology.node(name)
        if not directed:
            self._check_live_lid(target)
        try:
            hops, via = self._hops(target)
        except TopologyError as exc:
            # "unreachable from SM" / "not cabled" — a dead path, not a
            # timeout; retry layers must not retransmit into it.
            raise UnreachableTargetError(str(exc)) from None
        if route is None or route.target is not target or route.hops != hops:
            latency = hops * self.hop_latency
            if directed:
                latency += hops * self.dr_overhead
            route = routes[name] = _Route(target, directed, hops, latency)
        route.via, route.checked = via, self._dist_serial
        route.cable = None if via is target else target.ports[1].link
        return route

    @staticmethod
    def _endpoint_counters(node: Node):
        """PMA counters of a node's MAD endpoint (switch port 0, HCA port 1).

        Management traffic terminates at the endpoint — port 0 is the
        switch management port, not a transit port — so MAD accounting
        never perturbs the transit-port xmit==rcv conservation invariant.
        """
        return node.port_counters(0 if isinstance(node, Switch) else 1)

    @staticmethod
    def _refuse(target: Node, kind: SmpKind, ports: Sequence[int]) -> None:
        """Raise the typed refusal of SMPs of *kind* to *target* — an LFT
        block for a non-switch, the PortInfo of one of *ports* the node
        does not have (0 is a switch's own) — before any counter moves."""
        if kind is _LFT:
            if not isinstance(target, Switch):
                raise TopologyError(
                    f"LFT SMP addressed to non-switch {target.name!r}"
                )
        elif kind is _PORT_INFO:
            have = target.ports
            for num in ports:
                if num not in have and (num or not isinstance(target, Switch)):
                    target.port(num)

    def _deliver(self, route: _Route, smp: Smp, fault: str):
        """Apply one SMP that survived the wire, enforcing the fence: a
        fenced write (SET LFT/PortInfo carrying a generation) older than
        the fabric's is rejected without effect, with a bad status — how a
        stale master re-emerging after a partition heal is stopped."""
        rx = route.rx
        if rx is None:
            rx = route.rx = self._endpoint_counters(route.target)
        rx.rcv_packets += 1
        rx.rcv_data += MAD_BYTES
        if smp.generation is not None and smp.is_fenced_write:
            if smp.generation < self._fabric_generation:
                self.stats.stale_rejected += 1
                get_hub().metrics.counter(
                    "repro_sm_stale_writes_rejected_total",
                    kind=smp.kind.name.lower(),
                ).add(1)
                return None, SmpStatus.STALE_GENERATION, "stale-rejected"
            self._fabric_generation = smp.generation
        return self._apply(smp, route.target), SmpStatus.DELIVERED, fault

    def _on_the_wire(self, route: _Route, smp: Smp):
        """One SMP's fate: lost to an SMInfo's dead far-end SM agent or to
        the fault injector on the wire (drop, silent corruption, delay),
        delivered otherwise. Returns ``(data, status, fault, latency)``."""
        if smp.kind is SmpKind.SM_INFO and route.target.name in self._dead_sm_nodes:
            # The node's port is up but its SM agent is dead: the MAD
            # arrives and nothing answers. No injector RNG is consumed,
            # so SM death events never shift the SMP fault sequence.
            self.stats.timeouts += 1
            return None, SmpStatus.TIMEOUT, "no-response", route.latency
        decision = None if self._injector is None else self._injector.decide(smp, now=get_hub().now())
        action = "deliver" if decision is None else decision.action.value
        if action == "deliver":
            return *self._deliver(route, smp, "delivered"), route.latency
        if action == "delay":
            return *self._deliver(route, smp, "delayed"), route.latency + decision.delay_seconds
        if action == "corrupt":
            # The damaged payload is applied — a *silent* failure only a
            # read-back (transactional distribution) can catch.
            damaged = self._injector.corrupt_entries(smp.payload["entries"])
            damaged = replace(smp, payload={**smp.payload, "entries": damaged})
            data, status, fault = self._deliver(route, damaged, "delivered")
            if status is SmpStatus.DELIVERED:
                self.stats.corrupted += 1
                fault = "corrupt"
                # The receiving port accepted damaged symbols.
                route.rx.symbol_errors += 1
            return data, status, fault, route.latency
        # drop: the packet dies on the wire, the sender times out
        self.stats.timeouts += 1
        return None, SmpStatus.TIMEOUT, "dropped", route.latency

    def _check_live_lid(self, target: Node) -> None:
        """Refuse a destination-routed target without a bound LID: no
        forwarding entry anywhere leads to it. Only once a LID manager has
        populated the registry; on a bare fabric destination routing stays
        a modeling convenience (discovery routes directed, as real SMs do)."""
        if self.topology.num_lids:
            lid = target.lid
            if lid is None or self.topology.port_of_lid(lid) is None:
                raise UnreachableTargetError(
                    f"SMP target {target.name!r} has no live LID for"
                    " destination routing"
                )

    def charge_wait(self, seconds: float) -> None:
        """Account a retry-timeout wait: sim time passes, nothing is sent.

        The :class:`~repro.mad.reliable.ReliableSmpSender` waits between
        retransmissions; the wait lands in ``serial_time`` (control-plane
        wall time, the downtime inflation chaos runs measure) and in
        ``retry_wait_seconds``.
        """
        if seconds <= 0:
            return
        self.stats.serial_time += seconds
        self.stats.retry_wait_seconds += seconds
        get_hub().advance(seconds)

    def _apply(self, smp: Smp, target: Node) -> Optional[Dict[str, object]]:
        """Execute the management operation on the target node (which
        :meth:`_refuse` has let through): its kind's row of :data:`_EFFECTS`."""
        return _EFFECTS[smp.kind](self, target, smp.method is SmpMethod.SET, smp.payload)


# -- what a delivered SMP does, per kind: (transport, target, SET?, payload)
# -> the reply's data. A plan's packets are SubnGets without effect but its
# LFT blocks, which deliver writes through the same load_lft_blocks.


def _lft_block(tr: SmpTransport, target: Node, is_set: bool, payload) -> Optional[dict]:
    block, row = int(payload["block"]), target.index
    if is_set:
        tr.topology.load_lft_blocks(row, [block], np.reshape(payload["entries"], (1, -1)))
        return None
    return {"block": block, "entries": tr.topology.lft_blocks([row], [block])[0]}


def _port_info(tr: SmpTransport, target: Node, is_set: bool, payload) -> Optional[dict]:
    switch = isinstance(target, Switch)
    num = int(payload.get("port", 0 if switch else 1))
    port = target.management_port if switch and num == 0 else target.port(num)
    if not is_set:
        return {"lid": port.lid, "port": num}
    if "lid" in payload:
        port.lid = payload["lid"]
    return None


def _sm_info(tr: SmpTransport, target: Node, is_set: bool, payload) -> dict:
    agent = tr._sm_agent
    if agent is None:
        return {"sm": tr.sm_node.name}
    if is_set:
        return agent.handle_sminfo_set(target.name, dict(payload))
    return agent.sminfo(target.name)


def _port_counters(tr: SmpTransport, target: Node, is_set: bool, payload) -> Optional[dict]:
    """PMA PortCounters, the attribute the PerfManager sweeps: a SET may
    reset one port or all; a GET reads one port, or every port that has
    counted anything plus the MAD endpoint port this GET is counting on."""
    sel, low = payload.get("port"), 0 if isinstance(target, Switch) else 1
    nums = sorted(target.counters) if sel is None else [int(sel)]
    if is_set:
        for num in nums if payload.get("reset") else ():
            target.port_counters(num).reset()
        return None
    nums = [num for num in nums if sel is not None or low <= num <= target.num_ports]
    return {"node": target.name, "ports": {n: target.port_counters(n).pma_view() for n in nums}}


def _echo(tr: SmpTransport, target: Node, is_set: bool, payload) -> dict:
    """VGUID (the SR-IOV layer applies alias GUIDs), NOTICE (the trap
    pipeline acts on it): only timed and accounted, payload carried back."""
    return dict(payload)


_EFFECTS = {
    SmpKind.LFT_BLOCK: _lft_block,
    SmpKind.PORT_INFO: _port_info,
    SmpKind.NODE_INFO: lambda tr, target, is_set, payload: {
        "name": target.name, "node_type": target.node_type.value,
        "num_ports": target.num_ports, "node_guid": target.node_guid,
    },
    SmpKind.VGUID: _echo,
    SmpKind.SM_INFO: _sm_info,
    SmpKind.NOTICE: _echo,
    SmpKind.PORT_COUNTERS: _port_counters,
}
