"""The subnet topology graph.

Holds every node and cable of one IB subnet, maintains the LID -> port
binding registry (several LIDs may bind to one physical HCA port — that is
exactly what the vSwitch architecture does) and the terminal table of where
each LID attaches to the switch fabric, owns every switch's hardware LFT as
one ``(switch, LID)`` matrix, and exports a compact integer-indexed view of
the switch graph for the routing engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.constants import LFT_BLOCK_SIZE, LFT_UNSET, MAX_UNICAST_LID
from repro.errors import TopologyError
from repro.fabric.lft import check_blocks, widen
from repro.fabric.link import Link
from repro.fabric.node import HCA, Node, Port, Switch

__all__ = ["Topology", "TopologyMutation", "SwitchFabricView"]

#: Mutation kinds :class:`TopologyMutation` describes (the runtime
#: topology-change vocabulary shared by the SM, the trap pipeline, the
#: HA journal and the chaos ``rewire`` knob).
MUTATION_KINDS = (
    "add_link",
    "remove_link",
    "restore_link",
    "add_switch",
    "remove_switch",
)


@dataclass(frozen=True)
class TopologyMutation:
    """One planned runtime topology change, as plain serializable data.

    ``a``/``port_a`` and ``b``/``port_b`` name the cable endpoints for the
    link kinds; for the switch kinds ``a`` is the switch name and
    ``cables`` lists ``(local_port, peer_name, peer_port)`` triples to
    plug while adding. ``level`` optionally records the new switch's tree
    level so level-aware engines (ftree, Up*/Down*) keep total metadata.
    The dict round-trip (:meth:`as_dict` / :meth:`from_dict`) is what the
    HA journal replicates to standbys.
    """

    kind: str
    a: str = ""
    port_a: int = -1
    b: str = ""
    port_b: int = -1
    num_ports: int = 0
    level: int = -1
    latency: float = 100e-9
    cables: Tuple[Tuple[int, str, int], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in MUTATION_KINDS:
            raise TopologyError(
                f"unknown mutation kind {self.kind!r};"
                f" choose one of {MUTATION_KINDS}"
            )
        if isinstance(self.cables, list):  # tolerate list literals
            object.__setattr__(
                self, "cables", tuple(tuple(c) for c in self.cables)
            )

    @classmethod
    def cable(cls, kind: str, link: Link) -> "TopologyMutation":
        """The link-kind mutation naming *link*'s ends and latency (a
        removed :class:`~repro.fabric.link.Link` still remembers them)."""
        end_a, end_b = link.ends
        return cls(
            kind=kind,
            a=end_a.node.name,
            port_a=end_a.num,
            b=end_b.node.name,
            port_b=end_b.num,
            latency=link.latency,
        )

    def as_dict(self) -> Dict[str, Any]:
        """Wire/journal form (plain JSON-able types only)."""
        return {
            "kind": self.kind,
            "a": self.a,
            "port_a": self.port_a,
            "b": self.b,
            "port_b": self.port_b,
            "num_ports": self.num_ports,
            "level": self.level,
            "latency": self.latency,
            "cables": [list(c) for c in self.cables],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TopologyMutation":
        """Rebuild a mutation from its :meth:`as_dict` form."""
        return cls(
            kind=str(data["kind"]),
            a=str(data.get("a", "")),
            port_a=int(data.get("port_a", -1)),
            b=str(data.get("b", "")),
            port_b=int(data.get("port_b", -1)),
            num_ports=int(data.get("num_ports", 0)),
            level=int(data.get("level", -1)),
            latency=float(data.get("latency", 100e-9)),
            cables=tuple(
                (int(p), str(peer), int(pp))
                for p, peer, pp in data.get("cables", [])
            ),
        )

    def describe(self) -> str:
        """Compact human form for logs and chaos reports."""
        if self.kind in ("add_link", "remove_link", "restore_link"):
            return (
                f"{self.kind} {self.a}:{self.port_a}"
                f"<->{self.b}:{self.port_b}"
            )
        if self.kind == "add_switch":
            return f"add_switch {self.a} ({len(self.cables)} cables)"
        return f"remove_switch {self.a}"


@dataclass(frozen=True)
class SwitchFabricView:
    """Compact CSR adjacency of the switch-to-switch graph.

    ``indptr``/``peer``/``out_port`` encode, for switch ``i``, its switch
    neighbours ``peer[indptr[i]:indptr[i+1]]`` and the local output port
    leading to each. Routing engines work exclusively on this view so the
    hot loops touch integer arrays, never the object graph.
    """

    num_switches: int
    indptr: np.ndarray
    peer: np.ndarray
    out_port: np.ndarray
    #: Port number on the *peer* switch for the same cable (reverse port).
    in_port: np.ndarray
    link_latency: np.ndarray

    def neighbors(self, switch_index: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(peer_switch_index, local_out_port)`` pairs."""
        lo, hi = self.indptr[switch_index], self.indptr[switch_index + 1]
        for k in range(lo, hi):
            yield int(self.peer[k]), int(self.out_port[k])

    def degree(self, switch_index: int) -> int:
        """Number of inter-switch cables on this switch."""
        return int(self.indptr[switch_index + 1] - self.indptr[switch_index])

    def unreached(
        self,
        *,
        without_switch: int = -1,
        without_link: Optional[Tuple[int, int]] = None,
    ) -> List[int]:
        """Switch indices a walk from the first switch does not reach.

        Empty means connected. ``without_switch`` asks about the graph
        with that switch gone (it is left out of the answer too),
        ``without_link=(u, v)`` with one cable between ``u`` and ``v``
        cut — a parallel cable keeps the pair adjacent. The one
        connectivity check behind :meth:`Topology.validate`, the subnet
        manager's refusal of a cut-vertex removal and the chaos pools.
        """
        n = self.num_switches
        src = np.repeat(np.arange(n), np.diff(self.indptr))
        keep = (src != without_switch) & (self.peer != without_switch)
        if without_link is not None:
            for u, v in (without_link, without_link[::-1]):
                keep[np.flatnonzero((src == u) & (self.peer == v))[:1]] = False
        src, dst = src[keep], self.peer[keep]
        seen = np.arange(n) == without_switch
        seen[np.flatnonzero(~seen)[:1]] = True
        reached = 0
        while reached != seen.sum():  # one hop further per pass
            reached = seen.sum()
            seen[dst[seen[src]]] = True
        return np.flatnonzero(~seen).tolist()


class Topology:
    """A mutable IB subnet: nodes, links, the LID binding registry and the
    hardware LFTs."""

    def __init__(self, name: str = "subnet") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._switches: List[Switch] = []
        self._hcas: List[HCA] = []
        self._links: List[Link] = []
        self._lid_to_port: Dict[int, Port] = {}
        #: The terminal table over the unicast LID space: the switch each
        #: LID attaches to and its exit port there (0 for a switch's own
        #: LID), both -1 for an unbound or unattached LID. Written only by
        #: the LID registry, HCA cabling and switch removal.
        self._lid_switch = np.full(MAX_UNICAST_LID + 1, -1, np.int32)
        self._lid_port = np.full(MAX_UNICAST_LID + 1, -1, np.int16)
        #: HCAs with no cable on any port, kept by the same writers.
        self._uncabled: Set[HCA] = set()
        self._fabric_view: Optional[SwitchFabricView] = None
        self._version = 0
        #: Every switch's hardware LFT: row ``switch.index``, column LID.
        self._lft = np.full((0, LFT_BLOCK_SIZE), LFT_UNSET, dtype=np.int16)

    @property
    def version(self) -> int:
        """Monotonic switch-graph version.

        Bumped by every mutation that can change the switch-to-switch graph
        (adding a switch, cabling two switches, removing a switch, or an
        out-of-band :meth:`invalidate_fabric_view`). LID churn and HCA
        cabling do NOT bump it — that is what lets the routing caches stay
        warm across VM boot/stop/migration (see
        :class:`repro.sm.routing.cache.RoutingState`).
        """
        return self._version

    def _touch_switch_graph(self, cable: Optional[Link] = None) -> None:
        """Bump :attr:`version` once. A plugged or unplugged
        switch-to-switch *cable* patches the cached view's two rows;
        anything else drops the view for a rebuild."""
        view = self._fabric_view
        self._fabric_view = None if cable is None or view is None else _patched_view(view, cable)
        self._version += 1

    # -- construction -----------------------------------------------------

    def add_switch(self, name: str, num_ports: int) -> Switch:
        """Create and register a switch."""
        self._check_fresh_name(name)
        sw = Switch(name, num_ports)
        sw.index = len(self._switches)
        sw.topology = self
        self._switches.append(sw)
        self._lft = np.vstack([self._lft, np.full(self._lft.shape[1], LFT_UNSET, np.int16)])
        self._nodes[name] = sw
        self._touch_switch_graph()
        return sw

    def add_hca(self, name: str, num_ports: int = 1) -> HCA:
        """Create and register an HCA."""
        self._check_fresh_name(name)
        hca = HCA(name, num_ports)
        hca.index = len(self._hcas)
        self._hcas.append(hca)
        self._uncabled.add(hca)
        self._nodes[name] = hca
        return hca

    def connect(
        self,
        a: Union[Node, str],
        port_a: int,
        b: Union[Node, str],
        port_b: int,
        *,
        latency: float = 100e-9,
    ) -> Link:
        """Cable port *port_a* of *a* to port *port_b* of *b*."""
        node_a, node_b = self._resolve(a), self._resolve(b)
        link = Link(node_a.port(port_a), node_b.port(port_b), latency=latency)
        self._links.append(link)
        if isinstance(node_a, Switch) and isinstance(node_b, Switch):
            # Only switch-to-switch cables appear in the fabric view; HCA
            # cabling (VM churn) leaves the switch graph — and hence every
            # version-keyed routing cache — untouched.
            self._touch_switch_graph(link)
        else:
            # However the cable is later pulled (remove_link or a raw
            # Link.disconnect), the table hears of it.
            link.on_unplug = self._reattach
            self._reattach(link)
        return link

    def add_link(
        self,
        a: Union[Node, str],
        port_a: int,
        b: Union[Node, str],
        port_b: int,
        *,
        latency: float = 100e-9,
    ) -> Link:
        """Runtime-add a cable (mutation-first alias of :meth:`connect`).

        Switch-to-switch cables bump :attr:`version` exactly once; the
        subnet manager's state kernel records the matching routing-cache
        repair event right after this call, keeping the chain unbroken.
        """
        return self.connect(a, port_a, b, port_b, latency=latency)

    def remove_link(self, link: Link) -> Link:
        """Runtime-remove a cable: unplug it AND drop it from the registry.

        Unlike a raw ``link.disconnect()`` (the out-of-band failure path),
        this leaves no dead :class:`~repro.fabric.link.Link` behind in
        :attr:`links`, so a removed cable cannot be re-picked by chaos
        schedules or partition checks. Switch-to-switch cables bump
        :attr:`version` exactly once; HCA cables leave the switch graph —
        and every version-keyed routing cache — untouched.
        """
        if link not in self._links:
            raise TopologyError("link is not part of this topology")
        end_a, end_b = link.ends
        fabric_cable = isinstance(end_a.node, Switch) and isinstance(
            end_b.node, Switch
        )
        link.disconnect()
        self._links.remove(link)
        if fabric_cable:
            self._touch_switch_graph(link)
        return link

    def restore_link(self, link: Link, *, latency: Optional[float] = None) -> Link:
        """Re-plug a previously removed cable at its original ports.

        *link* is the object :meth:`remove_link` returned (it remembers
        its end ports). Returns the fresh :class:`~repro.fabric.link.Link`
        now cabling those ports.
        """
        end_a, end_b = link.ends
        return self.connect(
            end_a.node,
            end_a.num,
            end_b.node,
            end_b.num,
            latency=link.latency if latency is None else latency,
        )

    def auto_connect(self, a: Union[Node, str], b: Union[Node, str], **kw) -> Link:
        """Cable the first free port of *a* to the first free port of *b*."""
        node_a, node_b = self._resolve(a), self._resolve(b)
        pa = next(node_a.free_ports(), None)
        pb = next(node_b.free_ports(), None)
        if pa is None or pb is None:
            raise TopologyError(
                f"no free port on {node_a.name!r} or {node_b.name!r}"
            )
        return self.connect(node_a, pa.num, node_b, pb.num, **kw)

    def remove_switch(self, ref: Union[Node, str]) -> Switch:
        """Remove a failed switch from the subnet.

        All its cables are unplugged and the remaining switches are
        re-indexed densely. Only switches with no HCAs attached (spines,
        aggregation, core) can be removed — a dead leaf strands its hosts,
        which must be handled at the virtualization layer instead. The
        switch's own LIDs (if bound) must be released by the caller first.
        """
        node = self._resolve(ref)
        if not isinstance(node, Switch):
            raise TopologyError(f"{node.name!r} is not a switch")
        if node.attached_hcas():
            raise TopologyError(
                f"{node.name!r} still has HCAs attached; evacuate them first"
            )
        held = np.flatnonzero(self._lid_switch == node.index)
        if held.size:
            raise TopologyError(
                f"{node.name!r} still holds LID {held[0]}; release it first"
            )
        for port in list(node.connected_ports()):
            link = port.link
            if link is None:
                raise port.no_far_end()
            link.disconnect()
            self._links.remove(link)
        self._switches.remove(node)
        del self._nodes[node.name]
        # Clean detach: a removed switch keeps no forwarding or counter
        # state, so a later re-add (same name or same hardware) starts
        # from scratch and round-trips to byte-identical routing.
        self._lft = np.delete(self._lft, node.index, axis=0)
        self._lid_switch[self._lid_switch > node.index] -= 1
        for idx, sw in enumerate(self._switches):
            sw.index = idx
        node.index = -1
        node.lid = None
        node.topology = None
        for counters in node.counters.values():
            counters.reset()
        self._touch_switch_graph()
        return node

    # -- hardware LFTs ------------------------------------------------------

    @property
    def lft(self) -> np.ndarray:
        """Read-only view of the hardware LFTs, ``lft[switch.index, lid]``,
        whole 64-LID blocks wide (a LID beyond reads unset); valid until
        the next hardware write, which may replace the matrix."""
        view = self._lft.view()
        view.flags.writeable = False
        return view

    def lft_columns(self, lids: Sequence[int]) -> np.ndarray:
        """Copy of the ``(switch, len(lids))`` entries of *lids*."""
        index = np.asarray(lids, dtype=np.intp)
        if index.size and index.min() < 0:
            raise TopologyError(f"negative LID {int(index.min())}")
        out = np.full((len(self._switches), index.size), LFT_UNSET, np.int16)
        inside = index < self._lft.shape[1]
        out[:, inside] = self._lft[:, index[inside]]
        return out

    def lft_blocks(self, rows: Sequence[int], blocks: Sequence[int]) -> np.ndarray:
        """Copy of block ``blocks[i]`` of switch row ``rows[i]``, one
        64-entry row each (what SubnGet(LFT) returns)."""
        check_blocks(blocks)
        index = np.asarray(blocks, dtype=np.intp)
        out = np.full((index.size, LFT_BLOCK_SIZE), LFT_UNSET, np.int16)
        inside = index < self._lft.shape[1] // LFT_BLOCK_SIZE
        table = self._lft.reshape(len(self._switches), -1, LFT_BLOCK_SIZE)
        out[inside] = table[np.asarray(rows, dtype=np.intp)[inside], index[inside]]
        return out

    def load_lft_blocks(
        self, rows: Union[int, Sequence[int]], blocks: Sequence[int], entries: np.ndarray
    ) -> None:
        """SubnSet(LFT): block ``blocks[i]`` of switch row ``rows[i]`` (of
        row *rows* for all, given one) takes ``entries[i]``, in order (a
        block named twice keeps its last row), widening the store first. A
        few blocks — the ``m' <= 2`` of a reconfiguration — go in as slice
        copies, since one indexed assignment costs as much as four; a
        distribution's ``m`` or a delivered plan's blocks in one."""
        if entries.shape != (len(blocks), LFT_BLOCK_SIZE):
            raise TopologyError(
                f"LFT block payload must have {LFT_BLOCK_SIZE} entries"
            )
        if len(blocks) < 4:
            check_blocks(blocks)
            for row, block, entry in zip(np.broadcast_to(rows, len(blocks)), blocks, entries):
                start = block * LFT_BLOCK_SIZE
                self._lft = widen(self._lft, start)
                self._lft[row, start : start + LFT_BLOCK_SIZE] = entry
        else:
            index = np.asarray(blocks, dtype=np.intp)
            check_blocks([index.min(), index.max()])
            self._lft = widen(self._lft, int(index.max()) * LFT_BLOCK_SIZE)
            self._lft.reshape(len(self._switches), -1, LFT_BLOCK_SIZE)[rows, index] = entries

    def set_lft(self, row: int, lid: int, port: int) -> None:
        """Program one entry out of band (fault injection, tests)."""
        if not 0 < lid <= MAX_UNICAST_LID:
            raise TopologyError(f"LID {lid} outside unicast range")
        if not 0 <= port <= 255:
            raise TopologyError(f"port {port} outside 0-255")
        self._lft = widen(self._lft, lid)
        self._lft[row, lid] = port

    def _check_fresh_name(self, name: str) -> None:
        if name in self._nodes:
            raise TopologyError(f"duplicate node name {name!r}")

    def _resolve(self, ref: Union[Node, str]) -> Node:
        if isinstance(ref, Node):
            return ref
        try:
            return self._nodes[ref]
        except KeyError:
            raise TopologyError(f"unknown node {ref!r}") from None

    # -- queries ----------------------------------------------------------

    @property
    def switches(self) -> List[Switch]:
        """All switches, in dense-index order."""
        return list(self._switches)

    @property
    def hcas(self) -> List[HCA]:
        """All HCAs, in dense-index order."""
        return list(self._hcas)

    @property
    def links(self) -> List[Link]:
        """All cables."""
        return list(self._links)

    @property
    def num_switches(self) -> int:
        """Number of switches (the paper's ``n``)."""
        return len(self._switches)

    @property
    def num_hcas(self) -> int:
        """Number of HCAs."""
        return len(self._hcas)

    def node(self, name: str) -> Node:
        """Look a node up by name."""
        return self._resolve(name)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def switch_by_index(self, index: int) -> Switch:
        """Dense index -> switch."""
        try:
            return self._switches[index]
        except IndexError:
            raise TopologyError(f"no switch with index {index}") from None

    def leaf_switches(self) -> List[Switch]:
        """Switches with at least one HCA attached."""
        return [sw for sw in self._switches if sw.is_leaf]

    # -- LID registry -----------------------------------------------------

    def bind_lid(self, lid: int, port: Port) -> None:
        """Register that *lid* is reachable at *port*.

        Several LIDs may bind to the same HCA port (vSwitch), but one LID
        binds to exactly one port, and only a unicast LID binds at all.
        """
        if not 0 < lid <= MAX_UNICAST_LID:
            raise TopologyError(f"LID {lid} outside unicast range")
        if lid in self._lid_to_port:
            raise TopologyError(f"LID {lid} already bound to a port")
        self._place(lid, port)

    def unbind_lid(self, lid: int) -> None:
        """Remove *lid* from the registry."""
        if lid not in self._lid_to_port:
            raise TopologyError(f"LID {lid} is not bound")
        del self._lid_to_port[lid]
        self._lid_switch[lid] = self._lid_port[lid] = -1

    def rebind_lid(self, lid: int, port: Port) -> None:
        """Atomically move *lid* to a new port (a migrated VM's LID)."""
        if lid not in self._lid_to_port:
            raise TopologyError(f"LID {lid} is not bound")
        self._place(lid, port)

    def _place(self, lid: int, port: Port) -> None:
        if isinstance(port.node, Switch) and port.num:
            raise TopologyError(f"{port!r} carries no LID; a switch's LIDs live on port 0")
        self._lid_to_port[lid] = port
        self._attach(lid, port)

    def _reattach(self, cable: Link) -> None:
        """Re-read the attachment of every LID bound to an end of the HCA
        *cable* just plugged or unplugged, and whether its HCA is cabled."""
        for end in cable.ends:
            if not isinstance(end.node, Switch):
                self._attach([lid for lid, port in self._lid_to_port.items() if port is end], end)
                if any(p.is_connected for p in end.node.ports.values()):
                    self._uncabled.discard(end.node)
                else:
                    self._uncabled.add(end.node)

    def _attach(self, lids, port: Port) -> None:
        """Point the table at where *port* attaches, for the *lids* bound to
        it: port 0 of its own switch, else the switch port at the far end
        of the HCA port's cable; -1 when no switch is there."""
        if isinstance(port.node, Switch):
            switch, exit_port = port.node.index, 0
        elif port.link is None or not isinstance(port.remote.node, Switch):
            switch = exit_port = -1
        else:
            switch, exit_port = port.remote.node.index, port.remote.num
        self._lid_switch[lids] = switch
        self._lid_port[lids] = exit_port

    def port_of_lid(self, lid: int) -> Optional[Port]:
        """The port a LID is bound to, or None."""
        return self._lid_to_port.get(lid)

    def bound_lids(self) -> List[int]:
        """All registered LIDs, ascending."""
        return sorted(self._lid_to_port)

    @property
    def num_lids(self) -> int:
        """Number of consumed LIDs (the paper's Table I "LIDs" column)."""
        return len(self._lid_to_port)

    # -- routing-engine views ----------------------------------------------

    def fabric_view(self) -> SwitchFabricView:
        """CSR view of the switch graph. Built once; a switch-to-switch
        cable plugged or unplugged then patches it into a new view instead
        of a rebuild, while adding or removing a switch, or
        :meth:`invalidate_fabric_view`, drops it for one."""
        if self._fabric_view is None:
            self._fabric_view = self._build_fabric_view()
        return self._fabric_view

    def invalidate_fabric_view(self) -> None:
        """Drop the cached view after an out-of-band mutation (e.g. a cable
        failure disconnected through the Link object directly). Also bumps
        :attr:`version`, since the switch graph may have changed."""
        self._touch_switch_graph()

    def _build_fabric_view(self) -> SwitchFabricView:
        # (peer index, out port, in port, latency) of every inter-switch
        # cable end, grouped by switch in index order == CSR order.
        edges: List[Tuple[int, int, int, float]] = []
        indptr = [0]
        for sw in self._switches:
            for port in sw.connected_ports():
                link, peer = port.link, port.remote
                if link is None or peer is None:
                    raise port.no_far_end()
                if isinstance(peer.node, Switch):
                    edges.append(
                        (peer.node.index, port.num, peer.num, link.latency)
                    )
            indptr.append(len(edges))
        peers, out_ports, in_ports, latencies = zip(*edges) if edges else ((),) * 4
        return SwitchFabricView(
            num_switches=len(self._switches),
            indptr=np.array(indptr, dtype=np.int64),
            peer=np.array(peers, dtype=np.int32),
            out_port=np.array(out_ports, dtype=np.int32),
            in_port=np.array(in_ports, dtype=np.int32),
            link_latency=np.array(latencies, dtype=np.float64),
        )

    def terminals(self) -> Tuple[np.ndarray, np.ndarray]:
        """The terminal table up to the highest bound LID: ``lid_switch``,
        the switch each LID attaches to, and ``lid_port``, its exit port
        there (0 for a switch's own LID); both -1 for an unbound LID.
        Read-only views of the live table: copy them to keep a snapshot.

        Raises :class:`TopologyError` when a bound LID does not attach to
        a switch: it cannot be routed.
        """
        attached = self._lid_port >= 0
        count = np.count_nonzero(attached)
        if count < len(self._lid_to_port):
            bound = np.fromiter(self._lid_to_port, np.int64, len(self._lid_to_port))
            lid = int(bound[~attached[bound]][0])
            port = self._lid_to_port[lid]
            if not port.is_connected:
                raise TopologyError(f"LID {lid} bound to unplugged {port!r}")
            raise TopologyError(
                f"LID {lid} bound to {port!r} which is not attached to a"
                " switch; cannot route"
            )
        end = attached.size - int(attached[::-1].argmax()) if count else 1
        views = self._lid_switch[:end], self._lid_port[:end]
        for view in views:
            view.flags.writeable = False
        return views

    def switch_lids(self) -> np.ndarray:
        """Every switch self-LID, ascending."""
        return np.flatnonzero(self._lid_port == 0)

    def attachment(self, lid: int) -> Tuple[int, int]:
        """One LID's row of the terminal table: ``(switch, exit port)``,
        ``(-1, -1)`` when it is unbound, unattached or not unicast."""
        if not 0 < lid <= MAX_UNICAST_LID:
            return -1, -1
        return int(self._lid_switch[lid]), int(self._lid_port[lid])

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Sanity-check the physical graph.

        Raises :class:`TopologyError` on dangling HCAs, switch islands, or
        LIDs bound to unplugged ports.
        """
        if self._uncabled:
            hca = min(self._uncabled, key=lambda h: h.index)
            raise TopologyError(f"HCA {hca.name!r} has no cable")
        missing = self.fabric_view().unreached()
        if missing:
            names = [self._switches[i].name for i in missing[:5]]
            raise TopologyError(
                f"switch fabric is disconnected; unreachable: {names}"
            )
        self.terminals()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Topology {self.name!r}: {self.num_switches} switches,"
            f" {self.num_hcas} HCAs, {len(self._links)} links,"
            f" {self.num_lids} LIDs>"
        )


def _patched_view(view: SwitchFabricView, cable: Link) -> Optional[SwitchFabricView]:
    """*view* with switch-to-switch *cable* added (it is plugged) or taken
    out (it is not): one entry in each end's CSR row, at its port's place
    in port order — what :meth:`Topology._build_fabric_view` gives. The
    arrays are new, so *view* stays a frozen snapshot. None when *view*
    does not hold the cable's ends as expected (an out-of-band change it
    was never told about): the caller then rebuilds."""
    plugged = cable.a.link is cable
    # (row, port, peer, peer port) of both ends, in row order: two
    # insertions at one flat position then land in row order too.
    ends = sorted(
        (near.node.index, near.num, far.node.index, far.num)
        for near, far in (cable.ends, cable.ends[::-1])
    )
    indptr = view.indptr.copy()
    at = []
    for row, port, _, _ in ends:
        lo, hi = view.indptr[row], view.indptr[row + 1]
        ports = view.out_port[lo:hi]
        slot = int(np.searchsorted(ports, port))
        if (slot < ports.size and int(ports[slot]) == port) == plugged:
            return None
        at.append(lo + slot)
        indptr[row + 1 :] += 1 if plugged else -1
    columns = (view.peer, view.out_port, view.in_port, view.link_latency)
    if plugged:
        entries = [(peer, port, far, cable.latency) for _, port, peer, far in ends]
        peer, out_port, in_port, latency = (
            np.insert(a, at, [entry[i] for entry in entries])
            for i, a in enumerate(columns)
        )
    else:
        peer, out_port, in_port, latency = (np.delete(a, at) for a in columns)
    return SwitchFabricView(view.num_switches, indptr, peer, out_port, in_port, latency)
