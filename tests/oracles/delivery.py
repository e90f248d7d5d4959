"""The per-path LFT walkers — oracles for the successor-matrix kernel.

:func:`walk_delivery` walks the hardware LFTs hop by hop, every bound LID
from every switch, exactly as ``verify_delivery`` did before the audit
moved onto the successor-matrix classifier (``check_reachability``).
:func:`trace_path` / :func:`validate` walk an engine's
:class:`~repro.sm.routing.base.RoutingTables` the same way, over the
graph its :class:`~repro.sm.routing.base.RoutingRequest` snapshot; they
were the tables' own methods before every port-matrix walk in
``src/repro`` went through ``check_reachability``'s kernel.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.constants import LFT_UNSET
from repro.errors import ReproError, RoutingError, UnreachableLidError
from repro.fabric.node import Switch
from repro.fabric.topology import Topology
from repro.sm.routing.base import RoutingRequest, RoutingTables

__all__ = ["walk_delivery", "faulty_lids", "request_maps", "trace_path", "validate"]


def _delivery_map(topology: Topology) -> Dict[int, Tuple[int, int]]:
    """LID -> (destination switch index, delivery port [0 = self])."""
    out: Dict[int, Tuple[int, int]] = {}
    for lid in topology.bound_lids():
        port = topology.port_of_lid(lid)
        assert port is not None
        if isinstance(port.node, Switch) and port.num == 0:
            out[lid] = (port.node.index, 0)
        else:
            attach = port.remote
            if attach is None or not isinstance(attach.node, Switch):
                raise ReproError(f"LID {lid} bound to an unattached port")
            out[lid] = (attach.node.index, attach.num)
    return out


def walk_delivery(topology: Topology) -> List[Tuple[int, str]]:
    """Every delivery fault as ``(lid, description)``, one per bad path."""
    faults: List[Tuple[int, str]] = []
    switches = topology.switches
    p2p: Dict[Tuple[int, int], int] = {}
    for sw in switches:
        for port in sw.connected_ports():
            peer = port.remote
            assert peer is not None
            if isinstance(peer.node, Switch):
                p2p[(sw.index, port.num)] = peer.node.index
    for lid, (dest_sw, dest_port) in _delivery_map(topology).items():
        for start in switches:
            cur = start
            hops = 0
            while True:
                if cur.index == dest_sw:
                    if dest_port != 0 and cur.route(lid) != dest_port:
                        faults.append(
                            (lid, f"wrong delivery port at {cur.name}")
                        )
                    break
                out = cur.route(lid)
                if out == LFT_UNSET:
                    faults.append((lid, f"unroutable at {cur.name}"))
                    break
                nxt = p2p.get((cur.index, out))
                if nxt is None:
                    faults.append(
                        (lid, f"misdelivered off-fabric at {cur.name}")
                    )
                    break
                cur = switches[nxt]
                hops += 1
                if hops > len(switches):
                    faults.append(
                        (lid, f"forwarding loop from {start.name}")
                    )
                    break
    return faults


def faulty_lids(topology: Topology) -> List[int]:
    """The bound LIDs some switch cannot deliver, ascending."""
    return sorted({lid for lid, _ in walk_delivery(topology)})


#: ``(terminal_at, neighbor_via_port)`` of one request's snapshot.
Maps = Tuple[Dict[Tuple[int, int], FrozenSet[int]], Dict[Tuple[int, int], int]]


def request_maps(request: RoutingRequest) -> Maps:
    """``(switch, port) -> {LIDs delivered there}`` and ``(switch, port)
    -> neighbour switch`` of the request's own snapshot."""
    acc: Dict[Tuple[int, int], set] = {}
    for t in request.terminals:
        acc.setdefault((t.switch_index, t.switch_port), set()).add(t.lid)
    via: Dict[Tuple[int, int], int] = {}
    for s in range(request.num_switches):
        for nb, out in request.view.neighbors(s):
            via[(s, out)] = nb
    return {k: frozenset(v) for k, v in acc.items()}, via


def trace_path(
    tables: RoutingTables,
    request: RoutingRequest,
    src_switch: int,
    dest_lid: int,
    *,
    maps: Optional[Maps] = None,
    max_hops: int = 256,
) -> List[int]:
    """Follow the routing from *src_switch* to *dest_lid*.

    Returns the switch indices visited (starting at *src_switch*). Raises
    :class:`UnreachableLidError` on unprogrammed entries and
    :class:`RoutingError` on loops, wrong endpoints and dangling ports.
    Callers tracing many paths pass :func:`request_maps` once as *maps*.
    """
    term_at, neighbor_via_port = (
        maps if maps is not None else request_maps(request)
    )
    dest_switch = request.switch_lids.get(dest_lid)
    path = [src_switch]
    cur = src_switch
    for _ in range(max_hops):
        if dest_switch is not None and cur == dest_switch:
            return path
        out = tables.port_for(cur, dest_lid)
        if out == LFT_UNSET:
            raise UnreachableLidError(
                f"switch {cur} has no route for LID {dest_lid}"
            )
        lids_here = term_at.get((cur, out))
        if lids_here is not None:
            # Delivered off the fabric; verify it is the right endpoint.
            if dest_lid in lids_here:
                return path
            raise RoutingError(
                f"LID {dest_lid} delivered to wrong endpoint at switch"
                f" {cur} port {out}"
            )
        nxt = neighbor_via_port.get((cur, out))
        if nxt is None:
            raise RoutingError(
                f"switch {cur} port {out} for LID {dest_lid} leads nowhere"
            )
        cur = nxt
        path.append(cur)
    raise RoutingError(
        f"routing loop for LID {dest_lid} starting at switch {src_switch}:"
        f" {path[:12]}..."
    )


def validate(tables: RoutingTables, request: RoutingRequest) -> None:
    """Every LID reachable from every switch, loop-free; raises otherwise."""
    all_lids = [t.lid for t in request.terminals] + list(request.switch_lids)
    maps = request_maps(request)
    for src in range(request.num_switches):
        for lid in all_lids:
            trace_path(tables, request, src, lid, maps=maps)
