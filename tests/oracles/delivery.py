"""The per-path LFT walker — oracle for the delivery half of the audit.

Walks the hardware LFTs hop by hop, every bound LID from every switch,
exactly as ``verify_delivery`` did before the audit moved onto the
successor-matrix classifier (``check_reachability``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.constants import LFT_UNSET
from repro.errors import ReproError
from repro.fabric.node import Switch
from repro.fabric.topology import Topology

__all__ = ["walk_delivery", "faulty_lids"]


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
                    if dest_port != 0 and cur.lft.get(lid) != dest_port:
                        faults.append(
                            (lid, f"wrong delivery port at {cur.name}")
                        )
                    break
                out = cur.lft.get(lid)
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
