"""Traffic placement analysis: does a routing function balance load?

Section V-A claims prepopulated LIDs enable LMC-like multipathing and
better balancing, while section V-B concedes dynamic assignment
"compromises on the traffic balancing" (every VM shares its PF's path).
These helpers make that trade-off measurable: place a set of flows on a
routing function and report per-link loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.constants import LFT_UNSET
from repro.errors import RoutingError
from repro.fabric.graph import port_to_peer
from repro.sm.routing.base import RoutingRequest, RoutingTables

__all__ = ["LinkLoadReport", "link_loads", "all_to_all_flows"]


@dataclass
class LinkLoadReport:
    """Per-link flow counts plus balance statistics."""

    loads: Dict[Tuple[int, int], int]  # (switch_index, out_port) -> flows

    @property
    def values(self) -> np.ndarray:
        """Load vector over used links."""
        if not self.loads:
            return np.zeros(0, dtype=np.int64)
        return np.asarray(list(self.loads.values()), dtype=np.int64)

    @property
    def max_load(self) -> int:
        """Hottest link."""
        v = self.values
        return int(v.max()) if v.size else 0

    @property
    def mean_load(self) -> float:
        """Mean over used links."""
        v = self.values
        return float(v.mean()) if v.size else 0.0

    @property
    def imbalance(self) -> float:
        """max/mean ratio — 1.0 is perfectly balanced."""
        return self.max_load / self.mean_load if self.mean_load else 0.0


def all_to_all_flows(lids: Sequence[int]) -> List[Tuple[int, int]]:
    """Ordered all-to-all flow set over the given endpoint LIDs."""
    return [(a, b) for a in lids for b in lids if a != b]


def link_loads(
    tables: RoutingTables,
    request: RoutingRequest,
    flows: Sequence[Tuple[int, int]],
) -> LinkLoadReport:
    """Walk every flow through the routing and count per-link usage.

    Flows start at the source LID's attachment switch and follow the LFT
    entries for the destination LID until delivery. Only inter-switch hops
    are counted (the host links carry exactly one endpoint's traffic and
    cannot be balanced). A LID no terminal or switch owns is a
    :class:`~repro.errors.RoutingError`, as source and as destination.
    """
    def exit_of(lid: int) -> int:  # -1: unbound
        return int(request.lid_port[lid]) if 0 <= lid <= request.top_lid else -1

    view = request.view
    peer_of = port_to_peer(view)
    loads: Dict[Tuple[int, int], int] = {}
    for src_lid, dst_lid in flows:
        if exit_of(src_lid) <= 0:
            raise RoutingError(f"source LID {src_lid} has no attachment")
        if exit_of(dst_lid) < 0:
            raise RoutingError(f"destination LID {dst_lid} is not bound")
        cur = int(request.lid_switch[src_lid])
        guard = 0
        while True:
            out = tables.port_for(cur, dst_lid)
            if out == LFT_UNSET:
                raise RoutingError(
                    f"no route at switch {cur} for LID {dst_lid}"
                )
            nxt = int(peer_of[cur, out])
            if nxt < 0:
                break  # delivered off-fabric
            loads[(cur, out)] = loads.get((cur, out), 0) + 1
            cur = nxt
            guard += 1
            if guard > view.num_switches + 1:
                raise RoutingError(
                    f"loop while placing flow {src_lid}->{dst_lid}"
                )
    return LinkLoadReport(loads=loads)
