"""Pure-Python DFSSSP — the byte-identity oracle for
:class:`repro.sm.routing.dfsssp.DFSSSPRouting`.

A heapq Dijkstra per destination over the lexicographic (hops, weight)
metric, subtree sizes by explicit child-before-parent order, and the
dict/DFS CDG for layering: the original implementation, none of the
level-sweep or array-CDG kernels.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import RoutingError
from repro.sm.routing.base import RoutingRequest, RoutingTables
from repro.sm.routing.dfsssp import DFSSSPRouting, _reverse_edge_index
from repro.sm.routing.vl import MANAGEMENT_VL, NO_LANE
from tests.oracles.cdg import ChannelDependencyGraph
from tests.oracles.terminals import endpoints, switch_lids

__all__ = ["ReferenceDFSSSPRouting"]


class ReferenceDFSSSPRouting(DFSSSPRouting):
    """:class:`DFSSSPRouting` computed the slow way."""

    def compute(self, request: RoutingRequest) -> RoutingTables:
        view = request.view
        ports = self._empty_tables(request)
        self._program_local_entries(ports, request)
        weights = np.ones(len(view.peer), dtype=np.float64)
        rev = _reverse_edge_index(view)

        terminals = endpoints(request)
        terminal_lids = {t.lid for t in terminals}
        dests: List[Tuple[int, int]] = []  # (lid, dest switch)
        for t in terminals:
            dests.append((t.lid, t.switch_index))
        for lid, sw in switch_lids(request).items():
            dests.append((lid, sw))
        dests.sort()

        lid_to_vl: Dict[int, int] = {}
        num_vls_used = 1
        layers = [ChannelDependencyGraph() for _ in range(self.max_vls)]
        for lid, dest_sw in dests:
            parent_edge = _dijkstra_tree(view, weights, dest_sw)
            self._apply_tree(
                request, view, ports, lid, dest_sw, parent_edge
            )
            _update_weights(view, weights, rev, dest_sw, parent_edge)
            if lid in terminal_lids:
                vl = _assign_layer(view, layers, parent_edge)
                lid_to_vl[lid] = vl
                num_vls_used = max(num_vls_used, vl + 1)
            else:
                lid_to_vl[lid] = MANAGEMENT_VL

        lanes = np.full(ports.shape, NO_LANE, dtype=np.int8)
        for lid, vl in lid_to_vl.items():
            lanes[:, lid] = vl
        return RoutingTables(
            algorithm=self.name,
            ports=ports,
            num_vls=num_vls_used,
            metadata={"edge_weights": weights},
            lanes=lanes,
            max_vls=self.max_vls,
        )


def _assign_layer(
    view, layers: List[ChannelDependencyGraph], parent_edge: np.ndarray
) -> int:
    """First layer that stays acyclic with this destination's deps."""
    deps = _tree_dependencies(view, parent_edge)
    for vl, cdg in enumerate(layers):
        if cdg.try_add_dependencies(deps):
            return vl
    raise RoutingError(
        f"DFSSSP exceeded {len(layers)} virtual lanes; fabric too twisted"
    )


def _dijkstra_tree(view, weights: np.ndarray, dest: int) -> np.ndarray:
    """Shortest-path in-tree toward *dest*.

    Returns ``parent_edge``: for each switch, the CSR index of the edge
    (next hop -> switch) on its shortest path to *dest* (-1 at *dest*).
    Run *from* the destination over the reversed graph — identical
    because the graph is symmetric.

    The metric is lexicographic (hop count, accumulated weight): paths
    stay *minimal in hops* and the balancing weights only break ties
    among minimal paths. This is what keeps per-destination trees
    up/down-shaped on fat-trees (few virtual layers) while still
    spreading load — longer detours would both lengthen paths and
    manufacture avoidable dependency cycles.
    """
    n = view.num_switches
    hops = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    dist = np.full(n, np.inf)
    parent_edge = np.full(n, -1, dtype=np.int64)
    hops[dest] = 0
    dist[dest] = 0.0
    heap: List[Tuple[int, float, int]] = [(0, 0.0, dest)]
    done = np.zeros(n, dtype=bool)
    while heap:
        h, d, cur = heapq.heappop(heap)
        if done[cur]:
            continue
        done[cur] = True
        lo, hi = view.indptr[cur], view.indptr[cur + 1]
        for k in range(lo, hi):
            nb = int(view.peer[k])
            if done[nb]:
                continue
            # Relax the edge nb -> cur (the forward edge out of nb).
            nh, nd = h + 1, d + weights[k]
            if nh < hops[nb] or (nh == hops[nb] and nd < dist[nb]):
                hops[nb] = nh
                dist[nb] = nd
                parent_edge[nb] = k
                heapq.heappush(heap, (nh, nd, nb))
    if (~done).any():
        raise RoutingError("switch graph is disconnected")
    return parent_edge


def _update_weights(
    view, weights: np.ndarray, rev: np.ndarray, dest_sw: int,
    parent_edge: np.ndarray,
) -> None:
    """Add each tree edge's traffic share (its subtree size) to both
    directions of the cable."""
    n = view.num_switches
    size = np.ones(n, dtype=np.int64)
    for s in _tree_order(view, parent_edge, dest_sw):  # leaves first
        k = parent_edge[s]
        if k < 0:
            continue
        parent = int(view.peer[rev[k]])  # forward edge s->parent
        size[parent] += size[s]
        weights[rev[k]] += size[s]
        weights[k] += size[s]


def _tree_dependencies(
    view, parent_edge: np.ndarray
) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """Channel dependencies ((a,b) -> (b,c)) induced by the in-tree.

    ``parent_edge[s]`` encodes the edge parent->s discovered by the
    reverse Dijkstra, so the forward next hop of ``s`` is that edge's
    CSR source switch.
    """
    n = view.num_switches
    nxt = np.full(n, -1, dtype=np.int64)
    for s in range(n):
        k = parent_edge[s]
        if k >= 0:
            nxt[s] = _edge_source(view, k)
    out: List[Tuple[Tuple[int, int], Tuple[int, int]]] = []
    for s in range(n):
        b = int(nxt[s])
        if b < 0:
            continue
        c = int(nxt[b])
        if c < 0:
            continue
        out.append(((s, b), (b, c)))
    return out


def _edge_source(view, edge_idx: int) -> int:
    """The source switch of CSR edge *edge_idx* (binary search on indptr)."""
    return int(np.searchsorted(view.indptr, edge_idx, side="right") - 1)


def _tree_order(view, parent_edge: np.ndarray, dest: int) -> List[int]:
    """Switches ordered children-before-parents along the in-tree."""
    n = view.num_switches
    children: List[List[int]] = [[] for _ in range(n)]
    for s in range(n):
        k = parent_edge[s]
        if k >= 0:
            # The edge source is the *parent* (edge parent->s).
            children[_edge_source(view, k)].append(s)
    # Pre-order from dest visits parents first; reversed, children first.
    order: List[int] = []
    stack = [dest]
    while stack:
        cur = stack.pop()
        order.append(cur)
        stack.extend(children[cur])
    order.reverse()
    return order
