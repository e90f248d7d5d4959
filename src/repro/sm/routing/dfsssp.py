"""DFSSSP routing (deadlock-free single-source shortest path).

Re-implementation of the engine of Domke, Hoefler and Nagel ("Deadlock-free
oblivious routing for arbitrary topologies", IPDPS 2011 — the paper's
reference [28]), the topology-agnostic algorithm timed in Fig. 7:

1. **SSSP phase** — destinations are processed one by one; for each, a
   Dijkstra run over the *weighted* switch graph yields the shortest-path
   in-tree, and the weight of every tree edge is increased by the number of
   sources whose path crosses it, so later destinations avoid loaded links
   (global balancing).
2. **Layering phase** — destination by destination, the channel dependencies
   induced by its in-tree are added to the current virtual layer's channel
   dependency graph; if a cycle would appear, the destination is moved to
   the next layer (escalating VL use instead of lengthening paths).

Per-destination Dijkstra plus incremental cycle checking is what makes
DFSSSP markedly slower than MinHop while staying far below LASH — the
ordering Fig. 7 shows.

The implementation exploits that the metric is lexicographic (hop count
first): every shortest-path tree is level-structured by the destination's
BFS distances, so the Dijkstra relaxation collapses into one edge-array
sweep per hop level whose winner selection reproduces a
``(hops, dist, node)`` heap's pop order bit-for-bit. Subtree sizes,
weight updates and CDG ingestion run on the same arrays
(:class:`~repro.sm.routing.cdg_array.ArrayCdg`). The original heapq
engine is the byte-identity oracle ``tests/oracles/dfsssp.py``: same
tables, VL assignments and edge weights
(tests/sm/test_vectorized_identity.py).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import RoutingError
from repro.fabric.graph import edge_sources
from repro.sm.routing.base import (
    RoutingAlgorithm,
    RoutingRequest,
    RoutingTables,
)
from repro.sm.routing.cdg_array import ArrayCdg, channel_ids, channel_table
from repro.sm.routing.vl import MANAGEMENT_VL, VlAssignment

__all__ = ["DFSSSPRouting", "MANAGEMENT_VL"]


class DFSSSPRouting(RoutingAlgorithm):
    """Weighted-SSSP routing with virtual-layer deadlock avoidance."""

    name = "dfsssp"

    def __init__(self, max_vls: int = 8) -> None:
        if max_vls < 1:
            raise RoutingError("need at least one virtual lane")
        self.max_vls = max_vls

    def compute(self, request: RoutingRequest) -> RoutingTables:
        view = request.view
        n = request.num_switches
        ports = self._empty_tables(request)
        self._program_local_entries(ports, request)

        # Edge weights, aligned with the CSR edge arrays. Symmetric updates
        # use the reverse-edge index map.
        weights = np.ones(len(view.peer), dtype=np.float64)
        rev = _reverse_edge_index(view)

        # Destination order: every consumed LID, ascending (OpenSM order).
        # Switch self-LIDs carry only management traffic, which IB segregates
        # onto the dedicated management lane (VL15); like the production
        # implementation we keep data-VL layering to endpoint destinations
        # and tag switch LIDs with the management lane.
        terminal_lids = {t.lid for t in request.terminals}
        dests: List[Tuple[int, int]] = []  # (lid, dest switch)
        for t in request.terminals:
            dests.append((t.lid, t.switch_index))
        for lid, sw in request.switch_lids.items():
            dests.append((lid, sw))
        dests.sort()

        lid_to_vl: Dict[int, int] = {}
        num_vls_used = 1

        esrc = edge_sources(view)
        table = channel_table(view)
        cid_edge = channel_ids(table, esrc, view.peer, n)
        layers = [ArrayCdg(len(table)) for _ in range(self.max_vls)]
        sweep = _LevelSweep(request, esrc)
        for lid, dest_sw in dests:
            parent_edge = sweep.tree(weights, dest_sw)
            self._apply_tree(request, view, ports, lid, dest_sw, parent_edge)
            sweep.update_weights(weights, rev, dest_sw, parent_edge)
            if lid in terminal_lids:
                vl = self._assign_layer(layers, esrc, cid_edge, rev, parent_edge)
                lid_to_vl[lid] = vl
                num_vls_used = max(num_vls_used, vl + 1)
            else:
                lid_to_vl[lid] = MANAGEMENT_VL

        return RoutingTables(
            algorithm=self.name,
            ports=ports,
            num_vls=num_vls_used,
            metadata={
                "lid_to_vl": lid_to_vl,
                "edge_weights": weights,
                "vl": VlAssignment(
                    kind="dest",
                    num_vls=num_vls_used,
                    max_vls=self.max_vls,
                    lid_to_vl=lid_to_vl,
                ),
            },
        )

    def _apply_tree(
        self,
        request: RoutingRequest,
        view,
        ports: np.ndarray,
        lid: int,
        dest_sw: int,
        parent_edge: np.ndarray,
    ) -> None:
        """Program next hops for *lid* from the in-tree."""
        # parent_edge stores the cur->s edge discovered during the reverse
        # Dijkstra; the out port at s for the forward hop is that edge's
        # in_port (the port on s).
        rows = np.flatnonzero(parent_edge >= 0)
        ports[rows, lid] = view.in_port[parent_edge[rows]]

    # -- virtual-layer assignment --------------------------------------------

    def _assign_layer(
        self,
        layers: List[ArrayCdg],
        esrc: np.ndarray,
        cid_edge: np.ndarray,
        rev: np.ndarray,
        parent_edge: np.ndarray,
    ) -> int:
        """First layer that stays acyclic with this destination's deps.

        The forward hop out of switch ``s`` is the reverse of
        ``parent_edge[s]``; consecutive hops ``s -> b -> c`` yield the
        channel dependency ``cid(s,b) -> cid(b,c)``.
        """
        has = parent_edge >= 0
        nxt = np.full(parent_edge.shape[0], -1, dtype=np.int64)
        nxt[has] = esrc[parent_edge[has]]
        s_nodes = np.flatnonzero(has)
        b_nodes = nxt[s_nodes]
        chained = nxt[b_nodes] >= 0
        s_nodes = s_nodes[chained]
        b_nodes = b_nodes[chained]
        d1 = cid_edge[rev[parent_edge[s_nodes]]]
        d2 = cid_edge[rev[parent_edge[b_nodes]]]
        for vl, cdg in enumerate(layers):
            if cdg.try_add(d1, d2):
                return vl
        raise RoutingError(
            f"DFSSSP exceeded {self.max_vls} virtual lanes; fabric too twisted"
        )


class _LevelSweep:
    """Level-synchronous shortest-path trees for one compute() run.

    The lexicographic (hops, weight) metric means a destination's tree is
    layered by its unweighted BFS distances: every tree edge goes from hop
    level ``h-1`` to ``h``, and all level-``h-1`` labels are final before
    any level-``h`` switch is settled. One pass per level then selects, for
    every level-``h`` switch, the candidate edge minimizing
    ``(dist, parent dist, edge index)`` — exactly the order the oracle's
    heap pops and relaxes, so the chosen ``parent_edge`` is bit-identical.

    Distances are sums of edge weights, weights start at one and only ever
    receive integer subtree-size increments, so every distance is an exact
    integer in float64. The sweep therefore runs on an int64 weight mirror
    and selects winners with one segmented ``np.minimum.reduceat`` over
    packed ``(dist, parent dist)`` keys — no per-level sort at all. (If a
    level's packed key would overflow int64, an equivalent stable-lexsort
    winner selection takes over; distances that large cannot occur on
    fabrics this code targets, but correctness never depends on that.)

    Hop rows are cached per destination switch (several LIDs share one),
    and the per-level edge grouping is reused while consecutive
    destinations stay on the same switch — LID assignment groups them.
    """

    def __init__(self, request: RoutingRequest, esrc: np.ndarray) -> None:
        self.request = request
        self.view = request.view
        self.esrc = esrc
        self._rows: Dict[int, np.ndarray] = {}
        self._part_sw = -1
        self._part: Optional[Tuple] = None
        #: Integer mirror of the float64 weights (kept in lock-step by
        #: :meth:`update_weights`).
        self.weights_int = np.ones(len(request.view.peer), dtype=np.int64)

    def _row(self, dest_sw: int) -> np.ndarray:
        row = self._rows.get(dest_sw)
        if row is None:
            row = self.request.bfs_row(dest_sw)
            if (row < 0).any():
                raise RoutingError("switch graph is disconnected")
            self._rows[dest_sw] = row
        return row

    def _partition(self, dest_sw: int) -> Tuple:
        """Tree edges of one destination, grouped for the level sweep.

        Edges are ordered by (child level, child switch, CSR index); groups
        are the children. Returns ``(gseg, gsrc, gw_slot, gstarts,
        gchildren, gidx, estart, gstart_of_level, node_order, nbounds,
        max_h)`` — see :meth:`tree` for how each piece is consumed.
        """
        if self._part_sw == dest_sw and self._part is not None:
            return self._part
        view = self.view
        n = np.int64(view.num_switches)
        hops = self._row(dest_sw).astype(np.int64)
        tree_mask = hops[view.peer] == hops[self.esrc] + 1
        tedges = np.flatnonzero(tree_mask)
        child = view.peer[tedges].astype(np.int64)
        # One composite stable sort: (level, child) major, CSR order kept
        # within each child's group.
        comp = hops[child] * n + child
        order = np.argsort(comp, kind="stable")
        gseg = tedges[order]
        comp_sorted = comp[order]
        gcomp, gstarts = np.unique(comp_sorted, return_index=True)
        gchildren = gcomp % n
        counts = np.diff(np.append(gstarts, comp_sorted.size))
        gidx = np.repeat(np.arange(gcomp.size, dtype=np.int64), counts)
        max_h = int(hops.max())
        # Element/group ranges per level h: levels are contiguous because
        # the sort is level-major.
        estart = np.searchsorted(comp_sorted, np.arange(1, max_h + 2) * n)
        gstart_of_level = np.searchsorted(gcomp, np.arange(1, max_h + 2) * n)
        gsrc = self.esrc[gseg]
        node_order = np.argsort(hops, kind="stable")
        nbounds = np.searchsorted(hops[node_order], np.arange(max_h + 2))
        self._part = (
            gseg, gsrc, gstarts, gchildren, gidx,
            estart, gstart_of_level, node_order, nbounds, max_h,
        )
        self._part_sw = dest_sw
        return self._part

    def tree(self, weights: np.ndarray, dest_sw: int) -> np.ndarray:
        """``parent_edge`` of the weighted shortest-path in-tree."""
        view = self.view
        n = view.num_switches
        (
            gseg, gsrc, gstarts, gchildren, gidx,
            estart, gstart_of_level, _, _, max_h,
        ) = self._partition(dest_sw)
        w_int = self.weights_int
        dist = np.zeros(n, dtype=np.int64)
        parent_edge = np.full(n, -1, dtype=np.int64)
        e_lo = 0
        g_lo = 0
        for h in range(1, max_h + 1):
            # estart[h-1] is the first edge into level h, estart[h] the
            # first into level h+1 — but levels with no edges collapse, so
            # track the low bound incrementally.
            e_hi = int(estart[h])
            g_hi = int(gstart_of_level[h])
            if e_hi == e_lo:
                e_lo, g_lo = e_hi, g_hi
                continue
            seg = gseg[e_lo:e_hi]
            pd = dist[gsrc[e_lo:e_hi]]
            nd = pd + w_int[seg]
            starts = gstarts[g_lo:g_hi] - e_lo
            children = gchildren[g_lo:g_hi]
            grp = gidx[e_lo:e_hi] - g_lo
            # Winner per child = lexicographic min (dist, parent dist,
            # CSR edge). Pack (nd, pd) into one int64 key; equal keys fall
            # back to the first (lowest CSR index) candidate because the
            # grouping preserves CSR order.
            span = int(pd.max()) + 1
            shift = span.bit_length()
            if int(nd.max()) >> (63 - shift) == 0:
                key = (nd << shift) | pd
                best = np.minimum.reduceat(key, starts)
                pos = np.arange(key.size, dtype=np.int64)
                first = np.minimum.reduceat(
                    np.where(key == best[grp], pos, key.size), starts
                )
            else:  # pragma: no cover - distances beyond 2**63 / span
                order = np.lexsort((pd, nd))
                order = order[np.argsort(grp[order], kind="stable")]
                first = order[np.searchsorted(grp[order], np.arange(len(starts)))]
            dist[children] = nd[first]
            parent_edge[children] = seg[first]
            e_lo, g_lo = e_hi, g_hi
        return parent_edge

    def update_weights(
        self,
        weights: np.ndarray,
        rev: np.ndarray,
        dest_sw: int,
        parent_edge: np.ndarray,
    ) -> None:
        """Add each tree edge's traffic share (its subtree size) to both
        directions of the cable.

        Levels are processed deepest-first, so every subtree size is final
        when added to its parent and to both cable directions; the sums are
        integers in float64, making the result independent of the in-level
        accumulation order and byte-identical to the oracle's.
        """
        n = self.view.num_switches
        part = self._partition(dest_sw)
        node_order, nbounds, max_h = part[7], part[8], part[9]
        size = np.ones(n, dtype=np.int64)
        for h in range(max_h, 0, -1):
            nodes = node_order[nbounds[h] : nbounds[h + 1]]
            ke = parent_edge[nodes]
            live = ke >= 0
            if not live.all():
                nodes = nodes[live]
                ke = ke[live]
            if ke.size == 0:
                continue
            contrib = size[nodes]
            np.add.at(size, self.esrc[ke], contrib)
            kr = rev[ke]
            self.weights_int[ke] += contrib
            self.weights_int[kr] += contrib
            fcontrib = contrib.astype(np.float64)
            weights[ke] += fcontrib
            weights[kr] += fcontrib
        # Levels partition the switches, so every tree edge was visited
        # exactly once — same single symmetric increment as the oracle's.


def _reverse_edge_index(view) -> np.ndarray:
    """For each CSR edge a->b, the index of the matching b->a edge.

    Each directed edge is keyed by (src, out_port); its reverse carries the
    key (peer, in_port). One argsort + searchsorted resolves every edge at
    once.
    """
    esrc = edge_sources(view)
    out_port = view.out_port.astype(np.int64)
    in_port = view.in_port.astype(np.int64)
    port_span = np.int64(max(int(out_port.max()), int(in_port.max())) + 1) if len(
        view.peer
    ) else np.int64(1)
    fwd_key = esrc * port_span + out_port
    rev_key = view.peer.astype(np.int64) * port_span + in_port
    order = np.argsort(fwd_key)
    return order[np.searchsorted(fwd_key[order], rev_key)]
