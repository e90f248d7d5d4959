"""LASH routing (LAyered SHortest path).

LASH guarantees deadlock freedom on arbitrary topologies by assigning each
source/destination *switch pair* to a virtual layer such that every layer's
channel dependency graph stays acyclic; paths themselves are plain shortest
paths. The layer search tries each existing layer in turn (with an
acyclicity test per attempt) and opens a new one on failure — an
O(pairs x layers x CDG) procedure that makes LASH by far the slowest engine
in the paper's Fig. 7 (39145 s at 11664 nodes vs 67 s for MinHop).

Destination-based LFTs force all sources' paths to one destination to form
an in-tree, so we derive per-destination BFS trees first and the pair
(s, t) path is the tree path — exactly how OpenSM's LASH keeps LFT
consistency.

The in-trees come from the frontier-vectorized
:func:`repro.fabric.graph.bfs_tree` kernel and the per-pair layer search
runs against :class:`~repro.sm.routing.cdg_array.ArrayCdg` — the
pair-by-pair structure (the paper's LASH cost model) is preserved, only
the per-pair acyclicity bookkeeping lives on integer arrays. The original
pure-Python engine (deque BFS, tuple dicts + DFS) is the byte-identity
oracle ``tests/oracles/lash.py``: same tables, same VL assignments
(asserted by tests/sm/test_vectorized_identity.py).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.errors import RoutingError
from repro.fabric.graph import bfs_tree
from repro.sm.routing.base import (
    RoutingAlgorithm,
    RoutingRequest,
    RoutingTables,
)
from repro.sm.routing.cdg_array import ArrayCdg, channel_ids, channel_table
from repro.sm.routing.vl import MANAGEMENT_VL, NO_LANE

__all__ = ["LashRouting"]


class LashRouting(RoutingAlgorithm):
    """Shortest-path routing with per-(src,dst) virtual-layer assignment."""

    name = "lash"

    def __init__(self, max_vls: int = 8) -> None:
        if max_vls < 1:
            raise RoutingError("need at least one virtual lane")
        self.max_vls = max_vls

    def compute(self, request: RoutingRequest) -> RoutingTables:
        view = request.view
        n = request.num_switches
        ports = self._empty_tables(request)
        self._program_local_entries(ports, request)

        dest_groups = request.dest_groups()

        # Per-destination-switch BFS in-trees (CSR kernel, parent choice
        # identical to the oracle's deque BFS): nxt[t][s] = next-hop
        # switch, port_to[t][s] = out port at s.
        trees: Dict[int, np.ndarray] = {}
        for t in dest_groups:
            nxt, port_arr, dist = bfs_tree(view, t)
            if (dist < 0).any():
                raise RoutingError("switch graph is disconnected")
            trees[t] = nxt
            rows = np.flatnonzero(nxt >= 0)
            cols = np.asarray(dest_groups[t], dtype=np.int64)
            ports[rows[:, None], cols[None, :]] = port_arr[rows][:, None]

        # Layer assignment per (source, destination) switch pair. Traffic
        # originates at hosts and terminates at hosts, so only pairs of
        # terminal-bearing (leaf) switches need data-VL layering; paths to
        # switch self-LIDs carry management traffic on VL15 (as in
        # :mod:`repro.sm.routing.dfsssp`).
        terminal_switches = sorted({t.switch_index for t in request.terminals})
        table = channel_table(view)
        # "kahn" mode = a full acyclicity test per pair attempt, the
        # published LASH cost model (and what keeps it Fig. 7's slowest).
        layers = [
            ArrayCdg(len(table), mode="kahn") for _ in range(self.max_vls)
        ]
        # layer[s, t]: the lane of switch pair (s, t); a switch's own
        # terminals ride lane 0 (their path crosses no channel).
        layer = np.full((n, n), NO_LANE, dtype=np.int8)
        layer[terminal_switches, terminal_switches] = 0
        num_vls_used = 1
        for t in terminal_switches:
            nxt = trees[t]
            # Channel id of the tree hop out of each switch, as a plain
            # list for the pointer-chasing pair loop below.
            hop_nodes = np.flatnonzero(nxt >= 0)
            cid_arr = np.full(n, -1, dtype=np.int64)
            cid_arr[hop_nodes] = channel_ids(
                table, hop_nodes, nxt[hop_nodes], n
            )
            nxt_l = nxt.tolist()
            cid_l = cid_arr.tolist()
            for s in terminal_switches:
                if s == t:
                    continue
                chain: List[int] = []
                cur = s
                while cur != t:
                    chain.append(cid_l[cur])
                    cur = nxt_l[cur]
                d1 = np.asarray(chain[:-1], dtype=np.int64)
                d2 = np.asarray(chain[1:], dtype=np.int64)
                for vl, cdg in enumerate(layers):
                    if cdg.try_add(d1, d2):
                        layer[s, t] = vl
                        num_vls_used = max(num_vls_used, vl + 1)
                        break
                else:
                    raise RoutingError(
                        f"LASH exceeded {self.max_vls} layers at pair {(s, t)}"
                    )

        # lanes[s, lid] = layer(s, switch(lid)); switch self-LIDs carry
        # management traffic on VL15 from every row.
        lids, dest = request.lid_arrays()
        k = len(request.terminals)
        lanes = np.full(ports.shape, NO_LANE, dtype=np.int8)
        lanes[:, lids[:k]] = layer[:, dest[:k]]
        lanes[:, lids[k:]] = MANAGEMENT_VL
        return RoutingTables(
            algorithm=self.name,
            ports=ports,
            num_vls=num_vls_used,
            lanes=lanes,
            max_vls=self.max_vls,
        )
