"""Fat-tree routing — the structure-exploiting engine (OpenSM's ftree).

Uses the tree levels recorded by the fat-tree builders: traffic to a
destination LID goes *down* along the unique down-path wherever the current
switch is an ancestor of the destination's leaf, and *up* otherwise, with
the up port chosen by destination index (``lid % num_up_ports``) so that
consecutive LIDs fan out over distinct spines. That destination-indexed
spreading is what gives the prepopulated vSwitch scheme its LMC-like
multipathing (paper section V-A).

Because the down-paths are discovered by a short upward walk from each leaf
(O(ancestors) per leaf) instead of all-pairs BFS, this engine is the fastest
of the four — matching its position in the paper's Fig. 7.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

import numpy as np

from repro.errors import RoutingError
from repro.fabric.graph import candidate_table, edge_sources
from repro.sm.routing.base import (
    RoutingAlgorithm,
    RoutingRequest,
    RoutingTables,
)

__all__ = ["FatTreeRouting"]


class FatTreeRouting(RoutingAlgorithm):
    """Up/down fat-tree routing with destination-indexed up-port choice."""

    name = "ftree"

    def compute(self, request: RoutingRequest) -> RoutingTables:
        if request.level is None:
            raise RoutingError(
                "ftree needs tree levels; build the topology with a fat-tree"
                " builder (or use minhop/dfsssp for unstructured fabrics)"
            )
        view = request.view
        n = request.num_switches
        level = np.full(n, -1, dtype=np.int32)
        for idx, lvl in request.level.items():
            level[idx] = lvl
        if (level < 0).any():
            raise RoutingError("every switch needs a level for ftree")

        ports = self._empty_tables(request)

        # Per-switch up ports (to any higher-level neighbour), sorted for
        # determinism; up_adj additionally keeps (peer, reverse port) pairs
        # so the per-leaf ancestor walks touch only up edges.
        up_ports: List[List[int]] = [[] for _ in range(n)]
        up_adj: List[List[tuple]] = [[] for _ in range(n)]
        edge_src = edge_sources(view)
        going_up = level[view.peer] > level[edge_src]
        for s, port, peer, rev in zip(
            edge_src[going_up].tolist(),
            view.out_port[going_up].tolist(),
            view.peer[going_up].tolist(),
            view.in_port[going_up].tolist(),
        ):
            up_ports[s].append(port)
            up_adj[s].append((peer, rev))
        no_up = np.array([not lst for lst in up_ports])

        # LIDs handled structurally, grouped by destination leaf: every
        # terminal, plus the self-LIDs of level-0 switches (routing toward a
        # leaf switch is identical to routing toward a host below it — the
        # leaf's own LFT entry is port 0, set by _program_local_entries).
        leaf_groups: Dict[int, List[int]] = {}
        for t in request.terminals:
            leaf_groups.setdefault(t.switch_index, []).append(t.lid)
        for lid, dest_sw in request.switch_lids.items():
            if level[dest_sw] == 0:
                leaf_groups.setdefault(dest_sw, []).append(lid)

        # Up entries do not depend on the destination leaf: every switch
        # with up ports spreads all of these LIDs by lid % up_count, one
        # 1-D gather per switch ...
        leaf_lids = np.array(
            [lid for group in leaf_groups.values() for lid in group],
            dtype=np.int64,
        )
        for s, lst in enumerate(up_ports):
            if lst:
                ports[s, leaf_lids] = np.array(sorted(lst))[leaf_lids % len(lst)]
        # ... then each leaf's ancestors take the LID-independent down port
        # instead (its own row is programmed last, with the local entries).
        for leaf_idx, lid_list in leaf_groups.items():
            down = self._down_ports_toward(up_adj, leaf_idx)
            dr = np.fromiter(down, dtype=np.int64, count=len(down))
            bad = no_up.copy()
            bad[dr] = bad[leaf_idx] = False
            if bad.any():
                raise RoutingError(
                    f"switch {int(np.nonzero(bad)[0][0])} can reach leaf"
                    f" {leaf_idx} neither up nor down; not a fat-tree?"
                )
            ports[np.ix_(dr, lid_list)] = np.fromiter(
                down.values(), dtype=np.int16, count=len(down)
            )[:, None]

        # Upper-level switch self-LIDs: equal-cost min-hop columns
        # (management traffic is not bandwidth critical); their candidates
        # are one kernel call and one gather.
        lids, dest = (
            a[len(request.terminals):] for a in request.lid_arrays()
        )
        upper = level[dest] > 0
        if upper.any():
            dests, planes = np.unique(dest[upper], return_inverse=True)
            cols = self._columns_toward(request, level, dests)
            if (cols < 0).any():
                raise RoutingError("switch graph is disconnected")
            self._assign_lid_mod(
                ports, candidate_table(view, cols), lids[upper], planes
            )
        self._program_local_entries(ports, request)

        return RoutingTables(
            algorithm=self.name,
            ports=ports,
            metadata={"levels": level},
        )

    @staticmethod
    def _columns_toward(
        request: RoutingRequest, level: np.ndarray, dests: np.ndarray
    ) -> np.ndarray:
        """Hop distance of every switch to each of *dests*, one column each.

        Every path to a switch ends at one of its neighbours, so a
        destination whose neighbours all have a column already needs no
        sweep of its own: its column is their minimum plus one. Taking the
        destinations level by level, that is every level cabled only to
        the one below it (the cores of a 3-level tree); the others cost
        one BFS row each, from the shared cache when one is attached —
        this is where ftree undercuts MinHop's all-pairs.
        """
        view = request.view
        cols = np.empty((view.num_switches, len(dests)), dtype=np.int32)
        plane = np.full(view.num_switches, -1)
        for j in np.argsort(level[dests], kind="stable").tolist():
            d = int(dests[j])
            known = plane[view.peer[view.indptr[d] : view.indptr[d + 1]]]
            if known.size and (known >= 0).all():
                cols[:, j] = cols[:, known].min(axis=1) + 1
                cols[d, j] = 0
            else:
                cols[:, j] = request.bfs_row(d)
            plane[d] = j
        return cols

    @staticmethod
    def _down_ports_toward(
        up_adj: List[List[tuple]], leaf_idx: int
    ) -> Dict[int, int]:
        """For every ancestor of *leaf_idx*, the down port toward it.

        Walks up from the leaf along the precomputed up-edge adjacency;
        each newly reached higher-level switch records the (reverse) port
        through which it was reached.
        """
        down: Dict[int, int] = {}
        q = deque([leaf_idx])
        while q:
            cur = q.popleft()
            for nb, in_port in up_adj[cur]:
                if nb not in down:
                    down[nb] = in_port
                    q.append(nb)
        return down
