"""Pure-Python LASH — the byte-identity oracle for
:class:`repro.sm.routing.lash.LashRouting`.

Deque BFS in-trees, tuple-channel dependencies and the dict/DFS CDG: the
original implementation, pair by pair, with none of the array kernels.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import RoutingError
from repro.sm.routing.base import RoutingRequest, RoutingTables
from repro.sm.routing.lash import LashRouting
from repro.sm.routing.vl import VlAssignment
from tests.oracles.cdg import ChannelDependencyGraph, Dependency

__all__ = ["ReferenceLashRouting"]


class ReferenceLashRouting(LashRouting):
    """:class:`LashRouting` computed the slow way."""

    def compute(self, request: RoutingRequest) -> RoutingTables:
        view = request.view
        ports = self._empty_tables(request)
        self._program_local_entries(ports, request)

        # Destination switch -> LIDs terminating there.
        dest_groups: Dict[int, List[int]] = {}
        for t in request.terminals:
            dest_groups.setdefault(t.switch_index, []).append(t.lid)
        for lid, sw in request.switch_lids.items():
            dest_groups.setdefault(sw, []).append(lid)

        trees: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for t in dest_groups:
            trees[t] = _bfs_tree(view, t)
            nxt, port_arr = trees[t]
            for lid in dest_groups[t]:
                mask = nxt >= 0
                ports[mask, lid] = port_arr[mask]

        terminal_switches = sorted({t.switch_index for t in request.terminals})
        layers = [ChannelDependencyGraph() for _ in range(self.max_vls)]
        pair_to_vl: Dict[Tuple[int, int], int] = {}
        num_vls_used = 1
        for t in terminal_switches:
            nxt, _ = trees[t]
            for s in terminal_switches:
                if s == t:
                    continue
                deps = _path_dependencies(nxt, s, t)
                for vl, cdg in enumerate(layers):
                    if cdg.try_add_dependencies(deps):
                        pair_to_vl[(s, t)] = vl
                        num_vls_used = max(num_vls_used, vl + 1)
                        break
                else:
                    raise RoutingError(
                        f"LASH exceeded {self.max_vls} layers at pair {(s, t)}"
                    )

        return RoutingTables(
            algorithm=self.name,
            ports=ports,
            num_vls=num_vls_used,
            metadata={
                "pair_to_vl": pair_to_vl,
                "vl": VlAssignment(
                    kind="pair",
                    num_vls=num_vls_used,
                    max_vls=self.max_vls,
                    pair_to_vl=pair_to_vl,
                ),
            },
        )


def _bfs_tree(view, dest: int) -> Tuple[np.ndarray, np.ndarray]:
    """BFS in-tree toward *dest*: (next_hop_switch, out_port) per switch."""
    n = view.num_switches
    nxt = np.full(n, -1, dtype=np.int64)
    port = np.full(n, -1, dtype=np.int32)
    dist = np.full(n, -1, dtype=np.int64)
    dist[dest] = 0
    q = deque([dest])
    while q:
        cur = q.popleft()
        lo, hi = view.indptr[cur], view.indptr[cur + 1]
        for k in range(lo, hi):
            nb = int(view.peer[k])
            if dist[nb] < 0:
                dist[nb] = dist[cur] + 1
                nxt[nb] = cur
                # Forward edge nb->cur uses the reverse port of cur->nb.
                port[nb] = int(view.in_port[k])
                q.append(nb)
    if (dist < 0).any():
        raise RoutingError("switch graph is disconnected")
    return nxt, port


def _path_dependencies(nxt: np.ndarray, src: int, dest: int) -> List[Dependency]:
    """Dependencies of the tree path src -> dest."""
    chans: List[Tuple[int, int]] = []
    cur = src
    while cur != dest:
        b = int(nxt[cur])
        chans.append((cur, b))
        cur = b
    return [(chans[i], chans[i + 1]) for i in range(len(chans) - 1)]
