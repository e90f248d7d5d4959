"""The dict/DFS channel dependency graph — oracle for the array kernel.

:func:`lane_dependency_sets` is the per-path form of
``repro.analysis.static.lane_dependencies``: it walks every routed path
with the delivery oracle's :func:`~tests.oracles.delivery.trace_path`
and collects each lane's dependencies. :func:`routing_is_deadlock_free`
feeds them to one :class:`ChannelDependencyGraph` per lane, the per-path
form of the CDG001 / VLC001 verdicts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import DeadlockError
import numpy as np

from repro.sm.routing.base import RoutingRequest, RoutingTables
from tests.oracles.delivery import request_maps, trace_path
from tests.oracles.terminals import endpoints, switch_lids

__all__ = [
    "Channel",
    "Dependency",
    "ChannelDependencyGraph",
    "lane_dependency_sets",
    "routing_is_deadlock_free",
]

#: A directed inter-switch channel.
Channel = Tuple[int, int]
#: A dependency between two consecutive channels.
Dependency = Tuple[Channel, Channel]


class ChannelDependencyGraph:
    """A mutable CDG with transactional (all-or-nothing) inserts."""

    def __init__(self) -> None:
        self._succ: Dict[Channel, Set[Channel]] = {}

    @property
    def num_channels(self) -> int:
        """Channels mentioned so far."""
        return len(self._succ)

    @property
    def num_dependencies(self) -> int:
        """Dependency edge count."""
        return sum(len(s) for s in self._succ.values())

    def add_dependency(self, dep: Dependency) -> None:
        """Insert one dependency (no cycle check)."""
        a, b = dep
        if a[1] != b[0]:
            raise DeadlockError(f"non-consecutive channels in dependency {dep}")
        self.add_edge(a, b)

    def add_edge(self, a: Channel, b: Channel) -> None:
        """Insert an arbitrary edge — no consecutiveness check, so kernel
        tests can feed plain digraphs."""
        self._succ.setdefault(a, set()).add(b)
        self._succ.setdefault(b, set())

    def try_add_dependencies(self, deps: Iterable[Dependency]) -> bool:
        """Insert *deps* if the graph stays acyclic; rollback otherwise."""
        added: List[Dependency] = []
        created: List[Channel] = []
        for dep in deps:
            a, b = dep
            for ch in (a, b):
                if ch not in self._succ:
                    self._succ[ch] = set()
                    created.append(ch)
            if b not in self._succ[a]:
                self._succ[a].add(b)
                added.append(dep)
        if self.is_acyclic():
            return True
        for a, b in added:
            self._succ[a].discard(b)
        for ch in created:
            if not self._succ[ch] and not any(
                ch in s for s in self._succ.values()
            ):
                del self._succ[ch]
        return False

    def is_acyclic(self) -> bool:
        """True iff no dependency cycle exists (iterative colour DFS)."""
        return self.find_cycle() is None

    def find_cycle(self) -> Optional[List[Channel]]:
        """Return one cycle as a channel list, or None if acyclic."""
        WHITE, GREY, BLACK = 0, 1, 2
        colour: Dict[Channel, int] = {ch: WHITE for ch in self._succ}
        parent: Dict[Channel, Optional[Channel]] = {}
        for root in self._succ:
            if colour[root] != WHITE:
                continue
            stack: List[Tuple[Channel, Iterable[Channel]]] = [
                (root, iter(self._succ[root]))
            ]
            colour[root] = GREY
            parent[root] = None
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if colour[nxt] == WHITE:
                        colour[nxt] = GREY
                        parent[nxt] = node
                        stack.append((nxt, iter(self._succ[nxt])))
                        advanced = True
                        break
                    if colour[nxt] == GREY:
                        # Reconstruct the cycle nxt -> ... -> node -> nxt.
                        cycle = [node]
                        cur = node
                        while cur != nxt:
                            cur = parent[cur]  # type: ignore[assignment]
                            cycle.append(cur)
                        cycle.reverse()
                        return cycle
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return None


def lane_dependency_sets(
    tables: RoutingTables,
    request: RoutingRequest,
    *,
    lids: Optional[Sequence[int]] = None,
    lanes: Optional[np.ndarray] = None,
    num_vls: int = 1,
) -> Dict[int, Set[Dependency]]:
    """Each lane's dependencies, built path by path.

    Every path from every switch to every selected LID (default: all of
    the request's LIDs) adds its consecutive channel pairs to its lane:
    lane 0 without a *lanes* plane, else ``lanes[source, lid]``. A path
    without a data lane (``0 .. num_vls - 1``) adds nothing, as in the
    lane-indexed checks.
    """
    if lids is None:
        lids = [t.lid for t in endpoints(request)] + list(switch_lids(request))
    maps = request_maps(request)
    out: Dict[int, Set[Dependency]] = {}
    for lid in lids:
        for src in range(request.num_switches):
            lane = 0 if lanes is None else int(lanes[src, lid])
            if not 0 <= lane < num_vls:
                continue
            path = trace_path(tables, request, src, lid, maps=maps)
            deps = out.setdefault(lane, set())
            for a, b, c in zip(path, path[1:], path[2:]):
                deps.add(((a, b), (b, c)))
    return out


def routing_is_deadlock_free(
    tables: RoutingTables,
    request: RoutingRequest,
    *,
    lids: Optional[Sequence[int]] = None,
    lanes: Optional[np.ndarray] = None,
    num_vls: int = 1,
) -> bool:
    """Duato's condition: one CDG per lane of :func:`lane_dependency_sets`."""
    for deps in lane_dependency_sets(
        tables, request, lids=lids, lanes=lanes, num_vls=num_vls
    ).values():
        cdg = ChannelDependencyGraph()
        for dep in sorted(deps):
            cdg.add_dependency(dep)
        if not cdg.is_acyclic():
            return False
    return True
