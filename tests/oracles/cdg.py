"""The dict/DFS channel dependency graph — oracle for the array kernel."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import DeadlockError
from repro.sm.deadlock import Channel, Dependency

__all__ = ["ChannelDependencyGraph"]


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
