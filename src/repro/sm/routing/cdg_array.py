"""Array-backed channel-dependency graphs: the one acyclicity kernel.

A dependency set is one sorted ``int64`` key array (``src * C + dst`` over
channel ids ``0..C-1``). Everything that asks "is this CDG acyclic?" —
the LASH/DFSSSP layer search and the CDG/VLC rules of
:mod:`repro.analysis.static` — goes through the same frontier Kahn
peel (:func:`_peel`): :func:`acyclic` reads its verdict,
:func:`find_cycle` walks predecessors inside what the peel leaves over.
The rules extract their keys from a next-switch matrix with
:func:`two_hops` / :func:`dependency_keys`, which own the key format.
The dict/DFS graph this replaced is the test oracle
(``tests/oracles/cdg.py``).

:class:`ArrayCdg` is a mutable layer on top, with the acceptance
semantics of that oracle (``try_add`` commits a batch of dependencies iff
the graph stays acyclic, else leaves the layer untouched):

* channels are dense integers from :func:`channel_table` (one id per
  directed switch pair that is an actual cable, deduplicated with
  ``np.unique`` — parallel cables share a channel, exactly like the tuple
  CDG);
* batch dedupe is a ``searchsorted`` against the committed keys and
  commits are a vectorized sorted-merge ``np.insert``;
* two acyclicity detectors with the paper's two cost models.
  ``mode="levels"`` (DFSSSP) is *incremental*, mirroring the incremental
  cycle checking of Domke et al.: a longest-path level array keeps
  ``level[src] < level[dst]`` for every committed edge, batches that
  respect the levels are accepted in O(batch), and violations trigger a
  localized relabel of the affected cone (levels in an acyclic graph are
  bounded by the channel count, so a relabel pushing past ``C`` has proven
  a cycle and rolls every touched level back). ``mode="kahn"`` (LASH) runs
  the *full* peel on every attempt — the published LASH performs a
  whole-CDG acyclicity test per switch pair, which is exactly what makes
  it the slowest engine of Fig. 7, so the LASH layer keeps that
  O(pairs x CDG) shape.

Because acceptance depends only on acyclicity — a property of the
dependency *graph*, not of the detector — a layer fed the same batches in
the same order answers exactly like the tuple CDG, which is what the
byte-identity tests assert.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import RoutingError
from repro.fabric.graph import edge_sources
from repro.fabric.topology import SwitchFabricView

__all__ = [
    "ArrayCdg",
    "acyclic",
    "find_cycle",
    "channel_table",
    "channel_ids",
    "two_hops",
    "dependency_keys",
]

#: A dependency set as a graph: ``(active, indptr, dst, indeg)`` — see
#: :func:`_csr`.
_Csr = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def two_hops(
    nxt: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(a, b, c, mask)``: every two consecutive hops ``a -> b -> c``.

    ``nxt[s, j]`` is the switch a packet for destination column ``j``
    moves to from switch ``s`` (-1 when it leaves the switch graph). All
    four arrays have ``nxt``'s shape: ``a`` is the row index, ``b`` is
    ``nxt``, ``c`` the hop after ``b`` (-1 where there is none) and
    ``mask`` marks the cells where both hops stay in the switch graph.
    """
    col = np.arange(nxt.shape[1], dtype=np.int64)[None, :]
    b = nxt
    c = np.where(b >= 0, nxt[np.clip(b, 0, None), col], -1)
    a = np.broadcast_to(np.arange(nxt.shape[0], dtype=np.int64)[:, None], b.shape)
    return a, b, c, (b >= 0) & (c >= 0)


def dependency_keys(nxt: np.ndarray) -> np.ndarray:
    """Sorted unique dependency keys of a next-switch matrix.

    Channels are the codes ``a * n + b`` and every two consecutive hops
    ``a -> b -> c`` (:func:`two_hops`) yield the key
    ``(a*n + b) * n² + (b*n + c)``.
    """
    n = np.int64(nxt.shape[0])
    a, b, c, mask = two_hops(nxt)
    a, b, c = a[mask], b[mask], c[mask]
    return np.unique(((a * n + b) * n + b) * n + c)


def channel_table(view: SwitchFabricView) -> np.ndarray:
    """Sorted unique channel keys (``src * n + peer``) of every cable."""
    n = view.num_switches
    keys = edge_sources(view) * np.int64(n) + view.peer.astype(np.int64)
    return np.unique(keys)


def channel_ids(
    table: np.ndarray, a: np.ndarray, b: np.ndarray, n: int
) -> np.ndarray:
    """Dense channel ids of the directed switch pairs ``a -> b``."""
    keys = np.asarray(a, dtype=np.int64) * np.int64(n) + np.asarray(
        b, dtype=np.int64
    )
    return np.searchsorted(table, keys)


def _expand(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated index ranges ``lo[i] .. lo[i] + counts[i]``."""
    total = int(counts.sum())
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(lo, counts) + (np.arange(total) - offsets)


def _csr(keys: np.ndarray, num_channels: int) -> _Csr:
    """CSR out-adjacency and in-degrees of a sorted dependency key array,
    over the *active* channels — those some dependency mentions (the dict
    CDG's DFS walks exactly that set). Node ``i`` is channel
    ``active[i]``; routed CDGs touch a small share of a fabric's channels
    and a vanishing share of the ``n²`` channel codes, so nothing here is
    sized by *num_channels*."""
    c = np.int64(num_channels)
    active, node = np.unique(
        np.concatenate([keys // c, keys % c]), return_inverse=True
    )
    # Keys are sorted by (src, dst) and the renumbering is monotone, so
    # dst stays grouped by src.
    src, dst = node[: keys.size], node[keys.size :]
    indptr = np.zeros(active.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=active.size), out=indptr[1:])
    return active, indptr, dst, np.bincount(dst, minlength=active.size)


def _peel(csr: _Csr) -> np.ndarray:
    """Frontier-vectorized Kahn peel; returns the residual in-degrees.

    Each round removes every node whose in-degree reached zero and parks
    it at -1: in a DAG no edge can point at an already-removed node (its
    predecessors were removed first), so parked nodes never return to
    zero. What stays positive is the residue — the channels on, or
    downstream of, a cycle — and each of them keeps at least one
    predecessor inside the residue. No residue means acyclic.
    """
    _, indptr, dst, indeg = csr
    indeg = indeg.copy()
    remaining = indeg.size
    frontier = np.flatnonzero(indeg == 0)
    while frontier.size:
        indeg[frontier] = -1
        remaining -= frontier.size
        if not remaining:
            break
        lo = indptr[frontier]
        idx = _expand(lo, indptr[frontier + 1] - lo)
        indeg -= np.bincount(dst[idx], minlength=indeg.size)
        frontier = np.flatnonzero(indeg == 0)
    return indeg


def acyclic(keys: np.ndarray, num_channels: int) -> bool:
    """True iff the dependency set is acyclic.

    *keys* is the sorted unique dependency array (``src * C + dst``).
    """
    return not (_peel(_csr(keys, num_channels)) > 0).any()


def find_cycle(keys: np.ndarray, num_channels: int) -> Optional[List[int]]:
    """One dependency cycle as channel ids in edge order, or ``None``.

    Consecutive entries (and last -> first) are dependencies of *keys*.
    Which cycle is returned is unspecified.
    """
    csr = _csr(keys, num_channels)
    residue = _peel(csr) > 0
    if not residue.any():
        return None
    active, indptr, dst, _ = csr
    src = np.repeat(np.arange(active.size), np.diff(indptr))
    inside = residue[src] & residue[dst]
    pred = np.full(active.size, -1, dtype=np.int64)
    pred[dst[inside]] = src[inside]  # any one residue predecessor each
    seen: Dict[int, int] = {}
    walk: List[int] = []
    cur = int(np.flatnonzero(residue)[0])
    while cur not in seen:
        seen[cur] = len(walk)
        walk.append(cur)
        cur = int(pred[cur])
    # The walk ran against the edges; reversed, the loop reads forward.
    return active[walk[seen[cur] :][::-1]].tolist()


class ArrayCdg:
    """One virtual layer's dependency graph over dense channel ids."""

    def __init__(self, num_channels: int, *, mode: str = "levels") -> None:
        if mode not in ("levels", "kahn"):
            raise RoutingError(f"unknown ArrayCdg mode {mode!r}")
        self.num_channels = int(num_channels)
        self.mode = mode
        #: Sorted committed dependency keys ``src * C + dst``.
        self._keys = np.empty(0, dtype=np.int64)
        #: Small sorted overflow of recently committed keys ("levels" mode):
        #: merging into ``_keys`` costs O(total), so commits accumulate here
        #: and flush in bulk, keeping ingestion linear overall.
        self._tail = np.empty(0, dtype=np.int64)
        #: Longest-path level per channel ("levels" mode); invariant:
        #: ``level[src] < level[dst]`` for every committed dependency.
        self._levels = np.zeros(self.num_channels, dtype=np.int64)
        #: CSR of the committed graph ("kahn" mode). A candidate graph's
        #: CSR is built once for its test and kept if it is accepted.
        self._csr = _csr(self._keys, self.num_channels)

    @property
    def num_dependencies(self) -> int:
        """Committed (deduplicated) dependency count."""
        return int(self._keys.size) + int(self._tail.size)

    @staticmethod
    def _missing_from(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Mask of *keys* absent from the sorted array."""
        pos = np.searchsorted(sorted_keys, keys)
        known = np.zeros(keys.size, dtype=bool)
        inb = pos < sorted_keys.size
        known[inb] = sorted_keys[pos[inb]] == keys[inb]
        return ~known

    def _flush_tail(self) -> None:
        if self._tail.size:
            self._keys = np.insert(
                self._keys, np.searchsorted(self._keys, self._tail), self._tail
            )
            self._tail = np.empty(0, dtype=np.int64)

    def try_add(self, src: np.ndarray, dst: np.ndarray) -> bool:
        """Commit the dependency batch ``src[i] -> dst[i]`` iff the layer
        stays acyclic; an unchanged layer is left on rejection."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        c = np.int64(self.num_channels)
        if src.size:
            keys = np.unique(src * c + dst)
            fresh = self._missing_from(self._keys, keys)
            if self._tail.size:
                fresh &= self._missing_from(self._tail, keys)
            new = keys[fresh]
        else:
            new = np.empty(0, dtype=np.int64)
        if self.mode == "kahn":
            # Full whole-graph test per attempt, like the dict CDG (and the
            # published LASH): the committed graph alone is acyclic by
            # invariant, but the test still runs so the engine keeps its
            # O(pairs x CDG) cost profile.
            keys, csr = self._keys, self._csr
            if new.size:
                keys = np.insert(keys, np.searchsorted(keys, new), new)
                csr = _csr(keys, self.num_channels)
            if (_peel(csr) > 0).any():
                return False
            self._keys, self._csr = keys, csr
            return True
        if new.size == 0:
            return True
        nsrc = new // c
        ndst = new % c
        if (self._levels[nsrc] >= self._levels[ndst]).any():
            if not self._relabel(nsrc, ndst):
                return False
        self._tail = np.insert(
            self._tail, np.searchsorted(self._tail, new), new
        )
        if self._tail.size > 8192:
            self._flush_tail()
        return True

    # -- incremental acyclicity ("levels" mode) ------------------------------

    def _relabel(self, nsrc: np.ndarray, ndst: np.ndarray) -> bool:
        """Raise levels to absorb the pending edges; False (and a full
        rollback of every touched level) when that proves a cycle."""
        # The cone expansion below range-scans the committed keys; fold the
        # tail in first so no committed edge is missed.
        self._flush_tail()
        levels = self._levels
        c = np.int64(self.num_channels)
        saved: Dict[int, int] = {}
        frontier = ndst
        flevel = levels[nsrc] + 1
        while frontier.size:
            uniq, inv = np.unique(frontier, return_inverse=True)
            need = np.zeros(uniq.size, dtype=np.int64)
            np.maximum.at(need, inv, flevel)
            gain = need > levels[uniq]
            uniq = uniq[gain]
            need = need[gain]
            if uniq.size == 0:
                return True
            if int(need.max()) >= self.num_channels:
                # A longest path in an acyclic graph over C channels has
                # fewer than C edges: this relabel found a cycle.
                for node, old in saved.items():
                    levels[node] = old
                return False
            for node, old in zip(uniq.tolist(), levels[uniq].tolist()):
                saved.setdefault(node, old)
            levels[uniq] = need
            # Committed out-edges of the raised channels: key range
            # [u*C, (u+1)*C) in the sorted dependency array.
            lo = np.searchsorted(self._keys, uniq * c)
            hi = np.searchsorted(self._keys, (uniq + 1) * c)
            ekeys = self._keys[_expand(lo, hi - lo)]
            esrc = ekeys // c
            edst = ekeys % c
            # Pending (uncommitted) edges constrain the fixpoint too.
            pending = np.isin(nsrc, uniq)
            if pending.any():
                esrc = np.concatenate([esrc, nsrc[pending]])
                edst = np.concatenate([edst, ndst[pending]])
            need_next = levels[esrc] + 1
            push = need_next > levels[edst]
            frontier = edst[push]
            flevel = need_next[push]
        return True
