"""Vectorized graph algorithms on the CSR switch-fabric view.

This module is the neutral home of the BFS / equal-cost-candidate kernels
shared by the routing engines (:mod:`repro.sm.routing`), the distance cache
(:mod:`repro.sm.routing.cache`) and the SMP transport
(:mod:`repro.mad.transport`). Everything here is written against the integer
arrays of :class:`~repro.fabric.topology.SwitchFabricView`; no object-graph
traversal happens in any hot loop.

The repair predicates at the bottom are the heart of the incremental
routing engine: after a link or switch failure they identify, from the
*old* all-pairs distance matrix, exactly which BFS source trees can have
changed — everything else is provably untouched and is reused as-is (see
docs/PERFORMANCE.md for the argument).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.constants import LFT_UNSET
from repro.errors import RoutingError
from repro.fabric.topology import SwitchFabricView

__all__ = [
    "bfs_distances",
    "bfs_rows",
    "bfs_tree",
    "all_pairs_switch_distances",
    "candidate_table",
    "edge_sources",
    "port_to_peer",
    "link_failure_affected_sources",
    "switch_removal_affected_sources",
    "link_addition_affected_sources",
    "switch_addition_affected_sources",
]


#: Edge ends one batch of :func:`bfs_rows` expands at most: beyond about
#: this many its level temporaries leave the cache, and a batch sweeps
#: slower than its rows one by one (a 972-switch fat-tree takes 5 a batch).
_BFS_BATCH_EDGES = 1 << 17


def bfs_distances(view: SwitchFabricView, source: int) -> np.ndarray:
    """Hop distances from *source* to every switch: one row of :func:`bfs_rows`."""
    return bfs_rows(view, [source])[0]


def bfs_rows(view: SwitchFabricView, sources: Sequence[int]) -> np.ndarray:
    """``(len(sources), n)`` hop distances, row ``i`` from ``sources[i]``
    (-1 where unreachable): one frontier-vectorized BFS over all the rows.

    Cell ``i * n + s`` is switch ``s`` as seen from ``sources[i]``; a
    level expands the CSR rows of every frontier cell at once, so a batch
    of sources pays the per-level cost once.
    """
    n = view.num_switches
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    step = max(1, _BFS_BATCH_EDGES // max(view.peer.size, 1))
    if sources.size > step:
        return np.concatenate(
            [bfs_rows(view, sources[i : i + step]) for i in range(0, sources.size, step)]
        )
    many = sources.size > 1
    dist = np.full((sources.size, n), -1, dtype=np.int32)
    flat = dist.reshape(-1)
    frontier = np.arange(sources.size, dtype=np.int64) * n + sources
    flat[frontier] = 0
    d = 0
    while frontier.size:
        # A lone row's cells are its switches: no row offset to strip.
        nodes = frontier % n if many else frontier
        starts = view.indptr[nodes]
        ends = view.indptr[nodes + 1]
        counts = ends - starts
        total = int(counts.sum())
        if total == 0:
            break
        # Expand CSR slices: absolute edge indices for the whole frontier.
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        idx = np.repeat(starts, counts) + (np.arange(total) - offsets)
        cells = view.peer[idx]
        if many:
            cells = cells + np.repeat(frontier - nodes, counts)
        fresh = cells[flat[cells] < 0]
        if fresh.size == 0:
            break
        d += 1
        flat[fresh] = d
        # Deduplicate the next frontier without a sort: every cell at
        # distance d was just stamped, so select them by value.
        frontier = np.flatnonzero(flat == d)
    return dist


def bfs_tree(
    view: SwitchFabricView, dest: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BFS in-tree toward *dest*: ``(next_hop, out_port, dist)`` per switch.

    ``next_hop[s]`` is the switch one hop closer to *dest* (-1 at *dest*
    and unreachable switches) and ``out_port[s]`` the local output port of
    that hop. The parent choice is **bit-identical** to a textbook
    deque-BFS that scans each popped switch's CSR row in order: the
    expansion below concatenates the frontier's CSR rows in frontier
    order, keeps the *first* occurrence of every newly discovered switch,
    and appends discoveries to the next frontier in that same order —
    exactly the order a FIFO queue would discover them in.
    """
    n = view.num_switches
    nxt = np.full(n, -1, dtype=np.int64)
    port = np.full(n, -1, dtype=np.int32)
    dist = np.full(n, -1, dtype=np.int64)
    dist[dest] = 0
    frontier = np.array([dest], dtype=np.int64)
    d = 0
    while frontier.size:
        starts = view.indptr[frontier]
        ends = view.indptr[frontier + 1]
        counts = ends - starts
        total = int(counts.sum())
        if total == 0:
            break
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        idx = np.repeat(starts, counts) + (np.arange(total) - offsets)
        nbrs = view.peer[idx]
        srcs = np.repeat(frontier, counts)
        unvisited = dist[nbrs] < 0
        cand = nbrs[unvisited]
        if cand.size == 0:
            break
        cand_edge = idx[unvisited]
        cand_src = srcs[unvisited]
        # First occurrence of each switch in (frontier-order, CSR-order)
        # concatenation == the deque discovery; keep discovery order.
        _, first = np.unique(cand, return_index=True)
        first.sort()
        fresh = cand[first]
        d += 1
        dist[fresh] = d
        nxt[fresh] = cand_src[first]
        # The forward edge fresh->parent uses the reverse port of the
        # discovered parent->fresh edge.
        port[fresh] = view.in_port[cand_edge[first]]
        frontier = fresh
    return nxt, port, dist


def all_pairs_switch_distances(view: SwitchFabricView) -> np.ndarray:
    """Dense (n x n) switch hop-distance matrix."""
    n = view.num_switches
    out = np.empty((n, n), dtype=np.int32)
    for s in range(n):
        out[s] = bfs_distances(view, s)
    return out


def edge_sources(view: SwitchFabricView) -> np.ndarray:
    """Source switch index of every CSR edge (the implicit row index)."""
    degrees = np.diff(view.indptr)
    return np.repeat(np.arange(view.num_switches, dtype=np.int64), degrees)


def port_to_peer(view: SwitchFabricView) -> np.ndarray:
    """Dense ``(n, 256)`` matrix: out-port -> neighbour switch (-1 = the
    port leaves the switch graph)."""
    p2p = np.full((view.num_switches, 256), -1, dtype=np.int32)
    p2p[edge_sources(view), view.out_port] = view.peer
    return p2p


#: ``(edge, destination)`` cells one batch of :func:`candidate_table`
#: compares at most, and the fewest switches worth a batch: laying fewer
#: CSR rows end to end costs more than the calls it saves, so a switch
#: whose plane is that large (every destination of a big fabric) goes
#: alone, while a repair's few planes batch many switches.
_CANDIDATE_BATCH_CELLS, _CANDIDATE_BATCH_MIN = 1 << 16, 8


def candidate_table(
    view: SwitchFabricView,
    cols: np.ndarray,
    *,
    switches: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Equal-cost next-hop ports of every switch toward many destinations.

    ``cols`` has shape ``(n, k)``: column ``j`` holds the hop distance of
    every switch to destination ``j``. Returns ``(cand, cnt)``:
    ``cand[i, j, :cnt[i, j]]`` are the output ports of switch
    ``switches[i]`` (every switch, in index order, by default) toward its
    neighbours one hop closer to destination ``j``, **in the switch's CSR
    row order**; the remaining slots hold :data:`LFT_UNSET`. The slot
    width is the view's maximum switch degree, whatever *switches* selects,
    so partial builds can be written into a full table. A destination
    switch itself, and a switch that cannot reach it, has zero candidates.

    Works in batches of switches whose ``(degree, k)`` comparisons fit
    :data:`_CANDIDATE_BATCH_CELLS` (one switch a batch when fewer than
    :data:`_CANDIDATE_BATCH_MIN` would): one comparison, rank and scatter
    per batch, so the scratch never exceeds one batch's planes.
    """
    if view.out_port.max(initial=0) >= LFT_UNSET:
        raise RoutingError(
            f"out port {int(view.out_port.max())} does not fit a uint8"
            " candidate table"
        )
    bounds = view.indptr.tolist()
    width = max(int(np.diff(view.indptr).max(initial=0)), 1)
    out_port = view.out_port.astype(np.uint8)
    rows = range(view.num_switches) if switches is None else switches
    k = cols.shape[1]
    cand = np.full((len(rows), k, width), LFT_UNSET, dtype=np.uint8)
    cnt = np.zeros((len(rows), k), dtype=np.uint8)
    per = _CANDIDATE_BATCH_CELLS // max(k * width, 1)
    if per < _CANDIDATE_BATCH_MIN:
        per = 1
    # Flat slot of (destination j, rank r) inside one switch's plane.
    base = np.arange(k, dtype=np.int32) * width - 1
    for i in range(0, len(rows), per):
        if per == 1:
            # One switch: its CSR slice, its own distances broadcast.
            s = rows[i]
            lo, hi = bounds[s], bounds[s + 1]
            if lo == hi:
                continue
            edges, own = slice(lo, hi), cols[s]
        else:
            # The batch's CSR rows end to end, each edge with its switch's row.
            sel = np.asarray(rows[i : i + per], dtype=np.int64)
            d = view.indptr[sel + 1] - view.indptr[sel]
            ends = np.cumsum(d)
            if not ends[-1]:
                continue  # a batch of switches without cables
            edges = np.repeat(view.indptr[sel] - (ends - d), d) + np.arange(ends[-1])
            own = np.repeat(cols[sel], d, axis=0)
        good = cols[view.peer[edges]] == own - 1
        good &= own > 0
        rank = np.cumsum(good, axis=0, dtype=np.int32)
        if per == 1:
            cnt[i] = rank[-1]
        else:
            # Count up to each switch's last edge; ranks restart per switch,
            # each in its own plane of the batch.
            upto = rank[ends - 1]
            upto[ends == 0] = 0
            cnt[i : i + per] = np.diff(upto, axis=0, prepend=0)
            rank -= np.repeat(upto - cnt[i : i + per], d, axis=0)
            rank += np.repeat(np.arange(len(d), dtype=np.int32) * (k * width), d)[:, None]
        rank += base
        ports = np.broadcast_to(out_port[edges, None], good.shape)
        cand[i : i + per].reshape(-1)[rank[good]] = ports[good]
    return cand, cnt


def link_failure_affected_sources(
    dist: np.ndarray,
    u: int,
    v: int,
    view: Optional[SwitchFabricView] = None,
) -> np.ndarray:
    """Boolean mask of BFS sources whose tree may change when cable
    ``(u, v)`` is removed.

    In an unweighted graph the edge lies on *some* shortest path from
    source ``s`` iff ``|dist[s, u] - dist[s, v]| == 1``; since the
    endpoints were adjacent, the only alternative is equality, and then no
    shortest path from ``s`` can use the cable — removing it cannot change
    row ``s`` of the distance matrix. Without *view* that test is the
    answer — conservative, and on bipartite fabrics (trees, fat-trees,
    meshes) it marks *every* source, because adjacent switches always sit
    at different-parity distances.

    With *view* (the fabric **after** the removal, same switch indexing as
    ``dist``) the mask is exact: distances from ``s`` change iff the lost
    cable was the *unique* predecessor edge of its far end in ``s``'s BFS
    DAG. Orient the cable ``a -> b`` so ``dist[s, a] + 1 == dist[s, b]``;
    if some surviving neighbour ``x`` of ``b`` also has
    ``dist[s, x] == dist[s, b] - 1``, every shortest path through the
    cable can be re-routed ``s -> x -> b`` (the ``s -> x`` prefix cannot
    itself cross the cable: its length is below ``dist[s, b]``), so row
    ``s`` is provably unchanged.
    """
    du = dist[:, u]
    dv = dist[:, v]
    reach = (du >= 0) & (dv >= 0)
    affected = reach & (du != dv)
    if view is None or not affected.any():
        return affected
    safe = np.zeros(dist.shape[0], dtype=bool)
    for a, b in ((u, v), (v, u)):
        da = dist[:, a]
        db = dist[:, b]
        forward = reach & (da + 1 == db)
        if not forward.any():
            continue
        lo, hi = int(view.indptr[b]), int(view.indptr[b + 1])
        nbrs = view.peer[lo:hi]  # survivors only: the cable is gone
        if nbrs.size == 0:
            continue
        alt = (dist[:, nbrs] == db[:, None] - 1).any(axis=1)
        safe |= forward & alt
    return affected & ~safe


def link_addition_affected_sources(
    dist: np.ndarray, u: int, v: int
) -> np.ndarray:
    """Boolean mask of BFS sources whose tree may change when a cable
    ``(u, v)`` is *added*.

    A new edge can only shorten paths that cross it, and a shortest path
    crosses a single edge at most once. From source ``s`` the best new
    route to any ``t`` is ``dist[s, u] + 1 + dist[v, t]`` (or the mirror),
    which beats the old ``dist[s, t] <= dist[s, v] + dist[v, t]`` only if
    ``dist[s, u] + 1 < dist[s, v]`` — so row ``s`` changes iff the
    endpoints sat more than one hop apart as seen from ``s``
    (``|dist[s, u] - dist[s, v]| >= 2``), or the edge connects a
    previously unreachable component (exactly one endpoint reachable).
    This test is exact, not conservative.
    """
    du = dist[:, u]
    dv = dist[:, v]
    ru = du >= 0
    rv = dv >= 0
    return (ru & rv & (np.abs(du - dv) >= 2)) | (ru ^ rv)


def switch_addition_affected_sources(
    dist: np.ndarray, neighbors: np.ndarray
) -> np.ndarray:
    """Boolean mask of *existing* BFS sources whose tree may change when a
    new switch is cabled to the switches in *neighbors*.

    The new switch itself is not part of *dist* (its row is computed
    fresh by the caller). An existing pair ``(s, t)`` only improves by
    routing *through* the new switch: enter via some neighbour ``x_i``,
    leave via ``x_j``, at cost ``dist[s, x_i] + 2 + dist[x_j, t]``.
    Minimizing entry and exit independently is exact: if both minima land
    on the same neighbour ``x`` the bound is
    ``dist[s, x] + 2 + dist[x, t] >= dist[s, t] + 2`` and never fires.
    Unreachable entries (``-1``) are treated as infinite, so the mask
    also catches sources that gain reachability through the new switch.
    """
    n = dist.shape[0]
    nbrs = np.asarray(neighbors, dtype=np.int64)
    if nbrs.size < 2:
        # One cable (or none): every through-path would enter and leave
        # by the same neighbour, which can never shorten anything.
        return np.zeros(n, dtype=bool)
    big = np.int64(1) << 40
    sub = dist[:, nbrs].astype(np.int64)
    sub[sub < 0] = big
    near = sub.min(axis=1)  # d(s, closest neighbour); symmetric for t
    base = dist.astype(np.int64)
    base[base < 0] = big
    improved = (near[:, None] + 2 + near[None, :]) < base
    return improved.any(axis=1)


def switch_removal_affected_sources(dist: np.ndarray, w: int) -> np.ndarray:
    """Boolean mask (old indexing, ``w`` included) of BFS sources whose
    tree may change when switch ``w`` is removed.

    Source ``s`` is affected iff some shortest path from ``s`` routes
    *through* ``w``: there exists ``t != w`` with
    ``dist[s, w] + dist[w, t] == dist[s, t]``. Sources that could not even
    reach ``w`` are trivially unaffected.
    """
    n = dist.shape[0]
    dw_col = dist[:, w]
    dw_row = dist[w]
    reach_s = dw_col >= 0
    through = (dw_col[:, None] + dw_row[None, :]) == dist
    through &= reach_s[:, None] & (dw_row >= 0)[None, :] & (dist >= 0)
    through[:, w] = False
    affected = through.any(axis=1) & reach_s
    affected[w] = False
    return affected
