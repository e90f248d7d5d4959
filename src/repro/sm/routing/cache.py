"""The versioned routing-state cache and incremental BFS repair.

The paper's Fig. 7 argument is that reconfiguration cost is dominated by
path computation (PCt): every ``compute_routing`` re-ran an O(n * E) BFS
sweep even when nothing about the *switch graph* had changed (VM churn,
migrations, incremental reroutes). :class:`RoutingState` removes that cost:

* **versioned caching** — the all-pairs switch distance matrix, single BFS
  rows and the equal-cost candidate table are all keyed by
  :attr:`repro.fabric.topology.Topology.version`, which only
  switch-graph mutations bump. On an unchanged graph a repeat
  ``compute_routing`` performs **zero** BFS sweeps and builds no
  candidate row.

* **incremental repair** — after a link or switch failure the subnet
  manager records a :class:`RepairEvent`; on the next access the cache
  recomputes only the BFS source trees whose shortest paths could have
  used the failed element (see
  :func:`repro.fabric.graph.link_failure_affected_sources` /
  :func:`~repro.fabric.graph.switch_removal_affected_sources`) instead of
  all ``n`` sources. Repaired matrices are *exactly* equal to a
  from-scratch recomputation, so the routing tables built from them are
  byte-identical — the property-based tests assert this. The candidate
  table is repaired with the matrix: in the destination planes of the
  re-swept sources only the switches near a moved distance are rebuilt,
  and the rows of the touched cables' ends whole; MinHop's kept table
  fill is re-gathered at those planes and rows (and at the LID columns
  a migration or a binding moved).

All activity is counted in :class:`RoutingCacheStats`; the subnet manager
exposes the counters as ``repro_routing_cache_*`` metrics and span
attributes so PCt savings are observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.constants import LFT_UNSET
from repro.errors import RoutingError
from repro.fabric.graph import (
    bfs_distances,
    bfs_rows,
    candidate_table,
    link_addition_affected_sources,
    link_failure_affected_sources,
    switch_addition_affected_sources,
    switch_removal_affected_sources,
)
from repro.fabric.topology import SwitchFabricView, Topology
from repro.obs.spans import current_span
from repro.sm.routing.parallel import ParallelRouter

if TYPE_CHECKING:
    from repro.sm.routing.base import RoutingAlgorithm, RoutingRequest

__all__ = ["RoutingCacheStats", "RepairEvent", "RoutingState"]


@dataclass
class RoutingCacheStats:
    """Monotonic event counters for one :class:`RoutingState`."""

    #: Distance-matrix requests served from cache (incl. right after repair).
    hits: int = 0
    #: Distance-matrix requests that forced a full O(n * E) recompute.
    misses: int = 0
    #: Incremental repairs applied (one per sync that consumed events).
    repairs: int = 0
    #: Single-source BFS sweeps actually executed, from any code path.
    bfs_sweeps: int = 0
    #: BFS source trees recomputed by incremental repair (subset of sweeps).
    sources_repaired: int = 0
    #: Full matrix recomputations (same events as ``misses``).
    full_recomputes: int = 0
    #: Candidate-table requests served from cache (incl. right after repair).
    candidate_hits: int = 0
    #: Candidate-table requests that had to build the whole table.
    candidate_misses: int = 0
    #: ``(switch, LID)`` cells MinHop's lid-mod fills gathered.
    fill_cells: int = 0
    #: Candidate-table rows incremental repairs rebuilt: the switches near
    #: a moved distance (for the re-swept planes) and the cable ends.
    candidate_rows: int = 0

    def snapshot(self) -> "RoutingCacheStats":
        """A frozen copy for before/after diffing."""
        return RoutingCacheStats(**vars(self))

    def delta_since(self, before: "RoutingCacheStats") -> Dict[str, int]:
        """Counter increments since *before* was snapshot."""
        now = vars(self)
        return {k: now[k] - v for k, v in vars(before).items()}


class RepairEvent(NamedTuple):
    """One recorded topology mutation the cache can repair around.

    ``version`` is the topology version *after* the mutation. ``a``/``b``
    are switch indices in the frame right before the mutation: the cable's
    endpoints for ``kind == "link"``, the removed switch (and -1) for
    ``kind == "switch"``. The addition-side kinds mirror them:
    ``"link_add"`` records a new (or restored) inter-switch cable with
    its endpoint indices in the frame right *after* the mutation (link
    additions never re-index), and ``"switch_add"`` records a new switch
    appended at dense index ``a``. ``kind == "noop"`` advances the
    version chain without touching distances (e.g. an HCA cable failure
    handled through the same SM path).
    """

    kind: str
    a: int
    b: int
    version: int


class RoutingState:
    """Version-keyed routing caches for one topology.

    One instance is shared by the subnet manager (all-pairs distances and
    the candidate table for the routing engines) and the SMP transport (the
    single BFS row from the SM's root switch). Every public accessor first
    synchronizes with ``topology.version``: unchanged -> serve cached
    arrays; a chain of recorded :class:`RepairEvent`\\ s -> incremental
    repair; anything else -> drop and recompute lazily.
    """

    def __init__(self, topology: Topology, *, workers: int = 1) -> None:
        self.topology = topology
        self.stats = RoutingCacheStats()
        #: Sharded full recomputes (``workers > 1``); repairs stay serial —
        #: they resweep only a handful of sources by design.
        self.router = ParallelRouter(workers)
        self._version = -1
        self._pending: List[RepairEvent] = []
        self._dist: Optional[np.ndarray] = None
        self._rows: Dict[int, np.ndarray] = {}
        #: ``(cand, cnt)`` of :func:`~repro.fabric.graph.candidate_table`
        #: over the whole matrix; exists only beside ``_dist`` and is
        #: patched in place by repairs, so it is never handed out in
        #: ``RoutingTables.metadata``; callers get ``_cand_view``.
        self._cand: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._cand_view: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: MinHop's last ``ports`` over ``_cand`` (dropped with it), what
        #: it read besides, and the planes and rows repaired since.
        self._kept_fill: Optional[np.ndarray] = None
        self._fill_key = np.empty((2, 0), dtype=np.int64)
        self._moved: Tuple[Set[int], Set[int]] = (set(), set())

    # -- failure notifications ------------------------------------------------

    def note_link_failure(self, u: int, v: int) -> None:
        """Record a removed inter-switch cable (indices of its endpoints).

        Must be called right after the mutation bumped ``topology.version``.
        Pass a negative index for a non-switch endpoint; the event then
        degrades to a no-op version advance (the switch graph is unchanged
        by an HCA cable failure).
        """
        if u < 0 or v < 0:
            self._pending.append(
                RepairEvent("noop", -1, -1, self.topology.version)
            )
        else:
            self._pending.append(
                RepairEvent("link", u, v, self.topology.version)
            )

    def note_switch_removal(self, w: int) -> None:
        """Record a removed switch (its dense index *before* removal)."""
        self._pending.append(RepairEvent("switch", w, -1, self.topology.version))

    # -- addition notifications -----------------------------------------------

    def note_link_addition(self, u: int, v: int) -> None:
        """Record a newly cabled inter-switch link (endpoint indices).

        Must be called right after the ``connect`` that bumped
        ``topology.version``. A cable with a non-switch endpoint never
        bumps the version (the switch graph is untouched), so passing a
        negative index records nothing at all — the cache simply stays
        warm.
        """
        if u < 0 or v < 0:
            return
        self._pending.append(
            RepairEvent("link_add", u, v, self.topology.version)
        )

    def note_link_restored(self, u: int, v: int) -> None:
        """Record a restored (re-plugged) inter-switch cable.

        Semantically an alias of :meth:`note_link_addition` — a restored
        cable repairs exactly like a new one — kept as its own entry
        point so failure/heal call sites mirror each other.
        """
        self.note_link_addition(u, v)

    def note_switch_addition(self, w: int) -> None:
        """Record a newly added switch (its dense index *after* the add).

        New switches are appended, so existing indices are stable; the
        repair grows the matrix by one row/column, marks the new row for
        a BFS sweep, and tracks the switch's cables as they are recorded
        by subsequent :meth:`note_link_addition` calls (the through-paths
        test needs the accumulated neighbour set).
        """
        self._pending.append(
            RepairEvent("switch_add", w, -1, self.topology.version)
        )

    # -- cached accessors -------------------------------------------------------

    def distances(self) -> np.ndarray:
        """All-pairs switch hop distances, repaired or recomputed as needed."""
        self._sync()
        if self._dist is None:
            view = self.topology.fabric_view()
            self._dist = self.router.all_pairs(view)
            self.stats.bfs_sweeps += view.num_switches
            self.stats.misses += 1
            self.stats.full_recomputes += 1
        else:
            self.stats.hits += 1
        return self._dist

    def row(self, source: int) -> np.ndarray:
        """Hop distances from one switch (a single row of the matrix).

        Served from the full matrix when present, else from the per-row
        cache, else by one BFS sweep (which is then cached).
        """
        self._sync()
        if self._dist is not None:
            self.stats.hits += 1
            return self._dist[source]
        cached = self._rows.get(source)
        if cached is not None:
            self.stats.hits += 1
            return cached
        row = bfs_distances(self.topology.fabric_view(), source)
        self.stats.bfs_sweeps += 1
        self.stats.misses += 1
        self._rows[source] = row
        return row

    def candidate_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(cand, cnt)``: equal-cost ports of every switch toward every
        destination switch (see :func:`repro.fabric.graph.candidate_table`).

        Built from :meth:`distances` on a miss, repaired with them after a
        recorded mutation. Both arrays are read-only views of the ones
        repairs patch in place.
        """
        dist = self.distances()
        view = self._cand_view
        if view is None:
            self.stats.candidate_misses += 1
            cand, cnt = self._cand = candidate_table(self.topology.fabric_view(), dist)
            view = self._cand_view = (cand.view(), cnt.view())
            for part in view:
                part.flags.writeable = False
        else:
            self.stats.candidate_hits += 1
        return view

    def lid_mod_ports(self, request: RoutingRequest, engine: RoutingAlgorithm) -> np.ndarray:
        """MinHop's ``ports`` over :meth:`candidate_table`, as a copy.

        The last fill is kept with what it read besides the table: its
        shape and the request's terminal table, the destination switch and
        exit port of every LID column. Under an
        equal shape it is re-gathered only at the LID columns whose
        destination or exit moved (a migrated, bound or released LID),
        then at the planes' LID columns and the rows repaired since."""
        table = self.candidate_table()
        key = np.stack([request.lid_switch, request.lid_port])
        lids = request.lids
        dests = request.lid_switch[lids]
        ports, (planes, rows) = self._kept_fill, self._moved
        moved = "repaired" if planes or rows else "kept"
        if ports is None or ports.shape != (request.num_switches, key.shape[1]):
            labels = ("rebuilt" if ports is None else moved, "full")
            ports = engine._empty_tables(request)
            engine._program_local_entries(ports, request)
            cells = engine._assign_lid_mod(ports, table, lids, dests)
        else:
            # Columns to refill whole: LFT_UNSET, the local entry, the gather.
            changed = (key != self._fill_key).any(axis=0)
            ports[:, changed] = LFT_UNSET
            engine._program_local_entries(ports, request)
            cols = changed[lids] | np.isin(dests, sorted(planes))
            cells = engine._assign_lid_mod(ports, table, lids[cols], dests[cols])
            ends = np.array(sorted(rows), np.intp)
            cells += engine._assign_lid_mod(ports, table, lids, dests, ends)
            labels = (moved, "refill" if changed.any() or planes or rows else "kept")
        self._kept_fill, self._fill_key = ports, key
        self._moved = (set(), set())
        self.stats.fill_cells += cells
        sp = current_span()
        if sp is not None:
            sp.set_attributes(candidate=labels[0], fill=labels[1], fill_cells=cells)
        return ports.copy()

    # -- synchronization --------------------------------------------------------

    def _invalidate(self) -> None:
        self._dist = None
        self._drop_candidates()
        self._rows.clear()

    def _drop_candidates(self) -> None:
        """Forget the candidate table and the fill gathered from it."""
        self._cand = self._cand_view = self._kept_fill = None

    def _sync(self) -> None:
        v = self.topology.version
        if v == self._version:
            return
        events, self._pending = self._pending, []
        self._rows.clear()
        if self._dist is None:
            self._version = v
            return
        if not self._try_repair(events, v):
            self._invalidate()
        self._version = v

    def _try_repair(self, events: List[RepairEvent], target: int) -> bool:
        """Apply *events* to the cached matrix; False forces a recompute.

        Events must form an unbroken ``version`` chain from the cached
        version to *target* — any interleaved unrecorded mutation breaks
        the chain and the incremental path is abandoned.

        Affected-source sets are unioned first and the BFS sweeps run once
        at the end against the final fabric view. That is sound because a
        row left out of the union is (inductively) already correct at each
        event's frame, so every per-event affectedness test reads accurate
        distances for exactly the rows it gets to decide about. The one
        case where a test would read stale data — removing a switch whose
        own row is already dirty — conservatively bails to a full
        recompute.
        """
        cur = self._version
        expected = [cur + i + 1 for i in range(len(events))]
        if [e.version for e in events] != expected or (
            not events or events[-1].version != target
        ):
            return False
        if self._dist is None:
            raise RoutingError("no cached distance matrix to repair")
        # Copy-on-write: previously returned matrices (engines keep one in
        # RoutingTables.metadata) must stay frozen snapshots.
        dist = self._dist.copy()
        affected = np.zeros(dist.shape[0], dtype=bool)
        view = self.topology.fabric_view()
        # Link-removal events can use the exact unique-predecessor
        # refinement only while their frame's adjacency is a superset of
        # the final view's with matching indexing: after every deletion of
        # the chain (indexing) and before no addition (an edge added later
        # would offer "alternative predecessors" that did not exist yet).
        last_switch = max(
            (i for i, e in enumerate(events) if e.kind == "switch"),
            default=-1,
        )
        last_add = max(
            (
                i
                for i, e in enumerate(events)
                if e.kind in ("link_add", "switch_add")
            ),
            default=-1,
        )
        #: Switches appended by this chain whose rows/columns are still
        #: placeholders (swept at the end), mapped to the neighbour
        #: indices their cables have accumulated so far.
        dirty: Dict[int, List[int]] = {}
        for i, ev in enumerate(events):
            if ev.kind == "noop":
                continue
            if ev.kind == "link":
                if ev.a in dirty or ev.b in dirty:
                    # Removing a cable of a switch added earlier in the
                    # same chain: its placeholder column makes every
                    # affectedness test unreliable.
                    return False
                refine = (
                    view
                    if i > last_switch
                    and i > last_add
                    and dist.shape[0] == view.num_switches
                    else None
                )
                affected |= link_failure_affected_sources(
                    dist, ev.a, ev.b, view=refine
                )
            elif ev.kind == "link_add":
                in_a, in_b = ev.a in dirty, ev.b in dirty
                if in_a and in_b:
                    # A cable between two switches added in the same
                    # chain: through-paths would cross two placeholder
                    # columns — bail to a full recompute.
                    return False
                if in_a or in_b:
                    w, x = (ev.a, ev.b) if in_a else (ev.b, ev.a)
                    if not 0 <= x < dist.shape[0]:
                        return False
                    dirty[w].append(x)
                    affected |= switch_addition_affected_sources(
                        dist, np.asarray(dirty[w], dtype=np.int64)
                    )
                else:
                    if not (
                        0 <= ev.a < dist.shape[0]
                        and 0 <= ev.b < dist.shape[0]
                    ):
                        return False
                    affected |= link_addition_affected_sources(
                        dist, ev.a, ev.b
                    )
            elif ev.kind == "switch_add":
                if ev.a != dist.shape[0]:
                    return False
                dist = np.pad(
                    dist, ((0, 1), (0, 1)), constant_values=-1
                )
                dist[ev.a, ev.a] = 0
                affected = np.append(affected, True)
                dirty[ev.a] = []
            elif ev.kind == "switch":
                w = ev.a
                if dirty or not 0 <= w < dist.shape[0] or affected[w]:
                    # Row w is stale, a placeholder column would poison
                    # the through-w test, or the index is off.
                    return False
                affected |= switch_removal_affected_sources(dist, w)
                dist = np.delete(np.delete(dist, w, axis=0), w, axis=1)
                affected = np.delete(affected, w)
            else:  # pragma: no cover - future event kinds
                return False
        if dist.shape[0] != view.num_switches:
            return False
        srcs = np.flatnonzero(affected)
        dist[srcs] = bfs_rows(view, srcs)
        # Unaffected rows still hold placeholder entries toward switches
        # added by this chain; hop distances are symmetric, so their
        # freshly swept rows fill those columns exactly.
        for w in dirty:
            dist[:, w] = dist[w, :]
        old, self._dist = self._dist, dist
        self._repair_candidates(events, view, old, dist, srcs)
        self.stats.bfs_sweeps += len(srcs)
        self.stats.sources_repaired += len(srcs)
        self.stats.repairs += 1
        return True

    def _repair_candidates(
        self,
        events: List[RepairEvent],
        view: SwitchFabricView,
        old: np.ndarray,
        dist: np.ndarray,
        srcs: np.ndarray,
    ) -> None:
        """Bring the candidate table in line with the repaired *dist*.

        Distances are symmetric, so the re-swept rows *srcs* are exactly
        the destination columns that can have changed. In their planes a
        switch's candidates move only where its own distance or a
        neighbour's did, so the rows rebuilt there are the switches whose
        distance to a re-swept plane moved (*old* against *dist*) and
        their neighbours. Both ends of every removed or added cable are
        rebuilt for every destination — a column whose distances did not
        move still loses or gains the cable as a candidate there. A chain
        that re-indexed switches, or a table narrower than the new maximum
        degree, drops the table for a lazy rebuild. The re-swept planes and
        the end rows are added to the moved set the kept fill is re-filled at.
        """
        if self._cand is None:
            return
        if any(ev.kind in ("switch", "switch_add") for ev in events):
            self._drop_candidates()
            return
        ends = sorted(
            {s for ev in events if ev.kind != "noop" for s in (ev.a, ev.b)}
        )
        if not ends:
            return  # only noops: no cable moved, no source was re-swept
        cand, cnt = self._cand
        rows, row_cnt = candidate_table(view, dist, switches=ends)
        width = rows.shape[2]
        if width > cand.shape[2]:
            self._drop_candidates()
            return
        near = (old[:, srcs] != dist[:, srcs]).any(axis=1)
        near[view.peer[np.repeat(near, np.diff(view.indptr))]] = True
        near[ends] = False  # rebuilt whole below
        plane_rows = np.flatnonzero(near)
        if len(plane_rows):
            at = plane_rows[:, None]
            cand[at, srcs, :width], cnt[at, srcs] = candidate_table(
                view, dist[:, srcs], switches=plane_rows.tolist()
            )
        # The kernel pads to the view's maximum degree; a table built
        # before that degree shrank is wider. Only a switch that lost a
        # cable can hold ports in the slots beyond, so only the end rows
        # need the rest padded by hand.
        cand[ends, :, width:] = LFT_UNSET
        cand[ends, :, :width], cnt[ends] = rows, row_cnt
        self.stats.candidate_rows += len(plane_rows) + len(ends)
        self._moved[0].update(srcs.tolist())
        self._moved[1].update(ends)
