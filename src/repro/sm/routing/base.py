"""Routing engine infrastructure.

A routing engine consumes a :class:`RoutingRequest` (compact switch graph +
endpoint terminals) and produces :class:`RoutingTables`: one output port per
(switch, destination LID). The subnet manager then diffs these against the
switches' current LFTs to derive the SubnSet(LFT) SMPs to send.

The helpers here are shared across engines and are written against the CSR
arrays of :class:`~repro.fabric.topology.SwitchFabricView` so the hot loops
are NumPy-vectorized (see DESIGN.md performance notes).
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.constants import LFT_UNSET
from repro.errors import RoutingError
from repro.fabric.graph import (
    all_pairs_switch_distances,
    bfs_distances,
    candidate_table,
)
from repro.fabric.topology import SwitchFabricView, Terminal, Topology
from repro.sm.routing.cache import RoutingState
from repro.sm.routing.vl import VlAssignment

__all__ = [
    "RoutingRequest",
    "RoutingTables",
    "RoutingAlgorithm",
    "bfs_distances",
    "all_pairs_switch_distances",
    "candidate_table",
]


@dataclass
class RoutingRequest:
    """Everything a routing engine needs to compute paths.

    ``terminals`` lists every endpoint LID with its attachment switch/port;
    ``switch_lids`` maps switch self-LIDs to switch indices. ``level`` (when
    the topology was built by a fat-tree builder) maps switch index -> tree
    level for engines that exploit structure (ftree, Up*/Down* root choice).
    """

    view: SwitchFabricView
    terminals: List[Terminal]
    switch_lids: Dict[int, int]
    top_lid: int
    level: Optional[Dict[int, int]] = None
    root_indices: List[int] = field(default_factory=list)
    #: Builder parameters (e.g. mesh rows/cols) for structure-aware engines.
    hints: Dict[str, int] = field(default_factory=dict)
    #: Shared :class:`~repro.sm.routing.cache.RoutingState`; engines route
    #: all BFS/candidate work through it so repeated computations on an
    #: unchanged switch graph cost zero sweeps. ``None`` falls back to
    #: direct (still batched/vectorized) computation.
    state: Optional[RoutingState] = field(default=None, repr=False)
    _terminal_arrays: Optional[Tuple[np.ndarray, ...]] = field(
        default=None, repr=False, compare=False
    )
    _lid_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        *,
        built: Optional[object] = None,
        state: Optional[RoutingState] = None,
    ) -> "RoutingRequest":
        """Snapshot *topology* into a request.

        *built* may be a :class:`~repro.fabric.builders.fattree.BuiltTopology`
        whose level/root metadata is translated to dense switch indices.
        """
        terminals = topology.terminals()
        switch_lids = topology.switch_lids()
        lids = [t.lid for t in terminals] + list(switch_lids)
        if not lids:
            raise RoutingError("no LIDs assigned; run LID assignment first")
        level = None
        roots: List[int] = []
        hints: Dict[str, int] = {}
        if built is not None:
            # Builder metadata may reference switches that have since been
            # removed (failures); skip those.
            level = {
                topology.node(name).index: lvl
                for name, lvl in built.level.items()
                if name in topology
            }
            # Resolve roots by NAME, not by captured object: a root that
            # was removed and later re-added at runtime is a fresh Switch
            # instance, and the stale object's index (-1) would silently
            # drop it from the root set.
            roots = [
                topology.node(sw.name).index
                for sw in built.roots
                if sw.name in topology
            ]
            hints = dict(getattr(built, "params", {}) or {})
        return cls(
            view=topology.fabric_view(),
            terminals=terminals,
            switch_lids=switch_lids,
            top_lid=max(lids),
            level=level,
            root_indices=roots,
            hints=hints,
            state=state,
        )

    @property
    def num_switches(self) -> int:
        """Switch count (the paper's ``n``)."""
        return self.view.num_switches

    @property
    def num_lids(self) -> int:
        """Total consumed LIDs."""
        return len(self.terminals) + len(self.switch_lids)

    def terminals_by_switch(self) -> Dict[int, List[Terminal]]:
        """Group endpoint terminals by their attachment switch index."""
        groups: Dict[int, List[Terminal]] = {}
        for t in self.terminals:
            groups.setdefault(t.switch_index, []).append(t)
        return groups

    def dest_groups(self) -> Dict[int, List[int]]:
        """Destination switch index -> every LID terminating there.

        Covers endpoint terminals and switch self-LIDs — the grouping every
        destination-routed engine iterates.
        """
        groups: Dict[int, List[int]] = {}
        for t in self.terminals:
            groups.setdefault(t.switch_index, []).append(t.lid)
        for lid, sw in self.switch_lids.items():
            groups.setdefault(sw, []).append(lid)
        return groups

    # -- shared-cache accessors (fall back to direct computation) -----------

    def switch_distances(self) -> np.ndarray:
        """All-pairs switch distances, via the shared cache when attached."""
        if self.state is not None:
            return self.state.distances()
        return all_pairs_switch_distances(self.view)

    def bfs_row(self, source: int) -> np.ndarray:
        """Distances from one switch, via the shared cache when attached."""
        if self.state is not None:
            return self.state.row(source)
        return bfs_distances(self.view, source)

    # -- cached lookup structures -------------------------------------------

    def terminal_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lids, switch_indices, switch_ports)`` of every terminal."""
        if self._terminal_arrays is None:
            lids = np.fromiter(
                (t.lid for t in self.terminals), dtype=np.int64,
                count=len(self.terminals),
            )
            sws = np.fromiter(
                (t.switch_index for t in self.terminals), dtype=np.int64,
                count=len(self.terminals),
            )
            prts = np.fromiter(
                (t.switch_port for t in self.terminals), dtype=np.int16,
                count=len(self.terminals),
            )
            self._terminal_arrays = (lids, sws, prts)
        return self._terminal_arrays

    def lid_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(lids, dest_switch)`` of every LID: the terminals in
        :meth:`terminal_arrays` order, then the switch self-LIDs."""
        if self._lid_arrays is None:
            lids, sws, _ = self.terminal_arrays()
            self._lid_arrays = (
                np.concatenate([lids, np.fromiter(self.switch_lids, np.int64)]),
                np.concatenate([sws, np.fromiter(self.switch_lids.values(), np.int64)]),
            )
        return self._lid_arrays


@dataclass
class RoutingTables:
    """The routing function R: (switch, dest LID) -> output port.

    ``ports`` has shape ``(num_switches, top_lid + 1)``; unroutable entries
    hold :data:`~repro.constants.LFT_UNSET`. ``compute_seconds`` is the
    engine's path-computation time — the paper's ``PCt`` (Fig. 7).
    """

    algorithm: str
    ports: np.ndarray
    compute_seconds: float = 0.0
    num_vls: int = 1
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def num_switches(self) -> int:
        """Number of switch rows."""
        return self.ports.shape[0]

    @property
    def top_lid(self) -> int:
        """Largest representable LID."""
        return self.ports.shape[1] - 1

    @property
    def vl(self) -> Optional[VlAssignment]:
        """The engine's exported virtual-lane assignment, if any.

        ``None`` for single-VL engines (minhop/updn/ftree/dor), which the
        static analyzer checks as one lane; a
        :class:`~repro.sm.routing.vl.VlAssignment` for LASH/DFSSSP.
        """
        return VlAssignment.from_metadata(self.metadata)

    def vl_summary(self) -> Dict[str, Any]:
        """Lane usage summary (VLs used, pairs per VL, max layer).

        Engines that export no assignment summarize as a single data lane
        (``kind: "single"``) so Fig. 7 report rows stay uniform.
        """
        vl = self.vl
        if vl is not None:
            return vl.vl_summary()
        return {
            "kind": "single",
            "num_vls": self.num_vls,
            "max_vls": self.num_vls,
            "assignments": 0,
            "pairs_per_vl": {},
            "max_layer": max(self.num_vls - 1, 0),
        }

    def port_for(self, switch_index: int, lid: int) -> int:
        """Output port on *switch_index* for destination *lid*
        (:data:`~repro.constants.LFT_UNSET` outside ``0..top_lid``)."""
        if not 0 <= lid <= self.top_lid:
            return LFT_UNSET
        return int(self.ports[switch_index, lid])


class RoutingAlgorithm(abc.ABC):
    """Base class for routing engines."""

    #: Registry/display name, e.g. "minhop".
    name: str = "abstract"

    @abc.abstractmethod
    def compute(self, request: RoutingRequest) -> RoutingTables:
        """Compute the routing function for *request*."""

    def timed_compute(self, request: RoutingRequest) -> RoutingTables:
        """Run :meth:`compute`, stamping ``compute_seconds`` (PCt)."""
        t0 = time.perf_counter()
        tables = self.compute(request)
        tables.compute_seconds = time.perf_counter() - t0
        return tables

    def _empty_tables(self, request: RoutingRequest) -> np.ndarray:
        return np.full(
            (request.num_switches, request.top_lid + 1),
            LFT_UNSET,
            dtype=np.int16,
        )

    def _program_local_entries(
        self, ports: np.ndarray, request: RoutingRequest
    ) -> None:
        """Fill the entries every engine agrees on.

        Terminal LIDs exit at their attachment ports on their own leaf
        switch; a switch's own LID maps to port 0 (the management port).
        One fancy-indexed scatter per class of entry.
        """
        lids, sws, prts = request.terminal_arrays()
        ports[sws, lids] = prts
        lids, dest = request.lid_arrays()
        ports[dest[len(prts):], lids[len(prts):]] = 0

    @staticmethod
    def _assign_lid_mod(
        ports: np.ndarray,
        table: Tuple[np.ndarray, np.ndarray],
        lids: np.ndarray,
        planes: np.ndarray,
        rows: Optional[np.ndarray] = None,
    ) -> int:
        """Destination-indexed spreading over a candidate table.

        ``ports[s, lids[i]] = cand[s, planes[i], lids[i] % cnt[s, planes[i]]]``
        for every switch ``s`` of *rows* (ascending; default all) with candidates
        toward ``planes[i]``; cells without any (the destination switch
        itself) keep what they hold. Candidates stand in CSR row order, so
        the choice depends on the LID and the cabling alone. One flat
        gather; returns the number of cells gathered.
        """
        cand, cnt = table
        _, k, slots = cand.shape
        index = np.int32 if cand.size < 2**31 else np.intp
        order = np.argsort(lids)
        lids, planes = lids[order], planes[order]
        rows = np.arange(len(cand)) if rows is None else rows
        count = cnt[rows][:, planes]
        flat = np.remainder(lids.astype(index), np.maximum(count, 1), dtype=index)
        flat += planes.astype(index) * slots
        flat += (rows.astype(index) * (k * slots))[:, None]
        values = cand.reshape(-1)[flat]
        if len(rows) == len(ports) and len(lids) and lids[-1] - lids[0] == len(lids) - 1:
            np.copyto(ports[:, lids[0] : lids[-1] + 1], values, where=count > 0)
        else:
            at = np.ix_(rows, lids)
            ports[at] = np.where(count > 0, values, ports[at])
        return values.size


# bfs_distances / all_pairs_switch_distances / candidate_table live in
# repro.fabric.graph (shared with the SMP transport and the routing cache)
# and are re-exported above.
