"""Static fabric invariant checks over LFT contents — no packet simulation.

Every check here works on a :class:`FabricSnapshot`: the CSR switch graph
plus one dense ``(num_switches, top_lid + 1)`` port matrix (either the
switches' hardware LFTs or a routing engine's
:class:`~repro.sm.routing.base.RoutingTables`). The reachability checks
iterate a **successor matrix** — state ``succ[s, j]`` is where a packet
sitting at switch ``s`` for destination column ``j`` goes next — by
repeated composition (``succ = succ[succ]``), so after ``ceil(log2 n)``
doublings every packet has either been absorbed (delivered, black-holed,
misdelivered) or is provably on a forwarding loop. One pass classifies
all ``n * |LIDs|`` (source, destination) pairs with NumPy gathers; no
per-path Python walk happens. This pass *is* the delivery half of
:func:`repro.analysis.verification.verify_subnet` (the per-path walker it
replaced is the oracle ``tests/oracles/delivery.py``).

The lane-indexed deadlock checks of
:mod:`repro.analysis.static.vl_checks` build their channel dependencies
from the same successor matrices, and the legality checks here read the
same hops as ``a -> b -> c`` triples
(:func:`~repro.sm.routing.cdg_array.two_hops`): :func:`_successor_matrices`
is the one place ``src/repro`` follows a port matrix. By convention the
CDG and legality checks cover **terminal (endpoint) LIDs only**
(:meth:`FabricSnapshot.scope`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import LFT_UNSET, NO_LANE
from repro.errors import StaticAnalysisError
from repro.fabric.graph import port_to_peer
from repro.fabric.lft import widen
from repro.fabric.topology import SwitchFabricView, Topology
from repro.sm.routing.base import RoutingTables
from repro.sm.routing.cdg_array import two_hops
from repro.analysis.static.findings import Finding

__all__ = [
    "FabricSnapshot",
    "check_reachability",
    "check_updn_legality",
    "check_dor_order",
    "check_vswitch_lids",
    "check_skyline_disjointness",
]

#: Cap on per-rule findings so a badly broken fabric stays readable.
MAX_FINDINGS_PER_RULE = 50


@dataclass
class FabricSnapshot:
    """One fabric's routing state, frozen for offline analysis."""

    view: SwitchFabricView
    #: ``(num_switches, top_lid + 1)`` output-port matrix (LFT_UNSET = hole).
    ports: np.ndarray
    #: Destination switch per LID (-1 for unbound LIDs).
    dest_switch: np.ndarray
    #: Delivery port on the destination switch (0 = switch self-LID).
    dest_port: np.ndarray
    #: All bound LIDs, ascending.
    lids: np.ndarray
    #: Endpoint (non-switch) LIDs, ascending — the data-VL destinations.
    terminal_lids: np.ndarray
    switch_names: List[str] = field(default_factory=list)
    #: The routing engine's lane plane (LASH/DFSSSP), fitted to
    #: ``ports``' columns; ``None`` is the trivial one-lane case. Drives
    #: the lane-indexed checks of :mod:`repro.analysis.static.vl_checks`.
    lanes: Optional[np.ndarray] = None
    #: Data lanes the engine opened, and its configured ceiling.
    num_vls: int = 1
    max_vls: int = 1
    #: Dense ``(num_switches, 256)`` port -> peer-switch map (-1 = exit).
    _peer_of: Optional[np.ndarray] = None

    @property
    def num_switches(self) -> int:
        """Switch count."""
        return self.view.num_switches

    def name_of(self, switch_index: int) -> Optional[str]:
        """Best-effort switch name for findings."""
        if 0 <= switch_index < len(self.switch_names):
            return self.switch_names[switch_index]
        return None

    def with_lanes(self, tables: Optional[RoutingTables]) -> "FabricSnapshot":
        """This snapshot with the lane plane of *tables* (none without
        one), widened or cut to the port matrix's columns."""
        if tables is None or tables.lanes is None:
            return replace(self, lanes=None, num_vls=1, max_vls=1)
        width = self.ports.shape[1]
        return replace(
            self,
            lanes=widen(tables.lanes, width - 1, NO_LANE)[:, :width],
            num_vls=tables.num_vls,
            max_vls=tables.max_vls,
        )

    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        ports: Optional[np.ndarray] = None,
        *,
        tables: Optional[RoutingTables] = None,
    ) -> "FabricSnapshot":
        """Snapshot *topology*; ``ports`` defaults to the hardware LFTs
        (a read-only view of :attr:`Topology.lft`, valid until the next
        hardware write).

        Passing an engine's ``RoutingTables.ports`` analyses the *intended*
        routing instead of the programmed one — both views matter: the SM's
        function must be correct, and the switches must agree with it.
        ``tables`` carries the engine's lane plane into the snapshot for
        the per-VL checks (:meth:`with_lanes`).
        """
        terminals = topology.terminals()
        switch_lids = topology.switch_lids()
        all_lids = sorted(
            [t.lid for t in terminals] + list(switch_lids)
        )
        if ports is not None and all_lids and all_lids[-1] >= ports.shape[1]:
            uncovered = [lid for lid in all_lids if lid >= ports.shape[1]]
            raise StaticAnalysisError(
                f"supplied port table is {ports.shape[1]} columns wide but"
                f" the fabric binds {len(uncovered)} LID(s) beyond it"
                f" (e.g. {uncovered[:8]}); widen the table — those LIDs"
                " would otherwise be silently skipped"
            )
        if ports is None:  # a copy only when a bound LID lies beyond the store
            ports = widen(topology.lft, all_lids[-1] if all_lids else 0)
        width = ports.shape[1]
        dest_switch = np.full(width, -1, dtype=np.int32)
        dest_port = np.full(width, -1, dtype=np.int32)
        for t in terminals:
            if t.lid < width:
                dest_switch[t.lid] = t.switch_index
                dest_port[t.lid] = t.switch_port
        for lid, sw_idx in switch_lids.items():
            if lid < width:
                dest_switch[lid] = sw_idx
                dest_port[lid] = 0
        return cls(
            view=topology.fabric_view(),
            ports=ports,
            dest_switch=dest_switch,
            dest_port=dest_port,
            lids=np.asarray(
                [lid for lid in all_lids if lid < width], dtype=np.int64
            ),
            terminal_lids=np.asarray(
                sorted(t.lid for t in terminals if t.lid < width),
                dtype=np.int64,
            ),
            switch_names=[sw.name for sw in topology.switches],
        ).with_lanes(tables)

    # -- derived arrays ------------------------------------------------------

    def peer_of(self) -> np.ndarray:
        """The view's :func:`~repro.fabric.graph.port_to_peer` matrix,
        built once per snapshot."""
        if self._peer_of is None:
            self._peer_of = port_to_peer(self.view)
        return self._peer_of

    def scope(self, lids: Optional[Sequence[int]]) -> np.ndarray:
        """The validated *lids*, by default the terminal LIDs: switch
        self-LID traffic rides VL15, which has dedicated buffering and so
        cannot take part in a data-VL credit cycle or path legality."""
        return self.terminal_lids if lids is None else self.select_lids(lids)

    def select_lids(self, lids: Optional[Sequence[int]]) -> np.ndarray:
        """Validated LID column selection (default: every bound LID)."""
        if lids is None:
            return self.lids
        arr = np.asarray(sorted(set(int(lid) for lid in lids)), dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= self.ports.shape[1]):
            raise StaticAnalysisError(
                f"LID selection out of table range 0..{self.ports.shape[1] - 1}"
            )
        return arr


# Absorbing states of the successor iteration, offsets past the switches.
_DELIVERED = 0
_BLACKHOLE = 1
_MISDELIVERED = 2


def _successor_matrices(
    snap: FabricSnapshot, cols: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(succ, nxt)`` for the selected LID columns.

    ``succ[s, j]`` is the packet's next state: a switch index, or one of
    the absorbing states ``n + _DELIVERED`` / ``n + _BLACKHOLE`` /
    ``n + _MISDELIVERED``. ``nxt[s, j]`` is the next *switch* (or -1 when
    the packet leaves the switch graph) — the hop relation the dependency
    and legality checks consume.
    """
    n = snap.num_switches
    k = cols.size
    sub = snap.ports[:, cols].astype(np.int64)  # (n, k)
    valid = sub != LFT_UNSET
    peer = snap.peer_of()[
        np.arange(n)[:, None], np.where(valid, sub, 0)
    ]  # (n, k); -1 = exits the switch graph
    succ = np.where(valid, np.where(peer >= 0, peer, n + _MISDELIVERED),
                    n + _BLACKHOLE)
    # Destination-switch overrides: reaching the destination terminates the
    # walk. A terminal LID must exit through its exact attachment port; a
    # switch self-LID is delivered by arrival (port 0 is the management
    # port, same convention as the walker oracle).
    ds = snap.dest_switch[cols]  # (k,)
    dp = snap.dest_port[cols]
    at_dest = np.arange(n)[:, None] == ds[None, :]
    delivered_ok = at_dest & (
        (dp[None, :] == 0) | (valid & (sub == dp[None, :]))
    )
    # Only *programmed* entries at the destination switch can misdeliver;
    # an LFT_UNSET hole there is still a black hole (LFT002, not LFT003).
    succ = np.where(at_dest & valid, n + _MISDELIVERED, succ)
    succ = np.where(delivered_ok, n + _DELIVERED, succ)
    nxt = np.where((succ < n) & ~at_dest, succ, -1).astype(np.int64)
    return succ, nxt


def _absorb(succ: np.ndarray, n: int) -> np.ndarray:
    """Iterate the successor matrix to its absorbing classification.

    Each round composes the current map **with itself** (absorbing states
    stay fixed points), so the walked path length doubles per round:
    after ``ceil(log2(n + 1)) + 1`` rounds the walk covers more than
    ``n`` hops, and any state still inside the switch graph is on (or
    feeding) a cycle.
    """
    k = succ.shape[1]
    absorbing = np.tile(n + np.arange(3, dtype=np.int64)[:, None], (1, k))
    state = succ.copy()
    col = np.arange(k, dtype=np.int64)[None, :]
    rounds = max(1, int(np.ceil(np.log2(n + 1))) + 1)
    for _ in range(rounds):
        state = np.vstack([state, absorbing])[state, col]
    return state


def _extract_cycle(
    nxt_col: np.ndarray, start: int
) -> List[int]:
    """Follow one looping column from *start* and return the cycle switches."""
    seen: Dict[int, int] = {}
    order: List[int] = []
    cur = start
    while cur >= 0 and cur not in seen:
        seen[cur] = len(order)
        order.append(cur)
        cur = int(nxt_col[cur])
    if cur < 0:  # pragma: no cover - callers only pass looping sources
        return []
    return order[seen[cur]:]


def check_reachability(
    snap: FabricSnapshot, *, lids: Optional[Sequence[int]] = None
) -> List[Finding]:
    """LFT001-LFT004: loops, black holes, misdelivery, unreachable LIDs.

    Classifies every (source switch, destination LID) pair in one
    vectorized successor iteration and aggregates the failures per LID so
    a broken fabric produces a handful of actionable findings rather than
    ``n`` repeats.
    """
    cols = snap.select_lids(lids)
    if cols.size == 0:
        return []
    n = snap.num_switches
    succ, nxt = _successor_matrices(snap, cols)
    final = _absorb(succ, n)
    findings: List[Finding] = []
    kept: Dict[str, int] = {}
    suppressed: Dict[str, int] = {}

    def add(finding: Finding) -> None:
        # Cap findings *per rule* so one pathological rule cannot crowd
        # out (or get blamed for) the others' suppression.
        if kept.get(finding.rule, 0) >= MAX_FINDINGS_PER_RULE:
            suppressed[finding.rule] = suppressed.get(finding.rule, 0) + 1
        else:
            kept[finding.rule] = kept.get(finding.rule, 0) + 1
            findings.append(finding)

    looping = final < n
    blackholed = final == n + _BLACKHOLE
    misdelivered = final == n + _MISDELIVERED
    ds = snap.dest_switch[cols]
    rows = np.arange(n)[:, None]
    non_dest = rows != ds[None, :]
    failing = (looping | blackholed | misdelivered) & non_dest
    # The destination switch's own delivery entry: with other switches
    # around, a fault there fails every one of them (LFT004 below); on a
    # single-switch fabric it is the only place a fault can show.
    at_dest_fault = (blackholed | misdelivered) & ~non_dest
    bad_cols = np.flatnonzero((failing | at_dest_fault).any(axis=0))
    for j in bad_cols:
        lid = int(cols[j])
        dest = int(ds[j])
        fail_sources = np.flatnonzero(failing[:, j])
        if fail_sources.size and fail_sources.size == np.count_nonzero(
            non_dest[:, j]
        ):
            causes = []
            for mask, label in (
                (looping[:, j], "looping"),
                (blackholed[:, j], "black-holed"),
                (misdelivered[:, j], "misdelivered"),
            ):
                hit = int(np.count_nonzero(mask & non_dest[:, j]))
                if hit:
                    causes.append(f"{hit} {label}")
            add(
                Finding(
                    rule="LFT004",
                    lid=lid,
                    switch=dest if dest >= 0 else None,
                    switch_name=snap.name_of(dest) if dest >= 0 else None,
                    message=(
                        f"LID {lid} is unreachable from every other switch"
                        f" ({', '.join(causes)})"
                    ),
                    detail={"sources_affected": int(fail_sources.size)},
                )
            )
            continue
        if looping[:, j].any():
            src = int(np.flatnonzero(looping[:, j])[0])
            cycle = _extract_cycle(nxt[:, j], src)
            if not cycle:
                # A looping-classified source must reach a cycle by
                # following ``nxt``; walking off the graph instead means
                # the classifier and the hop relation disagree — an
                # analyzer bug, not a fabric finding.
                raise StaticAnalysisError(
                    "internal analyzer inconsistency: switch"
                    f" {src} is classified as looping for LID {lid}"
                    " but no cycle is reachable from it"
                )
            add(
                Finding(
                    rule="LFT001",
                    lid=lid,
                    switch=cycle[0],
                    switch_name=snap.name_of(cycle[0]),
                    message=(
                        f"forwarding loop for LID {lid}:"
                        f" {' -> '.join(map(str, cycle + cycle[:1]))}"
                        f" ({int(np.count_nonzero(looping[:, j]))} sources"
                        " affected)"
                    ),
                    detail={
                        "cycle": cycle,
                        "sources_affected": int(
                            np.count_nonzero(looping[:, j])
                        ),
                    },
                )
            )
        if blackholed[:, j].any():
            direct = np.flatnonzero(succ[:, j] == n + _BLACKHOLE)
            site = int(direct[0]) if direct.size else int(
                np.flatnonzero(blackholed[:, j])[0]
            )
            add(
                Finding(
                    rule="LFT002",
                    lid=lid,
                    switch=site,
                    switch_name=snap.name_of(site),
                    message=(
                        f"LID {lid} black-holes at"
                        f" {direct.size} switch(es), e.g. switch {site}"
                        f" ({int(np.count_nonzero(blackholed[:, j]))}"
                        " sources affected)"
                    ),
                    detail={
                        "direct_sites": direct.tolist()[:16],
                        "sources_affected": int(
                            np.count_nonzero(blackholed[:, j])
                        ),
                    },
                )
            )
        if misdelivered[:, j].any():
            direct = np.flatnonzero(
                (succ[:, j] == n + _MISDELIVERED) & non_dest[:, j]
            )
            at_dest_mis = bool((~non_dest[:, j] & misdelivered[:, j]).any())
            site = int(direct[0]) if direct.size else dest
            add(
                Finding(
                    rule="LFT003",
                    lid=lid,
                    switch=site,
                    switch_name=snap.name_of(site) if site >= 0 else None,
                    message=(
                        f"LID {lid} exits the fabric at the wrong endpoint"
                        + (
                            " (wrong delivery port at destination switch)"
                            if at_dest_mis and not direct.size
                            else f" at switch {site}"
                        )
                    ),
                    detail={
                        "direct_sites": direct.tolist()[:16],
                        "sources_affected": int(
                            np.count_nonzero(misdelivered[:, j])
                        ),
                    },
                )
            )
    if suppressed:
        summary = ", ".join(
            f"{count} {rule}" for rule, count in sorted(suppressed.items())
        )
        findings.append(
            Finding(
                rule="META001",
                message=(
                    f"further reachability findings suppressed ({summary};"
                    f" {bad_cols.size} LIDs affected in total)"
                ),
                detail={
                    "suppressed_by_rule": dict(sorted(suppressed.items())),
                    "lids_affected": int(bad_cols.size),
                },
            )
        )
    return findings


def check_updn_legality(
    snap: FabricSnapshot,
    rank: np.ndarray,
    *,
    lids: Optional[Sequence[int]] = None,
) -> List[Finding]:
    """UPDN001: no down->up transition anywhere in the routed paths.

    *rank* is the BFS rank from the Up*/Down* root (smaller = closer to
    the root); ties break by switch index, exactly as the engine orients
    cables. A hop ``a -> b`` is *down* when ``key[b] > key[a]``; once a
    packet has moved down it must never move up again.
    """
    cols = snap.scope(lids)
    if cols.size == 0:
        return []
    n = snap.num_switches
    rank = np.asarray(rank, dtype=np.int64)
    if rank.shape != (n,):
        raise StaticAnalysisError(
            f"rank must have one entry per switch ({n}), got {rank.shape}"
        )
    key = rank * n + np.arange(n, dtype=np.int64)
    _, nxt = _successor_matrices(snap, cols)
    a, b, c, mask = two_hops(nxt)
    down_then_up = mask & (key[np.clip(b, 0, None)] > key[a]) & (
        np.where(c >= 0, key[np.clip(c, 0, None)], 0)
        < key[np.clip(b, 0, None)]
    )
    if not down_then_up.any():
        return []
    findings: List[Finding] = []
    viol_a = a[down_then_up]
    viol_b = b[down_then_up]
    viol_c = c[down_then_up]
    viol_lid = np.broadcast_to(cols[None, :], nxt.shape)[down_then_up]
    triples = np.unique(
        np.stack([viol_a, viol_b, viol_c], axis=1), axis=0
    )
    for ta, tb, tc in triples[:MAX_FINDINGS_PER_RULE].tolist():
        example = viol_lid[
            (viol_a == ta) & (viol_b == tb) & (viol_c == tc)
        ]
        findings.append(
            Finding(
                rule="UPDN001",
                switch=int(tb),
                switch_name=snap.name_of(int(tb)),
                lid=int(example[0]) if example.size else None,
                message=(
                    f"down->up transition {ta} -> {tb} -> {tc}"
                    f" ({example.size} destination LIDs take it)"
                ),
                detail={"hops": [int(ta), int(tb), int(tc)]},
            )
        )
    if triples.shape[0] > MAX_FINDINGS_PER_RULE:
        findings.append(
            Finding(
                rule="META001",
                message=(
                    f"{triples.shape[0] - MAX_FINDINGS_PER_RULE} further"
                    " down->up transitions suppressed"
                ),
                detail={
                    "suppressed_by_rule": {
                        "UPDN001": int(
                            triples.shape[0] - MAX_FINDINGS_PER_RULE
                        )
                    }
                },
            )
        )
    return findings


def check_dor_order(
    snap: FabricSnapshot,
    rows: int,
    cols_dim: int,
    *,
    lids: Optional[Sequence[int]] = None,
) -> List[Finding]:
    """DOR001: XY dimension order — no X hop after a Y hop.

    Expects the row-major switch indexing of the mesh/torus builders
    (dense index = row * cols + col), the same convention
    :class:`~repro.sm.routing.dor.DimensionOrderedRouting` routes by.
    """
    n = snap.num_switches
    if rows * cols_dim != n:
        raise StaticAnalysisError(
            f"grid {rows}x{cols_dim} does not match {n} switches"
        )
    sel = snap.scope(lids)
    if sel.size == 0:
        return []
    a, b, c, mask = two_hops(_successor_matrices(snap, sel)[1])
    ra, rb = a // cols_dim, np.clip(b, 0, None) // cols_dim
    rc = np.clip(c, 0, None) // cols_dim
    hop1_y = mask & (ra != rb)  # row changed: a Y-phase hop
    hop2_x = mask & (rb == rc) & (b != c)  # col changed: an X-phase hop
    bad = hop1_y & hop2_x
    if not bad.any():
        return []
    viol = np.unique(
        np.stack([a[bad], b[bad], c[bad]], axis=1), axis=0
    )
    findings: List[Finding] = []
    for ta, tb, tc in viol[:MAX_FINDINGS_PER_RULE].tolist():
        findings.append(
            Finding(
                rule="DOR001",
                switch=int(tb),
                switch_name=snap.name_of(int(tb)),
                message=(
                    f"Y-phase hop {ta} -> {tb} followed by X-phase hop"
                    f" {tb} -> {tc} violates XY dimension order"
                ),
                detail={"hops": [int(ta), int(tb), int(tc)]},
            )
        )
    return findings


def check_vswitch_lids(
    topology: Topology,
    vswitches: Sequence[object],
    *,
    scheme: Optional[str] = None,
) -> List[Finding]:
    """VSW001/VSW002: every vSwitch function LID resolves to its uplink.

    The vSwitch architecture's core addressing invariant (paper section
    V): the PF shares the uplink port's LID, and every VF LID — always
    present under the prepopulated scheme, present while a VM runs under
    the dynamic scheme — must be bound to the *same physical uplink port*
    so the fabric delivers all of the hypervisor's traffic through the one
    shared cable.
    """
    findings: List[Finding] = []
    for vsw in vswitches:
        uplink = vsw.uplink_port
        attach = uplink.remote
        leaf_idx = (
            attach.node.index
            if attach is not None and hasattr(attach.node, "lft")
            else None
        )
        if vsw.pf.lid != uplink.lid:
            findings.append(
                Finding(
                    rule="VSW002",
                    switch=leaf_idx,
                    message=(
                        f"{vsw.hca.name}: PF LID {vsw.pf.lid!r} disagrees"
                        f" with uplink port LID {uplink.lid!r}"
                    ),
                    detail={"hca": vsw.hca.name},
                )
            )
        for vf in vsw.vfs:
            if vf.lid is None:
                must_have = scheme == "prepopulated" or not vf.is_free
                if must_have:
                    findings.append(
                        Finding(
                            rule="VSW001",
                            switch=leaf_idx,
                            message=(
                                f"{vf.name} has no LID but"
                                + (
                                    " the prepopulated scheme requires one"
                                    if scheme == "prepopulated"
                                    else " hosts a running VM"
                                )
                            ),
                            detail={"vf": vf.name, "hca": vsw.hca.name},
                        )
                    )
                continue
            bound = topology.port_of_lid(vf.lid)
            if bound is not uplink:
                findings.append(
                    Finding(
                        rule="VSW001",
                        switch=leaf_idx,
                        lid=vf.lid,
                        message=(
                            f"{vf.name} LID {vf.lid} is bound to"
                            f" {bound!r}, not its hypervisor uplink"
                            f" {uplink!r}"
                        ),
                        detail={"vf": vf.name, "hca": vsw.hca.name},
                    )
                )
    return findings


def check_skyline_disjointness(
    skylines: Sequence[object],
) -> List[Finding]:
    """SKY001: a proposed concurrent-migration batch must be interference-free.

    Section VI-D admits concurrent migrations only when their switch
    skylines (and LID pairs) are pairwise disjoint; overlapping skylines
    would interleave SMP streams on the same switch state.
    """
    findings: List[Finding] = []
    for i in range(len(skylines)):
        for j in range(i + 1, len(skylines)):
            a, b = skylines[i], skylines[j]
            shared_switches = sorted(a.switches & b.switches)
            shared_lids = sorted(
                {a.vm_lid, a.other_lid} & {b.vm_lid, b.other_lid}
            )
            if not shared_switches and not shared_lids:
                continue
            parts = []
            if shared_switches:
                parts.append(f"switches {shared_switches[:8]}")
            if shared_lids:
                parts.append(f"LIDs {shared_lids}")
            findings.append(
                Finding(
                    rule="SKY001",
                    switch=shared_switches[0] if shared_switches else None,
                    lid=shared_lids[0] if shared_lids else None,
                    message=(
                        f"migrations #{i} (LID {a.vm_lid}) and #{j}"
                        f" (LID {b.vm_lid}) overlap on"
                        f" {' and '.join(parts)}; they must run in"
                        " separate rounds"
                    ),
                    detail={
                        "migrations": [i, j],
                        "shared_switches": shared_switches[:32],
                        "shared_lids": shared_lids,
                    },
                )
            )
    return findings
