"""Per-virtual-lane channel-dependency checks (VLC001-VLC004).

The single-VL CDG001 check treats all traffic as sharing one buffer pool,
so LASH- or DFSSSP-routed rings/tori — deadlock-free *by construction*
through virtual-lane layering — looked deadlocked to PR 3's analyzer.
This module rebuilds each data lane's channel-dependency graph from the
engine's exported :class:`~repro.sm.routing.vl.VlAssignment` and proves
Duato's condition per lane:

* **VLC001** — every data VL's CDG is acyclic (CDG001 generalized to
  "acyclic on every lane").
* **VLC002** — escape-channel sufficiency: every assignment references a
  lane that exists and is applied consistently along the whole path.
  (Routing is destination-based, so one assignment governs a path
  end-to-end; the per-port lane table built here is the SL2VL-style
  artifact switches would be programmed with.)
* **VLC003** — capacity legality: layer count within ``max_vls`` and no
  terminal pair/LID left without an assignment.
* **VLC004** — the §VI-C union-CDG transition check per lane: during a
  reconfiguration, old and new dependency sets must union acyclically on
  every data VL.

Construction rides the same machinery as the reachability checks: one
:func:`~repro.analysis.static.checks._successor_matrices` pass (CSR
kernels underneath), channel ids via the sorted
:func:`~repro.sm.routing.cdg_array.channel_table`, and acyclicity via
the Kahn peel of :mod:`repro.sm.routing.cdg_array` — the same kernel
that powers :class:`~repro.sm.routing.cdg_array.ArrayCdg`. The only
Python loop is per *destination switch* (pair-keyed assignments) — never
per edge — and that loop shards over worker processes through the same
:func:`~repro.sm.routing.parallel.shard_map` as the all-pairs BFS, with a
byte-identical serial fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.errors import StaticAnalysisError
from repro.sm.routing.cdg_array import channel_ids, channel_table, two_hops
from repro.sm.routing.parallel import shard_map
from repro.sm.routing.vl import MANAGEMENT_VL, VlAssignment
from repro.analysis.static.checks import (
    MAX_FINDINGS_PER_RULE,
    FabricSnapshot,
    _cycle_finding,
    _dependency_pairs,
    _successor_matrices,
)
from repro.analysis.static.findings import Finding

__all__ = [
    "PerVlDependencies",
    "build_per_vl_dependencies",
    "check_vl_deadlock_freedom",
    "check_vl_consistency",
    "check_vl_capacity",
    "check_vl_transition_deadlock",
]

#: Data lanes are tracked as bits of an int64 mask; IB's 4-bit VL field
#: tops out at 15 anyway, so this bound is never the binding one.
MAX_DATA_VLS = 62


@dataclass
class PerVlDependencies:
    """Each data lane's dependency set, plus the per-port lane table.

    ``keys_by_vl[v]`` holds VL ``v``'s sorted unique dependency keys
    (``from_cid * num_channels + to_cid`` over the dense channel ids of
    ``channel_tbl``) — exactly the encoding the Kahn kernel consumes.
    ``port_lanes`` is the SL2VL-style artifact: bit ``v`` of
    ``port_lanes[s, p]`` is set iff some flow crosses switch ``s``'s port
    ``p`` on data VL ``v``.
    """

    num_vls: int
    num_channels: int
    #: Sorted unique cable keys (``src * n + peer``), shared by all lanes.
    channel_tbl: np.ndarray
    keys_by_vl: List[np.ndarray]
    #: ``(num_switches, 256)`` int64 bitmask of data VLs per out port.
    port_lanes: np.ndarray

    def dependency_counts(self) -> List[int]:
        """Dependencies per data lane (metrics feed)."""
        return [int(k.size) for k in self.keys_by_vl]


def _require_vl(snap: FabricSnapshot) -> VlAssignment:
    vl = snap.vl
    if vl is None:
        raise StaticAnalysisError(
            "snapshot carries no VL assignment; single-VL fabrics are"
            " covered by check_deadlock_freedom (CDG001)"
        )
    if vl.num_vls > MAX_DATA_VLS:
        raise StaticAnalysisError(
            f"{vl.num_vls} data VLs exceed the {MAX_DATA_VLS}-lane"
            " analysis bound"
        )
    return vl


def build_per_vl_dependencies(
    snap: FabricSnapshot, *, workers: int = 1
) -> PerVlDependencies:
    """Split the fabric's channel dependencies by assigned data lane.

    Dest-keyed assignments (DFSSSP) resolve in one fully vectorized
    successor-matrix pass. Pair-keyed assignments (LASH) need per-path
    lane attribution: for each destination's in-tree the source lane
    masks are propagated root-ward in depth order (``bitwise_or.at``
    scatters — no per-edge Python), which marks every tree edge with the
    union of lanes crossing it; the per-destination loop shards over
    *workers* processes when the fabric is large enough.
    """
    vl = _require_vl(snap)
    tbl = channel_table(snap.view)
    if vl.kind == "dest":
        return _build_dest(snap, vl, tbl)
    return _build_pair(snap, vl, tbl, workers=workers)


# -- dest-keyed (DFSSSP) ------------------------------------------------------


def _build_dest(
    snap: FabricSnapshot, vl: VlAssignment, tbl: np.ndarray
) -> PerVlDependencies:
    n = snap.num_switches
    num_vls = vl.num_vls
    c_count = len(tbl)
    cols = snap.terminal_lids
    lid_map = vl.lid_to_vl or {}
    col_vl = np.asarray(
        [lid_map.get(int(lid), -1) for lid in cols.tolist()], dtype=np.int64
    )
    keys_by_vl: List[np.ndarray] = [
        np.empty(0, dtype=np.int64) for _ in range(num_vls)
    ]
    lanes = np.zeros((n, 256), dtype=np.int64)
    if cols.size == 0:
        return PerVlDependencies(num_vls, c_count, tbl, keys_by_vl, lanes)
    a, b, c, mask = two_hops(_successor_matrices(snap, cols)[1])
    # Columns on an invalid/management lane contribute nothing here; they
    # are VLC002/VLC003's findings, not silent dependency mass.
    in_range = (col_vl >= 0) & (col_vl < num_vls)
    hop = (b >= 0) & in_range[None, :]
    dep = mask & in_range[None, :]
    if dep.any():
        cid1 = channel_ids(tbl, a[dep], b[dep], n)
        cid2 = channel_ids(tbl, b[dep], c[dep], n)
        enc = cid1 * np.int64(c_count) + cid2
        dep_vl = np.broadcast_to(col_vl[None, :], b.shape)[dep]
        for v in range(num_vls):
            keys_by_vl[v] = np.unique(enc[dep_vl == v])
    if hop.any():
        prt = snap.ports[:, cols].astype(np.int64)
        bit = np.int64(1) << np.broadcast_to(col_vl[None, :], b.shape)[hop]
        np.bitwise_or.at(
            lanes.reshape(-1), a[hop] * np.int64(256) + prt[hop], bit
        )
    return PerVlDependencies(num_vls, c_count, tbl, keys_by_vl, lanes)


# -- pair-keyed (LASH) --------------------------------------------------------


def _tree_depths(parent: np.ndarray, n: int) -> np.ndarray:
    """Hop count of every switch toward the in-tree root (vectorized chase).

    Bounded at ``n + 1`` sweeps so a corrupted (cyclic) table terminates;
    the reachability checks own reporting such a loop.
    """
    depth = np.zeros(n, dtype=np.int64)
    cur = parent.copy()
    for _ in range(n + 1):
        live = cur >= 0
        if not live.any():
            break
        depth[live] += 1
        cur[live] = parent[cur[live]]
    return depth


def _pair_state(
    snap: FabricSnapshot, vl: VlAssignment, tbl: np.ndarray
) -> Tuple[Any, ...]:
    """The picklable shard-invariant inputs of the pair-keyed build."""
    n = snap.num_switches
    term_sw = snap.dest_switch[snap.terminal_lids]
    dests, first = np.unique(term_sw, return_index=True)
    rep_cols = snap.terminal_lids[first]
    if dests.size:
        _, nxt = _successor_matrices(snap, rep_cols)
        rep_ports = snap.ports[:, rep_cols].astype(np.int64)
    else:
        nxt = np.empty((n, 0), dtype=np.int64)
        rep_ports = np.empty((n, 0), dtype=np.int64)
    items = vl.items()
    if items:
        arr = np.asarray(
            [[s, t, v] for (s, t), v in items], dtype=np.int64
        )
        keep = (arr[:, 2] >= 0) & (arr[:, 2] < vl.num_vls)
        arr = arr[keep]
        order = np.lexsort((arr[:, 0], arr[:, 1]))
        src_a, dst_a, vl_a = arr[order, 0], arr[order, 1], arr[order, 2]
    else:
        src_a = dst_a = vl_a = np.empty(0, dtype=np.int64)
    return (n, vl.num_vls, tbl, nxt, rep_ports, dests, src_a, dst_a, vl_a)


def _pair_chunk_state(
    state: Tuple[Any, ...], lo: int, hi: int
) -> Tuple[List[List[np.ndarray]], np.ndarray]:
    """Dependency keys and lane bits of destination shard ``[lo, hi)``."""
    n, num_vls, tbl, nxt, rep_ports, dests, src_a, dst_a, vl_a = state
    c_count = len(tbl)
    chunks: List[List[np.ndarray]] = [[] for _ in range(num_vls)]
    lanes = np.zeros((n, 256), dtype=np.int64)
    flat = lanes.reshape(-1)
    for j in range(lo, hi):
        t = int(dests[j])
        s_lo = int(np.searchsorted(dst_a, t, side="left"))
        s_hi = int(np.searchsorted(dst_a, t, side="right"))
        if s_lo == s_hi:
            continue
        srcs = src_a[s_lo:s_hi]
        vls = vl_a[s_lo:s_hi]
        ok = (srcs >= 0) & (srcs < n)
        srcs, vls = srcs[ok], vls[ok]
        parent = nxt[:, j]
        mask = np.zeros(n, dtype=np.int64)
        np.bitwise_or.at(mask, srcs, np.int64(1) << vls)
        # Root-ward lane propagation in strict depth order: each node's
        # parent is exactly one hop shallower, so processing deepest
        # first marks every tree edge with all lanes crossing it.
        depth = _tree_depths(parent, n)
        order = np.argsort(depth, kind="stable")
        dsort = depth[order]
        maxd = int(dsort[-1]) if dsort.size else 0
        bounds = np.searchsorted(dsort, np.arange(maxd + 2))
        for h in range(maxd, 0, -1):
            nodes = order[bounds[h]:bounds[h + 1]]
            if nodes.size == 0:
                continue
            par = parent[nodes]
            live = par >= 0
            if live.any():
                np.bitwise_or.at(mask, par[live], mask[nodes[live]])
        active = np.flatnonzero((parent >= 0) & (mask != 0))
        if active.size == 0:
            continue
        np.bitwise_or.at(
            flat,
            active * np.int64(256) + rep_ports[active, j],
            mask[active],
        )
        b = parent[active]
        has2 = parent[b] >= 0
        a2, b2 = active[has2], b[has2]
        if not a2.size:
            continue
        c2 = parent[b2]
        cid1 = channel_ids(tbl, a2, b2, n)
        cid2 = channel_ids(tbl, b2, c2, n)
        enc = cid1 * np.int64(c_count) + cid2
        m = mask[a2]
        for v in range(num_vls):
            sel = ((m >> np.int64(v)) & 1).astype(bool)
            if sel.any():
                chunks[v].append(enc[sel])
    return chunks, lanes


def _build_pair(
    snap: FabricSnapshot,
    vl: VlAssignment,
    tbl: np.ndarray,
    *,
    workers: int = 1,
) -> PerVlDependencies:
    n = snap.num_switches
    num_vls = vl.num_vls
    state = _pair_state(snap, vl, tbl)
    # The merge below is order-independent anyway (set union per lane,
    # bitwise OR for lane tables).
    results = shard_map(_pair_chunk_state, state, int(state[5].size), workers)
    keys_by_vl: List[np.ndarray] = []
    for v in range(num_vls):
        parts = [arr for chunks, _ in results for arr in chunks[v]]
        keys_by_vl.append(
            np.unique(np.concatenate(parts))
            if parts
            else np.empty(0, dtype=np.int64)
        )
    lanes = np.zeros((n, 256), dtype=np.int64)
    for _, shard_lanes in results:
        lanes |= shard_lanes
    return PerVlDependencies(num_vls, len(tbl), tbl, keys_by_vl, lanes)


# -- rule checks --------------------------------------------------------------


def _with_vl_detail(findings: List[Finding], v: int) -> List[Finding]:
    return [
        replace(f, detail={**dict(f.detail), "vl": v}) for f in findings
    ]


def check_vl_deadlock_freedom(
    snap: FabricSnapshot,
    *,
    deps: Optional[PerVlDependencies] = None,
    workers: int = 1,
) -> List[Finding]:
    """VLC001: Duato's acyclicity condition on every data lane.

    Passing a prebuilt *deps* avoids recomputing the split when the
    caller also feeds metrics from it.
    """
    _require_vl(snap)
    pv = deps if deps is not None else build_per_vl_dependencies(
        snap, workers=workers
    )
    findings: List[Finding] = []
    for v, keys in enumerate(pv.keys_by_vl):
        findings.extend(
            _with_vl_detail(
                _cycle_finding(
                    snap,
                    keys,
                    rule="VLC001",
                    context=f"data VL {v} is deadlock-prone",
                    table=pv.channel_tbl,
                ),
                v,
            )
        )
    return findings


def _capped(findings: List[Finding], rule: str) -> List[Finding]:
    if len(findings) <= MAX_FINDINGS_PER_RULE:
        return findings
    suppressed = len(findings) - MAX_FINDINGS_PER_RULE
    return findings[:MAX_FINDINGS_PER_RULE] + [
        Finding(
            rule="META001",
            message=f"{suppressed} further {rule} findings suppressed",
            detail={"suppressed_by_rule": {rule: suppressed}},
        )
    ]


def check_vl_consistency(snap: FabricSnapshot) -> List[Finding]:
    """VLC002: every assignment names an existing lane, consistently.

    Routing is destination-based, so one assignment governs each path
    end-to-end; what can still go wrong is the assignment itself — a
    nonexistent lane, a terminal riding the management lane (or vice
    versa), or an entry dangling off the fabric's terminal set.
    """
    vl = _require_vl(snap)
    findings: List[Finding] = []
    if vl.kind == "pair":
        term_set = set(
            np.unique(snap.dest_switch[snap.terminal_lids]).tolist()
        )
        # VlAssignment.items() returns a key-sorted list by contract.
        for (s, t), v in vl.items():  # noqa: DET005
            if v < 0 or v >= vl.num_vls:
                findings.append(
                    Finding(
                        rule="VLC002",
                        switch=s,
                        switch_name=snap.name_of(s),
                        message=(
                            f"pair ({s}, {t}) assigned nonexistent data"
                            f" VL {v} (fabric exposes"
                            f" VL0..VL{vl.num_vls - 1})"
                        ),
                        detail={"pair": [s, t], "vl": v},
                    )
                )
            elif s == t:
                findings.append(
                    Finding(
                        rule="VLC002",
                        switch=s,
                        switch_name=snap.name_of(s),
                        message=f"self-pair ({s}, {t}) carries VL {v}",
                        detail={"pair": [s, t], "vl": v},
                    )
                )
            elif s not in term_set or t not in term_set:
                findings.append(
                    Finding(
                        rule="VLC002",
                        switch=s if s not in term_set else t,
                        message=(
                            f"pair ({s}, {t}) references a switch without"
                            " terminals; no data path exists to layer"
                        ),
                        detail={"pair": [s, t], "vl": v},
                    )
                )
        return _capped(findings, "VLC002")
    term_lids = set(snap.terminal_lids.tolist())
    switch_lids = set(snap.lids.tolist()) - term_lids
    for lid, v in vl.items():
        if lid in term_lids:
            if v == MANAGEMENT_VL:
                findings.append(
                    Finding(
                        rule="VLC002",
                        lid=lid,
                        message=(
                            f"terminal LID {lid} assigned the management"
                            f" lane VL{MANAGEMENT_VL}; data traffic would"
                            " starve the escape channel"
                        ),
                        detail={"vl": v},
                    )
                )
            elif v < 0 or v >= vl.num_vls:
                findings.append(
                    Finding(
                        rule="VLC002",
                        lid=lid,
                        message=(
                            f"terminal LID {lid} assigned nonexistent"
                            f" data VL {v} (fabric exposes"
                            f" VL0..VL{vl.num_vls - 1})"
                        ),
                        detail={"vl": v},
                    )
                )
        elif lid in switch_lids:
            if v != MANAGEMENT_VL:
                findings.append(
                    Finding(
                        rule="VLC002",
                        lid=lid,
                        message=(
                            f"switch self-LID {lid} assigned data VL {v};"
                            " management traffic must ride"
                            f" VL{MANAGEMENT_VL}"
                        ),
                        detail={"vl": v},
                    )
                )
        else:
            findings.append(
                Finding(
                    rule="VLC002",
                    lid=lid,
                    message=(
                        f"dangling VL assignment: LID {lid} is not bound"
                        " in the fabric"
                    ),
                    detail={"vl": v},
                )
            )
    return _capped(findings, "VLC002")


def check_vl_capacity(snap: FabricSnapshot) -> List[Finding]:
    """VLC003: layer count within ``max_vls``, no unassigned terminal.

    Missing assignments aggregate into one finding per class — a fabric
    that lost a whole layer should read as one actionable fault, not
    thousands of repeats.
    """
    vl = _require_vl(snap)
    findings: List[Finding] = []
    if vl.num_vls > vl.max_vls:
        findings.append(
            Finding(
                rule="VLC003",
                message=(
                    f"{vl.num_vls} virtual layers exceed the engine's"
                    f" max_vls={vl.max_vls}; hardware cannot be"
                    " programmed with this assignment"
                ),
                detail={"num_vls": vl.num_vls, "max_vls": vl.max_vls},
            )
        )
    if vl.kind == "pair":
        term = np.unique(snap.dest_switch[snap.terminal_lids]).tolist()
        present = set(vl.pair_to_vl or {})
        missing = [
            (s, t)
            for s in term
            for t in term
            if s != t and (s, t) not in present
        ]
        if missing:
            findings.append(
                Finding(
                    rule="VLC003",
                    switch=missing[0][0],
                    switch_name=snap.name_of(missing[0][0]),
                    message=(
                        f"{len(missing)} terminal switch pair(s) lack a VL"
                        f" assignment (e.g. {missing[:8]})"
                    ),
                    detail={
                        "missing_pairs": [list(p) for p in missing[:32]],
                        "missing_count": len(missing),
                    },
                )
            )
        return findings
    assigned = set(vl.lid_to_vl or {})
    missing_term = [
        lid for lid in snap.terminal_lids.tolist() if lid not in assigned
    ]
    if missing_term:
        findings.append(
            Finding(
                rule="VLC003",
                lid=missing_term[0],
                message=(
                    f"{len(missing_term)} terminal LID(s) lack a VL"
                    f" assignment (e.g. {missing_term[:8]})"
                ),
                detail={
                    "missing_lids": missing_term[:32],
                    "missing_count": len(missing_term),
                },
            )
        )
    term_lids = set(snap.terminal_lids.tolist())
    missing_sw = [
        lid
        for lid in snap.lids.tolist()
        if lid not in term_lids and lid not in assigned
    ]
    if missing_sw:
        findings.append(
            Finding(
                rule="VLC003",
                lid=missing_sw[0],
                message=(
                    f"{len(missing_sw)} switch self-LID(s) lack their"
                    f" VL{MANAGEMENT_VL} assignment"
                    f" (e.g. {missing_sw[:8]})"
                ),
                detail={
                    "missing_lids": missing_sw[:32],
                    "missing_count": len(missing_sw),
                },
            )
        )
    return findings


def _per_vl_dep_pairs(
    snap: FabricSnapshot, *, workers: int = 1
) -> List[np.ndarray]:
    """Per-lane dependency keys in the global ``from * n² + to`` encoding
    over ``a * n + b`` channel codes (old and new sides of a transition
    need not share a cable table).

    A snapshot without a VL assignment contributes its whole (single-VL)
    dependency set on lane 0 — the conservative model for transitions
    between a single-VL and a VL-routed configuration.
    """
    if snap.vl is None:
        return [_dependency_pairs(snap, snap.terminal_lids)]
    n2 = np.int64(snap.num_switches) ** 2
    pv = build_per_vl_dependencies(snap, workers=workers)
    c = np.int64(pv.num_channels)
    # The cable table is sorted, so the re-encoded keys stay sorted.
    return [
        pv.channel_tbl[keys // c] * n2 + pv.channel_tbl[keys % c]
        for keys in pv.keys_by_vl
    ]


def check_vl_transition_deadlock(
    old: FabricSnapshot,
    new: FabricSnapshot,
    *,
    workers: int = 1,
) -> List[Finding]:
    """VLC004: the §VI-C union CDG must be acyclic on every data lane.

    While a reconfiguration is in flight some switches forward per the
    old tables and some per the new, but a flow's lane does not change
    mid-flight — so the deadlock-freedom obligation splits per VL: for
    every data lane, the union of old and new dependencies on that lane
    must be acyclic. Either side may be single-VL (its dependencies all
    land on lane 0), which covers engine-change reconfigurations too.
    """
    if old.num_switches != new.num_switches:
        raise StaticAnalysisError(
            "transition analysis needs snapshots of the same switch graph"
        )
    old_sets = _per_vl_dep_pairs(old, workers=workers)
    new_sets = _per_vl_dep_pairs(new, workers=workers)
    none = np.empty(0, dtype=np.int64)
    findings: List[Finding] = []
    for v in range(max(len(old_sets), len(new_sets))):
        union = np.union1d(
            old_sets[v] if v < len(old_sets) else none,
            new_sets[v] if v < len(new_sets) else none,
        )
        findings.extend(
            _with_vl_detail(
                _cycle_finding(
                    new,
                    union,
                    rule="VLC004",
                    context=(
                        f"reconfiguration transition on data VL {v} is"
                        " deadlock-prone"
                    ),
                ),
                v,
            )
        )
    return findings
