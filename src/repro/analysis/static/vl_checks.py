"""Lane-indexed channel-dependency checks (CDG001/CDG002, VLC001-VLC004).

Deadlock freedom is Duato's condition per data lane: every lane's
channel-dependency graph must be acyclic. LASH and DFSSSP split traffic
over lanes and export a :class:`~repro.sm.routing.vl.VlAssignment`; an
engine that exports none (minhop, updn, ftree, dor) carries the trivial
assignment — every terminal on lane 0 — and is the one-lane case of the
same check:

* **CDG001 / VLC001** — every data lane's CDG is acyclic. The rule reads
  CDG001 under the trivial assignment, VLC001 (with ``detail["vl"]``)
  otherwise.
* **VLC002** — escape-channel sufficiency: every assignment references a
  lane that exists and is applied consistently along the whole path.
  (Routing is destination-based, so one assignment governs a path
  end-to-end.)
* **VLC003** — capacity legality: layer count within ``max_vls`` and no
  terminal pair/LID left without an assignment.
* **CDG002 / VLC004** — the §VI-C union-CDG transition check per lane:
  during a reconfiguration, old and new dependency sets must union
  acyclically on every data VL (CDG002 when both sides are trivial).

:func:`lane_dependencies` is the one dependency builder. It reads the
hop relation from one
:func:`~repro.analysis.static.checks._successor_matrices` pass, encodes
keys like :func:`~repro.sm.routing.cdg_array.dependency_keys`
(channels ``a * n + b``, dependencies ``from * n² + to``), and every
lane is peeled by the one :func:`~repro.sm.routing.cdg_array.find_cycle`
call of :func:`_lane_cycles`; channels are decoded to ``(a, b)`` switch
pairs only to render a finding. By convention the lanes cover
**terminal (endpoint) LIDs only**: traffic to switch management LIDs
travels on VL15, which has dedicated buffering and so cannot take part
in a data-VL credit cycle. The only Python loop is per *destination
switch* (pair-keyed assignments) — never per edge — and it shards over
worker processes through the same
:func:`~repro.sm.routing.parallel.shard_map` as the all-pairs BFS, with
a byte-identical serial fallback.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StaticAnalysisError
from repro.sm.routing.cdg_array import dependency_keys, find_cycle
from repro.sm.routing.parallel import shard_map
from repro.sm.routing.vl import MANAGEMENT_VL, VlAssignment
from repro.analysis.static.checks import (
    MAX_FINDINGS_PER_RULE,
    FabricSnapshot,
    _successor_matrices,
)
from repro.analysis.static.findings import Finding

__all__ = [
    "lane_dependencies",
    "check_deadlock_freedom",
    "check_transition_deadlock",
    "check_vl_consistency",
    "check_vl_capacity",
]

#: Data lanes are tracked as bits of an int64 mask; IB's 4-bit VL field
#: tops out at 15 anyway, so this bound is never the binding one.
MAX_DATA_VLS = 62

_NO_KEYS = np.empty(0, dtype=np.int64)

#: Question -> (rule and context under the trivial assignment, rule and
#: per-lane context otherwise).
_DEADLOCK_RULES = {
    "routing": (
        ("CDG001", "routing is deadlock-prone"),
        ("VLC001", "data VL {v} is deadlock-prone"),
    ),
    "transition": (
        ("CDG002", "reconfiguration transition is deadlock-prone"),
        (
            "VLC004",
            "reconfiguration transition on data VL {v} is deadlock-prone",
        ),
    ),
}


def lane_dependencies(
    snap: FabricSnapshot,
    cols: Optional[np.ndarray] = None,
    *,
    workers: int = 1,
) -> List[np.ndarray]:
    """Each data lane's sorted unique dependency keys over *cols*.

    *cols* defaults to the terminal LIDs. Without an assignment the
    fabric is one lane. A dest-keyed assignment (DFSSSP) splits the
    columns by ``lid_to_vl``; a column on a nonexistent lane or VL15
    joins no lane (it is VLC002's or VLC003's finding, not silent
    dependency mass). A pair-keyed assignment (LASH) needs per-path lane
    attribution, see :func:`_pair_chunk_state`.
    """
    if cols is None:
        cols = snap.terminal_lids
    vl = snap.vl
    if vl is not None and vl.kind == "pair":
        return _pair_lanes(snap, vl, cols, workers=workers)
    nxt = _successor_matrices(snap, cols)[1]
    picks: List[Any] = [slice(None)]
    if vl is not None:
        lane_of = vl.backing()
        col_vl = np.asarray(
            [lane_of.get(int(lid), -1) for lid in cols.tolist()],
            dtype=np.int64,
        )
        picks = [col_vl == v for v in range(vl.num_vls)]
    return [dependency_keys(nxt[:, pick]) for pick in picks]


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
    snap: FabricSnapshot, vl: VlAssignment, cols: np.ndarray
) -> Tuple[Any, ...]:
    """The picklable shard-invariant inputs of the pair-keyed build.

    Each destination switch is walked once, through the first terminal
    LID of *cols* it delivers.
    """
    if vl.num_vls > MAX_DATA_VLS:
        raise StaticAnalysisError(
            f"{vl.num_vls} data VLs exceed the {MAX_DATA_VLS}-lane"
            " analysis bound"
        )
    cols = cols[np.isin(cols, snap.terminal_lids)]
    dests, first = np.unique(snap.dest_switch[cols], return_index=True)
    _, nxt = _successor_matrices(snap, cols[first])
    # VlAssignment.items() returns a key-sorted list by contract.
    arr = np.asarray(
        [[s, t, v] for (s, t), v in vl.items()],  # noqa: DET005
        dtype=np.int64,
    ).reshape(-1, 3)
    arr = arr[(arr[:, 2] >= 0) & (arr[:, 2] < vl.num_vls)]
    order = np.lexsort((arr[:, 0], arr[:, 1]))
    src_a, dst_a, vl_a = arr[order, 0], arr[order, 1], arr[order, 2]
    return (snap.num_switches, vl.num_vls, nxt, dests, src_a, dst_a, vl_a)


def _pair_chunk_state(
    state: Tuple[Any, ...], lo: int, hi: int
) -> List[List[np.ndarray]]:
    """Per-lane dependency keys of destination shard ``[lo, hi)``.

    For each destination's in-tree the source lane masks are propagated
    root-ward in depth order (``bitwise_or.at`` scatters — no per-edge
    Python), which marks every tree edge with the union of lanes
    crossing it.
    """
    n, num_vls, nxt, dests, src_a, dst_a, vl_a = state
    n2 = np.int64(n) * np.int64(n)
    chunks: List[List[np.ndarray]] = [[] for _ in range(num_vls)]
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
        b = parent[active]
        has2 = parent[b] >= 0
        a2, b2 = active[has2], b[has2]
        if not a2.size:
            continue
        c2 = parent[b2]
        enc = (a2 * n + b2) * n2 + (b2 * n + c2)
        m = mask[a2]
        for v in range(num_vls):
            sel = ((m >> np.int64(v)) & 1).astype(bool)
            if sel.any():
                chunks[v].append(enc[sel])
    return chunks


def _pair_lanes(
    snap: FabricSnapshot,
    vl: VlAssignment,
    cols: np.ndarray,
    *,
    workers: int = 1,
) -> List[np.ndarray]:
    state = _pair_state(snap, vl, cols)
    # The merge is a set union per lane, so shard order cannot matter.
    results = shard_map(_pair_chunk_state, state, int(state[3].size), workers)
    return [
        np.unique(
            np.concatenate([_NO_KEYS] + [a for r in results for a in r[v]])
        )
        for v in range(vl.num_vls)
    ]


# -- deadlock rules -----------------------------------------------------------


def _lane_cycles(
    snap: FabricSnapshot,
    lanes: Sequence[np.ndarray],
    *,
    trivial: bool,
    question: str,
) -> List[Finding]:
    """Peel every lane; render one cycle per lane that keeps any."""
    n = snap.num_switches
    c = n * n
    (rule, context), (lane_rule, lane_context) = _DEADLOCK_RULES[question]
    findings: List[Finding] = []
    for v, keys in enumerate(lanes):
        ids = find_cycle(keys, c)
        if ids is None:
            continue
        cycle = [(code // n, code % n) for code in ids]
        channels = np.unique(np.concatenate([keys // c, keys % c])).size
        rendered = " -> ".join(f"({a}->{b})" for a, b in cycle)
        detail: Dict[str, Any] = {"cycle": [list(ch) for ch in cycle]}
        if not trivial:
            rule, context = lane_rule, lane_context.format(v=v)
            detail["vl"] = v
        anchor = cycle[0][0]
        findings.append(
            Finding(
                rule=rule,
                switch=anchor,
                switch_name=snap.name_of(anchor),
                message=(
                    f"{context}: channel dependency cycle {rendered}"
                    f" ({channels} channels,"
                    f" {keys.size} dependencies analysed)"
                ),
                detail=detail,
            )
        )
    return findings


def check_deadlock_freedom(
    snap: FabricSnapshot,
    *,
    lids: Optional[Sequence[int]] = None,
    lanes: Optional[List[np.ndarray]] = None,
    workers: int = 1,
) -> List[Finding]:
    """CDG001/VLC001: Duato's acyclicity condition on every data lane.

    *lids* scopes every lane (default: the terminal LIDs). A caller that
    also feeds metrics passes the *lanes* it built with
    :func:`lane_dependencies`; *workers* shards a pair-keyed build.
    """
    if lanes is None:
        lanes = lane_dependencies(snap, snap.scope(lids), workers=workers)
    return _lane_cycles(
        snap, lanes, trivial=snap.vl is None, question="routing"
    )


def check_transition_deadlock(
    old: FabricSnapshot,
    new: FabricSnapshot,
    *,
    lids: Optional[Sequence[int]] = None,
    workers: int = 1,
) -> List[Finding]:
    """CDG002/VLC004: the union CDG of an in-flight reconfiguration
    (section VI-C) must be acyclic on every data lane.

    While switches are updated asynchronously some forward per the old
    tables and some per the new, but a flow's lane does not change
    mid-flight — so for every lane the union of old and new dependencies
    on that lane must be acyclic. A side without an assignment is one
    lane, lane 0, which covers engine-change reconfigurations too.
    """
    if old.num_switches != new.num_switches:
        raise StaticAnalysisError(
            "transition analysis needs snapshots of the same switch graph"
        )
    sides = [
        lane_dependencies(snap, snap.scope(lids), workers=workers)
        for snap in (old, new)
    ]
    union = [
        np.union1d(*(side[v] if v < len(side) else _NO_KEYS for side in sides))
        for v in range(max(map(len, sides)))
    ]
    return _lane_cycles(
        new,
        union,
        trivial=old.vl is None and new.vl is None,
        question="transition",
    )


# -- assignment rules ---------------------------------------------------------


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
    vl = snap.vl
    if vl is None:  # the trivial assignment holds by construction
        return []
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
    vl = snap.vl
    if vl is None:  # the trivial assignment holds by construction
        return []
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
