"""Lane-indexed channel-dependency checks (CDG001/CDG002, VLC001-VLC004).

Deadlock freedom is Duato's condition per data lane: every lane's
channel-dependency graph must be acyclic. LASH and DFSSSP split traffic
over lanes and export the split as a lane plane beside their ports
(:attr:`~repro.sm.routing.base.RoutingTables.lanes`: ``lanes[s, lid]`` is
the data VL of traffic from source switch ``s`` to ``lid``); an engine
that exports none (minhop, updn, ftree, dor) is the trivial case — every
terminal on lane 0 — of the same check:

* **CDG001 / VLC001** — every data lane's CDG is acyclic. The rule reads
  CDG001 without a plane, VLC001 (with ``detail["vl"]``) otherwise.
* **VLC002** — every lane cell of a bound LID names a lane that exists:
  a data VL toward a terminal LID, VL15 toward a switch self-LID.
  (Routing is destination-based and the lane is the source's choice, so
  one cell governs a path end-to-end.)
* **VLC003** — capacity legality: layer count within ``max_vls``, and a
  lane in every cell traffic starts from — each terminal-bearing row of
  a terminal LID's column, every row of a switch self-LID's column.
* **CDG002 / VLC004** — the §VI-C union-CDG transition check per lane:
  during a reconfiguration, old and new dependency sets must union
  acyclically on every data VL (CDG002 when neither side has a plane).

:func:`lane_dependencies` is the one dependency builder. It reads the
hop relation from one
:func:`~repro.analysis.static.checks._successor_matrices` pass and keys
every lane through the one
:func:`~repro.sm.routing.cdg_array.dependency_keys` pass (channels
``a * n + b``, dependencies ``from * n² + to``); every lane is peeled by
the one :func:`~repro.sm.routing.cdg_array.find_cycle` call of
:func:`_lane_cycles`, and channels are decoded to ``(a, b)`` switch
pairs only to render a finding. The plane decides how a column joins
its lanes: a column whose rows all hold one lane (every DFSSSP column)
joins that lane whole; a column whose lane varies by source row (LASH)
seeds each source's lane bit and propagates the bits root-ward along the
column's in-tree (:func:`_rootward`), so every hop carries the lanes
crossing it. By convention the lanes cover **terminal (endpoint) LIDs
only**: traffic to switch management LIDs travels on VL15, which has
dedicated buffering and so cannot take part in a data-VL credit cycle.
No Python loop runs per destination or per edge.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import MANAGEMENT_VL, NO_LANE
from repro.errors import StaticAnalysisError
from repro.sm.routing.cdg_array import dependency_keys, find_cycle
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

#: Question -> (rule and context without a lane plane, rule and per-lane
#: context otherwise).
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
    snap: FabricSnapshot, cols: Optional[np.ndarray] = None
) -> List[np.ndarray]:
    """Each data lane's sorted unique dependency keys over *cols*.

    *cols* defaults to the terminal LIDs. Without a lane plane the fabric
    is one lane. With one, cell ``(s, lid)`` puts the path from ``s``
    toward ``lid`` on its lane; a cell on a nonexistent lane, VL15 or no
    lane joins none (it is VLC002's or VLC003's finding, not silent
    dependency mass). Identical (port, lane) columns yield identical
    dependencies, so each distinct one is walked once (:func:`_distinct`).
    """
    if cols is None:
        cols = snap.terminal_lids
    lanes = snap.lanes
    if lanes is not None and cols.size > 1:
        cols = _distinct(snap, lanes, cols)
    nxt = _successor_matrices(snap, cols)[1]
    per_lane = [nxt] if lanes is None else _lane_hops(snap, lanes[:, cols], nxt)
    return [dependency_keys(hops) for hops in per_lane]


def _distinct(snap: FabricSnapshot, lanes: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The first of every set of *cols* with one destination switch and
    identical port and lane columns (the delivery port aside: a path ends
    there): such columns route identical paths on identical lanes, so one
    stands for all — a leaf's LIDs under LASH. Columns compare as raw
    bytes."""
    dest = snap.dest_switch[cols]
    ports = snap.ports[:, cols]
    bound = np.flatnonzero(dest >= 0)
    ports[dest[bound], bound] = 0
    rows = np.hstack(
        [
            np.ascontiguousarray(a.T).view(np.uint8).reshape(cols.size, -1)
            for a in (ports, lanes[:, cols], dest[None, :])
        ]
    )
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    return cols[np.sort(np.unique(keys, return_index=True)[1])]


def _lane_hops(
    snap: FabricSnapshot, lane: np.ndarray, nxt: np.ndarray
) -> List[np.ndarray]:
    """Per data lane, the hop matrix of the paths riding it: the columns
    of ``nxt`` (next switch) whose ``lane`` cells (their plane columns)
    carry the lane, -1 at every cell no path on the lane leaves from."""
    if snap.num_vls > MAX_DATA_VLS:
        raise StaticAnalysisError(
            f"{snap.num_vls} data VLs exceed the {MAX_DATA_VLS}-lane"
            " analysis bound"
        )
    lane = lane.astype(np.int64)
    data = (lane >= 0) & (lane < snap.num_vls)
    mask = np.where(data, np.left_shift(1, np.where(data, lane, 0)), 0)
    varying = (lane != lane[:1]).any(axis=0)
    if varying.any():
        mask[:, varying] = _rootward(nxt[:, varying], mask[:, varying])
    per_lane = []
    for v in range(snap.num_vls):
        on = (mask >> v) & 1 == 1
        per_lane.append(np.where(on, nxt, -1)[:, on.any(axis=0)])
    return per_lane


def _rootward(nxt: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """*mask* propagated root-ward along every column's in-tree.

    ``nxt[:, j]`` is column ``j``'s in-tree (parent switch, -1 at the
    root or off the graph). Sources are processed deepest first — each
    node's parent is exactly one hop shallower — with ``bitwise_or.at``
    scatters, one per hop level, so every tree edge ends up marked with
    the union of the lanes crossing it. The depth chase is bounded at
    ``n + 1`` hops so a corrupted (looping) table terminates; the
    reachability checks own reporting such a loop.
    """
    n, k = nxt.shape
    col = np.arange(k)
    depth = np.zeros(nxt.shape, dtype=np.int64)
    cur = nxt
    for _ in range(n + 1):
        live = cur >= 0
        if not live.any():
            break
        depth += live
        cur = np.where(live, nxt[np.maximum(cur, 0), col], -1)
    mask = mask.copy()
    flat = depth.ravel()
    order = np.argsort(flat, kind="stable")
    bounds = np.searchsorted(flat[order], np.arange(int(flat.max()) + 2))
    for h in range(int(flat.max()), 0, -1):
        s, j = np.divmod(order[bounds[h]:bounds[h + 1]], k)
        np.bitwise_or.at(mask, (nxt[s, j], j), mask[s, j])
    return mask


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
) -> List[Finding]:
    """CDG001/VLC001: Duato's acyclicity condition on every data lane.

    *lids* scopes every lane (default: the terminal LIDs). A caller that
    also feeds metrics passes the *lanes* it built with
    :func:`lane_dependencies`.
    """
    if lanes is None:
        lanes = lane_dependencies(snap, snap.scope(lids))
    return _lane_cycles(
        snap, lanes, trivial=snap.lanes is None, question="routing"
    )


def check_transition_deadlock(
    old: FabricSnapshot,
    new: FabricSnapshot,
    *,
    lids: Optional[Sequence[int]] = None,
) -> List[Finding]:
    """CDG002/VLC004: the union CDG of an in-flight reconfiguration
    (section VI-C) must be acyclic on every data lane.

    While switches are updated asynchronously some forward per the old
    tables and some per the new, but a flow's lane does not change
    mid-flight — so for every lane the union of old and new dependencies
    on that lane must be acyclic. A side without a lane plane is one
    lane, lane 0, which covers engine-change reconfigurations too.
    """
    if old.num_switches != new.num_switches:
        raise StaticAnalysisError(
            "transition analysis needs snapshots of the same switch graph"
        )
    sides = [
        lane_dependencies(snap, snap.scope(lids)) for snap in (old, new)
    ]
    union = [
        np.union1d(*(side[v] if v < len(side) else _NO_KEYS for side in sides))
        for v in range(max(map(len, sides)))
    ]
    return _lane_cycles(
        new,
        union,
        trivial=old.lanes is None and new.lanes is None,
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


def _lane_columns(
    snap: FabricSnapshot, lanes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lids, lane, terminal)``: every bound LID, its columns of
    *lanes* and which of the LIDs are terminals."""
    lids = snap.lids
    return lids, lanes[:, lids], np.isin(lids, snap.terminal_lids)


def check_vl_consistency(snap: FabricSnapshot) -> List[Finding]:
    """VLC002: every lane cell of a bound LID names a lane that exists.

    Toward a terminal LID a cell must hold a data VL (``0 ..
    num_vls - 1``, never the management lane); toward a switch self-LID
    it must hold VL15. One finding per wrong column, naming the first
    wrong source switch when only some of the column's sources are
    wrong. Cells without a lane are VLC003's; cells of unbound LIDs are,
    like their ports, nobody's traffic.
    """
    if snap.lanes is None:  # the trivial assignment holds by construction
        return []
    lids, lane, terminal = _lane_columns(snap, snap.lanes)
    bad_data = (lane == MANAGEMENT_VL) | (lane < 0) | (lane >= snap.num_vls)
    wrong = (lane != NO_LANE) & np.where(
        terminal, bad_data, lane != MANAGEMENT_VL
    )
    findings: List[Finding] = []
    for j in np.flatnonzero(wrong.any(axis=0)).tolist():
        lid = int(lids[j])
        rows = np.flatnonzero(wrong[:, j])
        v = int(lane[rows[0], j])
        partial = rows.size < np.count_nonzero(lane[:, j] != NO_LANE)
        at = f" from {rows.size} source switch(es)" if partial else ""
        if not terminal[j]:
            text = (
                f"switch self-LID {lid} assigned data VL {v}{at};"
                f" management traffic must ride VL{MANAGEMENT_VL}"
            )
        elif v == MANAGEMENT_VL:
            text = (
                f"terminal LID {lid} assigned the management lane"
                f" VL{MANAGEMENT_VL}{at}; data traffic would starve the"
                " escape channel"
            )
        else:
            text = (
                f"terminal LID {lid} assigned nonexistent data VL {v}{at}"
                f" (fabric exposes VL0..VL{snap.num_vls - 1})"
            )
        switch = int(rows[0]) if partial else None
        findings.append(
            Finding(
                rule="VLC002",
                lid=lid,
                switch=switch,
                switch_name=None if switch is None else snap.name_of(switch),
                message=text,
                detail={"vl": v, "switches": rows[:32].tolist()},
            )
        )
    return _capped(findings, "VLC002")


def check_vl_capacity(snap: FabricSnapshot) -> List[Finding]:
    """VLC003: layer count within ``max_vls``, no cell left without a lane.

    Traffic toward a terminal LID starts at a terminal-bearing switch, so
    those rows of its column need a lane; management traffic toward a
    switch self-LID may start anywhere, so every row needs VL15. Missing
    cells aggregate into one finding per class — a fabric that lost a
    whole layer should read as one actionable fault, not thousands of
    repeats.
    """
    lanes = snap.lanes
    if lanes is None:  # the trivial assignment holds by construction
        return []
    findings: List[Finding] = []
    if snap.num_vls > snap.max_vls:
        findings.append(
            Finding(
                rule="VLC003",
                message=(
                    f"{snap.num_vls} virtual layers exceed the engine's"
                    f" max_vls={snap.max_vls}; hardware cannot be"
                    " programmed with this assignment"
                ),
                detail={"num_vls": snap.num_vls, "max_vls": snap.max_vls},
            )
        )
    lids, lane, terminal = _lane_columns(snap, lanes)
    sources = np.zeros(snap.num_switches, dtype=bool)
    sources[snap.dest_switch[snap.terminal_lids]] = True
    missing = (lane == NO_LANE) & (~terminal | sources[:, None])
    for cls, text in (
        (terminal, "terminal LID(s) lack a VL assignment"),
        (~terminal, f"switch self-LID(s) lack their VL{MANAGEMENT_VL} assignment"),
    ):
        hit = missing[:, cls]
        out = lids[cls][hit.any(axis=0)].tolist()
        if out:
            findings.append(
                Finding(
                    rule="VLC003",
                    lid=out[0],
                    message=f"{len(out)} {text} (e.g. {out[:8]})",
                    detail={
                        "missing_lids": out[:32],
                        "missing_count": len(out),
                        "switches": np.flatnonzero(hit.any(axis=1))[:32].tolist(),
                    },
                )
            )
    return findings
