"""The dict-keyed VL assignment and its analysis — parity oracle for the
lane plane.

Before the lane plane, one engine's split lived as a :class:`VlAssignment`
keyed per *(source switch, destination switch)* pair (LASH,
``pair_to_vl``) or per destination LID (DFSSSP, ``lid_to_vl``), and the
static suite kept one dependency builder and one VLC002/VLC003 branch per
key kind. This module keeps those as they were, reading the shared
:class:`~repro.analysis.static.checks.FabricSnapshot` fields with the
assignment passed beside it:

* :func:`lane_dependencies` — the dest-keyed split and the pair-keyed
  root-ward mask propagation (one walk per destination switch, through
  its first terminal LID);
* :func:`check_vl_consistency` / :func:`check_vl_capacity` — VLC002 and
  VLC003, one branch per kind;
* :func:`corrupt_assignment` — the three negative modes on the dicts.

:func:`assignment_of` reads a fresh engine plane back into its dict form
and :func:`plane_of` expands a dict into a plane, so the parity test can
feed one assignment to both implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.static.checks import (
    MAX_FINDINGS_PER_RULE,
    FabricSnapshot,
    _successor_matrices,
)
from repro.analysis.static.findings import Finding
from repro.constants import MANAGEMENT_VL, NO_LANE
from repro.errors import RoutingError
from repro.sm.routing.cdg_array import dependency_keys

_NO_KEYS = np.empty(0, dtype=np.int64)


@dataclass
class VlAssignment:
    """One engine's virtual-lane assignment, keyed per pair or per LID."""

    kind: str
    num_vls: int
    max_vls: int
    pair_to_vl: Optional[Dict[Tuple[int, int], int]] = None
    lid_to_vl: Optional[Dict[int, int]] = None

    def backing(self) -> Dict[Any, int]:
        backing = self.pair_to_vl if self.kind == "pair" else self.lid_to_vl
        if backing is None:
            raise RoutingError(f"{self.kind}-keyed assignment has no VL map")
        return backing

    def items(self) -> List[Tuple[Any, int]]:
        return sorted(self.backing().items())

    def data_items(self) -> List[Tuple[Any, int]]:
        return [(k, v) for k, v in self.items() if v != MANAGEMENT_VL]

    def copy(self) -> "VlAssignment":
        return VlAssignment(
            kind=self.kind,
            num_vls=self.num_vls,
            max_vls=self.max_vls,
            pair_to_vl=None if self.pair_to_vl is None else dict(self.pair_to_vl),
            lid_to_vl=None if self.lid_to_vl is None else dict(self.lid_to_vl),
        )


def corrupt_assignment(vl: VlAssignment, mode: str = "remap", *, index: int = 0) -> str:
    """Corrupt one entry (``remap``/``drop``) or squash every data entry
    onto lane 0 (``collapse``), in place."""
    entries = vl.data_items()
    if not entries:
        raise RoutingError("assignment has no data-VL entries to corrupt")
    backing = vl.backing()
    key, old = entries[index % len(entries)]
    if mode == "remap":
        backing[key] = vl.num_vls + vl.max_vls
    elif mode == "drop":
        del backing[key]
    elif mode == "collapse":
        for k, _ in entries:
            backing[k] = 0
    else:
        raise RoutingError(f"unknown corruption mode {mode!r}")
    return f"{mode} {key} (was VL {old})"


# -- plane <-> dict ------------------------------------------------------------


def _terminal_switches(snap: FabricSnapshot) -> List[int]:
    return np.unique(snap.dest_switch[snap.terminal_lids]).tolist()


def assignment_of(snap: FabricSnapshot, kind: str) -> VlAssignment:
    """The dict form of a freshly routed plane (``snap.lanes``): DFSSSP's
    one lane per column, or LASH's layer per terminal switch pair."""
    lanes = snap.lanes
    if kind == "dest":
        return VlAssignment(
            kind, snap.num_vls, snap.max_vls,
            lid_to_vl={int(lid): int(lanes[0, lid]) for lid in snap.lids},
        )
    first = {}
    for lid in snap.terminal_lids.tolist():
        first.setdefault(int(snap.dest_switch[lid]), lid)
    term = _terminal_switches(snap)
    return VlAssignment(
        kind, snap.num_vls, snap.max_vls,
        pair_to_vl={
            (s, t): int(lanes[s, first[t]]) for s in term for t in term if s != t
        },
    )


def plane_of(vl: VlAssignment, snap: FabricSnapshot) -> np.ndarray:
    """The lane plane an engine would export for *vl* on *snap*'s fabric
    (``snap.ports``' shape)."""
    lanes = np.full(snap.ports.shape, NO_LANE, dtype=np.int8)
    if vl.kind == "dest":
        for lid, v in vl.items():
            lanes[:, lid] = v
        return lanes
    term = _terminal_switches(snap)
    switch_lids = np.setdiff1d(snap.lids, snap.terminal_lids)
    lanes[:, switch_lids] = MANAGEMENT_VL
    for lid in snap.terminal_lids.tolist():
        t = int(snap.dest_switch[lid])
        lanes[t, lid] = 0
        for s in term:
            if (s, t) in vl.backing():
                lanes[s, lid] = vl.backing()[(s, t)]
    return lanes


# -- the dict-keyed dependency builder ------------------------------------------


def _tree_depths(parent: np.ndarray, n: int) -> np.ndarray:
    depth = np.zeros(n, dtype=np.int64)
    cur = parent.copy()
    for _ in range(n + 1):
        live = cur >= 0
        if not live.any():
            break
        depth[live] += 1
        cur[live] = parent[cur[live]]
    return depth


def _pair_lanes(snap: FabricSnapshot, vl: VlAssignment, cols: np.ndarray) -> List[np.ndarray]:
    n = snap.num_switches
    cols = cols[np.isin(cols, snap.terminal_lids)]
    dests, first = np.unique(snap.dest_switch[cols], return_index=True)
    _, nxt = _successor_matrices(snap, cols[first])
    arr = np.asarray(
        [[s, t, v] for (s, t), v in vl.items()], dtype=np.int64
    ).reshape(-1, 3)
    arr = arr[(arr[:, 2] >= 0) & (arr[:, 2] < vl.num_vls)]
    n2 = np.int64(n) * np.int64(n)
    chunks: List[List[np.ndarray]] = [[] for _ in range(vl.num_vls)]
    for j, t in enumerate(dests.tolist()):
        rows = arr[arr[:, 1] == t]
        srcs, vls = rows[:, 0], rows[:, 2]
        parent = nxt[:, j]
        mask = np.zeros(n, dtype=np.int64)
        np.bitwise_or.at(mask, srcs, np.int64(1) << vls)
        depth = _tree_depths(parent, n)
        order = np.argsort(depth, kind="stable")
        dsort = depth[order]
        maxd = int(dsort[-1]) if dsort.size else 0
        bounds = np.searchsorted(dsort, np.arange(maxd + 2))
        for h in range(maxd, 0, -1):
            nodes = order[bounds[h]:bounds[h + 1]]
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
        for v in range(vl.num_vls):
            sel = ((m >> np.int64(v)) & 1).astype(bool)
            if sel.any():
                chunks[v].append(enc[sel])
    return [np.unique(np.concatenate([_NO_KEYS] + chunks[v])) for v in range(vl.num_vls)]


def lane_dependencies(
    snap: FabricSnapshot, vl: Optional[VlAssignment], cols: Optional[np.ndarray] = None
) -> List[np.ndarray]:
    """Each data lane's sorted unique dependency keys under *vl*."""
    if cols is None:
        cols = snap.terminal_lids
    if vl is not None and vl.kind == "pair":
        return _pair_lanes(snap, vl, cols)
    nxt = _successor_matrices(snap, cols)[1]
    if vl is None:
        return [dependency_keys(nxt)]
    col_vl = np.asarray([vl.backing().get(int(lid), -1) for lid in cols.tolist()])
    return [dependency_keys(nxt[:, col_vl == v]) for v in range(vl.num_vls)]


# -- VLC002 / VLC003, one branch per kind ----------------------------------------


def _capped(findings: List[Finding]) -> List[Finding]:
    return findings[:MAX_FINDINGS_PER_RULE]


def check_vl_consistency(snap: FabricSnapshot, vl: VlAssignment) -> List[Finding]:
    findings: List[Finding] = []
    if vl.kind == "pair":
        term = set(_terminal_switches(snap))
        for (s, t), v in vl.items():
            if v < 0 or v >= vl.num_vls or s == t or s not in term or t not in term:
                findings.append(
                    Finding(rule="VLC002", switch=s, message=f"pair ({s}, {t}) VL {v}",
                            detail={"pair": [s, t], "vl": v})
                )
        return _capped(findings)
    term_lids = set(snap.terminal_lids.tolist())
    switch_lids = set(snap.lids.tolist()) - term_lids
    for lid, v in vl.items():
        if lid in term_lids:
            bad = v == MANAGEMENT_VL or v < 0 or v >= vl.num_vls
        elif lid in switch_lids:
            bad = v != MANAGEMENT_VL
        else:
            bad = True  # dangling: the LID is not bound
        if bad:
            findings.append(Finding(rule="VLC002", lid=lid, message=f"LID {lid} VL {v}", detail={"vl": v}))
    return _capped(findings)


def check_vl_capacity(snap: FabricSnapshot, vl: VlAssignment) -> List[Finding]:
    findings: List[Finding] = []
    if vl.num_vls > vl.max_vls:
        findings.append(Finding(rule="VLC003", message="layer overflow"))
    if vl.kind == "pair":
        term = _terminal_switches(snap)
        present = set(vl.pair_to_vl or {})
        missing = [(s, t) for s in term for t in term if s != t and (s, t) not in present]
        if missing:
            findings.append(
                Finding(rule="VLC003", switch=missing[0][0], message=f"{len(missing)} pairs",
                        detail={"missing_pairs": [list(p) for p in missing]})
            )
        return findings
    assigned = set(vl.lid_to_vl or {})
    term_lids = set(snap.terminal_lids.tolist())
    for wanted in (
        [lid for lid in snap.terminal_lids.tolist() if lid not in assigned],
        [lid for lid in snap.lids.tolist() if lid not in term_lids and lid not in assigned],
    ):
        if wanted:
            findings.append(
                Finding(rule="VLC003", lid=wanted[0], message=f"{len(wanted)} LIDs",
                        detail={"missing_lids": wanted})
            )
    return findings
