"""Linear Forwarding Tables (LFTs) with 64-LID block accounting.

A switch forwards a packet by indexing its LFT with the destination LID to
obtain an output port. The subnet manager programs LFTs with SubnSet(LFT)
SMPs, each of which carries one **block of 64 consecutive LID entries**
(paper sections V-C1 and VI-A). The number of SMPs a reconfiguration
needs is therefore the number of *blocks that changed*, which is the core
quantity behind Table I and equations (2)-(5).

Every LFT of the fabric — the hardware store
:attr:`repro.fabric.topology.Topology.lft`, the SM's recorded routing and
its replicas — is one ``int16`` ``(switch, LID)`` matrix, widened in whole
blocks by :func:`widen`, so block diffing is a reshape-and-compare rather
than a Python loop (see DESIGN.md performance notes). A VL-routed
function carries a second ``int8`` plane of the same shape, the data lane
of every (source switch, LID) cell; a column edit moves both planes.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.constants import (
    LFT_BLOCK_SIZE,
    LFT_BLOCKS_FULL_SUBNET,
    LFT_DROP_PORT,
    LFT_UNSET,
    NO_LANE,
)
from repro.errors import TopologyError

__all__ = [
    "apply_column_op",
    "check_blocks",
    "widen",
    "lft_block_of",
    "blocks_covering",
    "min_blocks_for_lid_count",
]


def lft_block_of(lid: int) -> int:
    """Return the index of the 64-LID block containing *lid*."""
    if lid < 0:
        raise TopologyError(f"negative LID {lid}")
    return lid // LFT_BLOCK_SIZE


def check_blocks(blocks: Sequence[int]) -> None:
    """Refuse, with :class:`~repro.errors.TopologyError`, a block outside
    the unicast LID space (``0..LFT_BLOCKS_FULL_SUBNET - 1``)."""
    if len(blocks) and not 0 <= min(blocks) <= max(blocks) < LFT_BLOCKS_FULL_SUBNET:
        raise TopologyError(
            f"LFT blocks {min(blocks)}..{max(blocks)} reach outside"
            f" 0..{LFT_BLOCKS_FULL_SUBNET - 1}"
        )


def widen(ports: np.ndarray, lid: int, fill: int = LFT_UNSET) -> np.ndarray:
    """*ports* if its columns reach *lid*, else a copy widened in whole
    64-LID blocks of *fill* (:data:`~repro.constants.LFT_UNSET`) to
    cover it."""
    if lid < ports.shape[1]:
        return ports
    grown = np.full(
        (ports.shape[0], (lft_block_of(lid) + 1) * LFT_BLOCK_SIZE),
        fill,
        dtype=ports.dtype,
    )
    grown[:, : ports.shape[1]] = ports
    return grown


def blocks_covering(lids: Iterable[int]) -> List[int]:
    """Sorted unique block indices covering all *lids*."""
    return sorted({lft_block_of(lid) for lid in lids})


def min_blocks_for_lid_count(num_lids: int) -> int:
    """Minimum LFT blocks per switch when LIDs are packed from LID 1 upward.

    This is the "Min LFT Blocks/Switch" column of the paper's Table I: the
    amount of *consumed* LIDs rules the minimum number of blocks, assuming a
    dense assignment starting at LID 1 (LID 0 is reserved but shares block
    0 with LIDs 1-63, hence the +1).
    """
    if num_lids < 0:
        raise TopologyError("num_lids must be non-negative")
    if num_lids == 0:
        return 0
    topmost = num_lids  # LIDs 1..num_lids, LID 0 reserved.
    return lft_block_of(topmost) + 1


def apply_column_op(
    ports: np.ndarray,
    op: Mapping[str, Any],
    lanes: Optional[np.ndarray] = None,
) -> Optional[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """Land one vSwitch column edit on a recorded ``ports[switch, lid]``
    and, for a VL-routed function, its ``lanes[switch, lid]`` plane.

    *op* is the record the SM master journals for its standbys, and the
    master's own ``current_tables`` take the edit through this function
    too, so a replica that applied every record holds the master's
    planes. ``op["op"]`` names the edit of Algorithm 1:

    * ``"swap"`` exchanges columns ``lid_a`` and ``lid_b``;
    * ``"copy"`` gives ``target_lid`` the column of ``template_lid``,
      first widening the matrices (whole 64-LID blocks of
      :data:`~repro.constants.LFT_UNSET` ports and
      :data:`~repro.constants.NO_LANE` lanes) when either LID lies
      beyond them;
    * ``"invalidate"`` points column ``lid`` at the drop port (its lanes
      stay: the LID is still bound).

    ``op.get("switches")`` limits the edit to those switch rows (the
    section VI-D skyline); absent or ``None`` means every switch. Both
    planes move on the same rows: a row whose port entry keeps the old
    path keeps that path's lane (an intra-leaf edit on DFSSSP leaves the
    column's tree above the leaf, and its lane, where they were). The
    edit is made in place and the ``(ports, lanes)`` pair returned — new,
    wider matrices after growth — or ``None`` when a swap or invalidate
    names a LID beyond the matrix, in which case nothing was touched.
    """
    kind = op["op"]
    switches = op.get("switches")
    rows = slice(None) if switches is None else list(switches)
    if kind == "copy":
        template, target = int(op["template_lid"]), int(op["target_lid"])
        ports = widen(ports, max(template, target))
        if lanes is not None:
            lanes = widen(lanes, max(template, target), NO_LANE)
        for plane in _planes(ports, lanes):
            plane[rows, target] = plane[rows, template]
        return ports, lanes
    if kind == "swap":
        lid_a, lid_b = int(op["lid_a"]), int(op["lid_b"])
        if max(lid_a, lid_b) >= ports.shape[1]:
            return None
        for plane in _planes(ports, lanes):
            col_a = plane[rows, lid_a].copy()
            plane[rows, lid_a] = plane[rows, lid_b]
            plane[rows, lid_b] = col_a
        return ports, lanes
    if kind == "invalidate":
        lid = int(op["lid"])
        if lid >= ports.shape[1]:
            return None
        ports[rows, lid] = LFT_DROP_PORT
        return ports, lanes
    raise TopologyError(f"unknown LFT column op {kind!r}")


def _planes(ports: np.ndarray, lanes: Optional[np.ndarray]) -> List[np.ndarray]:
    """The planes a column edit moves: the ports, and the lanes if any."""
    return [ports] if lanes is None else [ports, lanes]
