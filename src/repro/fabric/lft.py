"""Linear Forwarding Tables (LFTs) with 64-LID block accounting.

A switch forwards a packet by indexing its LFT with the destination LID to
obtain an output port. The subnet manager programs LFTs with
SubnSet(LinearForwardingTable) SMPs, each of which carries one **block of 64
consecutive LID entries** (paper sections V-C1 and VI-A). The number of SMPs
a reconfiguration needs is therefore the number of *blocks that changed*,
which is the core quantity behind Table I and equations (2)-(5).

The table is backed by a NumPy ``int16`` array so block diffing is a
vectorized reshape-and-compare rather than a Python loop (see DESIGN.md
performance notes).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.constants import (
    LFT_BLOCK_SIZE,
    LFT_DROP_PORT,
    LFT_UNSET,
    MAX_UNICAST_LID,
)
from repro.errors import TopologyError

__all__ = [
    "LinearForwardingTable",
    "apply_column_op",
    "lft_block_of",
    "blocks_covering",
    "min_blocks_for_lid_count",
]


def lft_block_of(lid: int) -> int:
    """Return the index of the 64-LID block containing *lid*."""
    if lid < 0:
        raise TopologyError(f"negative LID {lid}")
    return lid // LFT_BLOCK_SIZE


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
    ports: np.ndarray, op: Mapping[str, Any]
) -> Optional[np.ndarray]:
    """Land one vSwitch column edit on a recorded ``ports[switch, lid]``.

    *op* is the record the SM master journals for its standbys, and the
    master's own ``current_tables`` take the edit through this function
    too, so a replica that applied every record holds the master's
    matrix. ``op["op"]`` names the edit of Algorithm 1:

    * ``"swap"`` exchanges columns ``lid_a`` and ``lid_b``;
    * ``"copy"`` gives ``target_lid`` the column of ``template_lid``,
      first widening the matrix (whole 64-LID blocks of
      :data:`~repro.constants.LFT_UNSET`) when either LID lies beyond it;
    * ``"invalidate"`` points column ``lid`` at the drop port.

    ``op.get("switches")`` limits the edit to those switch rows (the
    section VI-D skyline); absent or ``None`` means every switch. The
    edit is made in place and the matrix returned — a new, wider one
    after growth — or ``None`` when a swap or invalidate names a LID
    beyond the matrix, in which case nothing was touched.
    """
    kind = op["op"]
    switches = op.get("switches")
    rows = slice(None) if switches is None else list(switches)
    if kind == "copy":
        template, target = int(op["template_lid"]), int(op["target_lid"])
        top = max(template, target)
        if top >= ports.shape[1]:
            width = (lft_block_of(top) + 1) * LFT_BLOCK_SIZE
            grown = np.full((ports.shape[0], width), LFT_UNSET, dtype=ports.dtype)
            grown[:, : ports.shape[1]] = ports
            ports = grown
        ports[rows, target] = ports[rows, template]
        return ports
    if kind == "swap":
        lid_a, lid_b = int(op["lid_a"]), int(op["lid_b"])
        if max(lid_a, lid_b) >= ports.shape[1]:
            return None
        col_a = ports[rows, lid_a].copy()
        ports[rows, lid_a] = ports[rows, lid_b]
        ports[rows, lid_b] = col_a
        return ports
    if kind == "invalidate":
        lid = int(op["lid"])
        if lid >= ports.shape[1]:
            return None
        ports[rows, lid] = LFT_DROP_PORT
        return ports
    raise TopologyError(f"unknown LFT column op {kind!r}")


class LinearForwardingTable:
    """One switch's LID -> output-port table.

    Entries default to :data:`~repro.constants.LFT_UNSET` (255), which is
    also the IB "drop" port — an unprogrammed entry drops traffic exactly
    like the partially-static reconfiguration of section VI-C intends.
    """

    def __init__(self, top_lid: int = MAX_UNICAST_LID) -> None:
        if not 0 < top_lid <= MAX_UNICAST_LID:
            raise TopologyError(f"top_lid {top_lid} outside unicast space")
        n_blocks = lft_block_of(top_lid) + 1
        self._ports = np.full(n_blocks * LFT_BLOCK_SIZE, LFT_UNSET, dtype=np.int16)
        self._top_lid = top_lid

    # -- capacity ---------------------------------------------------------

    @property
    def top_lid(self) -> int:
        """Highest LID this table can currently hold."""
        return self._top_lid

    @property
    def num_blocks(self) -> int:
        """Number of 64-entry blocks currently allocated."""
        return len(self._ports) // LFT_BLOCK_SIZE

    def _ensure_capacity(self, lid: int) -> None:
        if lid >= len(self._ports):
            n_blocks = lft_block_of(lid) + 1
            grown = np.full(n_blocks * LFT_BLOCK_SIZE, LFT_UNSET, dtype=np.int16)
            grown[: len(self._ports)] = self._ports
            self._ports = grown
            self._top_lid = max(self._top_lid, lid)

    # -- entry access -----------------------------------------------------

    def get(self, lid: int) -> int:
        """Output port for *lid* (LFT_UNSET if not programmed)."""
        if lid < 0:
            raise TopologyError(f"negative LID {lid}")
        if lid >= len(self._ports):
            return LFT_UNSET
        return int(self._ports[lid])

    def set(self, lid: int, port: int) -> None:
        """Program *lid* to forward through *port*."""
        if lid <= 0 or lid > MAX_UNICAST_LID:
            raise TopologyError(f"LID {lid} outside unicast range")
        if not 0 <= port <= 255:
            raise TopologyError(f"port {port} outside 0-255")
        self._ensure_capacity(lid)
        self._ports[lid] = port

    def clear(self, lid: int) -> None:
        """Reset *lid*'s entry to unprogrammed (drop)."""
        if 0 <= lid < len(self._ports):
            self._ports[lid] = LFT_UNSET

    def drop(self, lid: int) -> None:
        """Force traffic for *lid* to be dropped (port 255, section VI-C)."""
        self.set(lid, LFT_DROP_PORT)

    def is_programmed(self, lid: int) -> bool:
        """True iff *lid* has a real (non-drop) output port."""
        return self.get(lid) != LFT_UNSET

    def swap(self, lid_a: int, lid_b: int) -> Tuple[int, ...]:
        """Swap the entries of two LIDs; return affected block indices.

        This is the primitive of the *prepopulated LIDs* reconfiguration
        (section V-C1): the migrating VM's LID entry is exchanged with the
        LID of the VF it will occupy at the destination. Returns the blocks
        whose contents actually changed — 0, 1 or 2 of them, which is the
        per-switch SMP count ``m'``.
        """
        a, b = self.get(lid_a), self.get(lid_b)
        if a == b:
            return ()
        self._ensure_capacity(max(lid_a, lid_b))
        self._ports[lid_a], self._ports[lid_b] = b, a
        ba, bb = lft_block_of(lid_a), lft_block_of(lid_b)
        return (ba,) if ba == bb else tuple(sorted((ba, bb)))

    def copy_entry(self, src_lid: int, dst_lid: int) -> Tuple[int, ...]:
        """Copy *src_lid*'s port into *dst_lid*; return changed blocks.

        Primitive of the *dynamic LID assignment* reconfiguration (section
        V-C2): the new VM LID inherits the forwarding port of the PF of its
        (destination) hypervisor. At most one block changes, hence m' = 1.
        """
        port = self.get(src_lid)
        if self.get(dst_lid) == port:
            return ()
        self._ensure_capacity(dst_lid)
        self._ports[dst_lid] = port
        return (lft_block_of(dst_lid),)

    # -- bulk / diffing ----------------------------------------------------

    def as_array(self) -> np.ndarray:
        """Read-only view of the underlying LID->port array."""
        view = self._ports.view()
        view.flags.writeable = False
        return view

    def clone(self) -> "LinearForwardingTable":
        """Deep copy of this table."""
        out = LinearForwardingTable(top_lid=self._top_lid)
        out._ports = self._ports.copy()
        return out

    def programmed_lids(self) -> np.ndarray:
        """Array of LIDs with a real output port programmed."""
        return np.nonzero(self._ports != LFT_UNSET)[0]

    def used_blocks(self) -> List[int]:
        """Block indices that contain at least one programmed entry."""
        mask = (self._ports != LFT_UNSET).reshape(-1, LFT_BLOCK_SIZE)
        return np.nonzero(mask.any(axis=1))[0].tolist()

    def diff_blocks(self, other: "LinearForwardingTable") -> List[int]:
        """Blocks whose contents differ between *self* and *other*.

        The length of the result is exactly the number of
        SubnSet(LinearForwardingTable) SMPs needed to turn *self* into
        *other* on a real switch.
        """
        a, b = self._ports, other._ports
        if len(a) != len(b):
            n = max(len(a), len(b))
            a = np.concatenate([a, np.full(n - len(a), LFT_UNSET, dtype=np.int16)])
            b = np.concatenate([b, np.full(n - len(b), LFT_UNSET, dtype=np.int16)])
        mask = (a != b).reshape(-1, LFT_BLOCK_SIZE)
        return np.nonzero(mask.any(axis=1))[0].tolist()

    def load_block(self, block: int, entries: np.ndarray) -> None:
        """Overwrite one 64-entry block (what a SubnSet LFT SMP does)."""
        if entries.shape != (LFT_BLOCK_SIZE,):
            raise TopologyError(
                f"LFT block payload must have {LFT_BLOCK_SIZE} entries"
            )
        self._ensure_capacity((block + 1) * LFT_BLOCK_SIZE - 1)
        self._ports[block * LFT_BLOCK_SIZE : (block + 1) * LFT_BLOCK_SIZE] = entries

    def load_blocks(self, blocks: Sequence[int], entries: np.ndarray) -> None:
        """Overwrite block ``blocks[i]`` with row ``entries[i]``.

        The effect of one :meth:`load_block` per row, in order (a block
        named twice keeps its last row). That is also how a few rows are
        applied — the ``m' <= 2`` of a vSwitch reconfiguration — because
        setting up one indexed assignment costs as much as four slice
        copies; more rows (a distribution's ``m``) go in one assignment.
        """
        if entries.shape != (len(blocks), LFT_BLOCK_SIZE):
            raise TopologyError(
                f"LFT block payload must have {LFT_BLOCK_SIZE} entries"
            )
        if len(blocks) < 4:
            for block, row in zip(blocks, entries):
                self.load_block(block, row)
        else:
            index = np.asarray(blocks, dtype=np.intp)
            self._ensure_capacity((int(index.max()) + 1) * LFT_BLOCK_SIZE - 1)
            self._ports.reshape(-1, LFT_BLOCK_SIZE)[index] = entries

    def get_block(self, block: int) -> np.ndarray:
        """Copy of one 64-entry block (what a SubnGet LFT SMP returns); a
        block beyond the table reads as unprogrammed."""
        ports = self._ports[block * LFT_BLOCK_SIZE : (block + 1) * LFT_BLOCK_SIZE]
        if not len(ports):
            return np.full(LFT_BLOCK_SIZE, LFT_UNSET, dtype=np.int16)
        return ports.copy()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearForwardingTable):
            return NotImplemented
        return not self.diff_blocks(other)

    def __hash__(self) -> int:  # tables are mutable; identity hash
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n = len(self.programmed_lids())
        return f"<LFT {n} programmed LIDs, {self.num_blocks} blocks>"
