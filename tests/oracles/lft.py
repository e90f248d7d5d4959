"""One switch's LFT as its own growing array — the per-switch table the
hardware store :attr:`repro.fabric.topology.Topology.lft` replaced.

Oracle for that store (``tests/fabric/test_lft_store.py`` holds every
store row to one of these after each step) and the table the
packet-by-packet reconfigurer of :mod:`tests.oracles.reconfig` edits:
clone the switch's row, apply the swap/copy/drop to the clone, compare
blocks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.constants import (
    LFT_BLOCK_SIZE,
    LFT_DROP_PORT,
    LFT_UNSET,
    MAX_UNICAST_LID,
)
from repro.errors import TopologyError

__all__ = ["LinearForwardingTable"]


class LinearForwardingTable:
    """One switch's LID -> output-port table, grown block by block."""

    def __init__(self) -> None:
        self._ports = np.full(LFT_BLOCK_SIZE, LFT_UNSET, dtype=np.int16)

    @classmethod
    def of(cls, row: np.ndarray) -> "LinearForwardingTable":
        """A table holding a copy of *row* (one row of the hardware store)."""
        out = cls()
        out._ports = np.array(row, dtype=np.int16, copy=True)
        return out

    def _ensure_capacity(self, lid: int) -> None:
        if lid >= len(self._ports):
            n_blocks = lid // LFT_BLOCK_SIZE + 1
            grown = np.full(n_blocks * LFT_BLOCK_SIZE, LFT_UNSET, dtype=np.int16)
            grown[: len(self._ports)] = self._ports
            self._ports = grown

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

    def drop(self, lid: int) -> None:
        """Force traffic for *lid* to be dropped (port 255, section VI-C)."""
        self.set(lid, LFT_DROP_PORT)

    def swap(self, lid_a: int, lid_b: int) -> None:
        """Swap two LIDs' entries."""
        a, b = self.get(lid_a), self.get(lid_b)
        self._ensure_capacity(max(lid_a, lid_b))
        self._ports[lid_a], self._ports[lid_b] = b, a

    def copy_entry(self, src_lid: int, dst_lid: int) -> None:
        """Copy *src_lid*'s port into *dst_lid*."""
        port = self.get(src_lid)
        self._ensure_capacity(dst_lid)
        self._ports[dst_lid] = port

    def clone(self) -> "LinearForwardingTable":
        """Deep copy of this table."""
        return self.of(self._ports)

    def as_array(self) -> np.ndarray:
        """The LID -> port array (a copy)."""
        return self._ports.copy()

    def load_blocks(self, blocks: Sequence[int], entries: np.ndarray) -> None:
        """Overwrite block ``blocks[i]`` with ``entries[i]``, row by row."""
        for block, row in zip(blocks, entries):
            self._ensure_capacity((block + 1) * LFT_BLOCK_SIZE - 1)
            self._ports[block * LFT_BLOCK_SIZE : (block + 1) * LFT_BLOCK_SIZE] = row

    def get_block(self, block: int) -> np.ndarray:
        """Copy of one 64-entry block; a block beyond the table reads unset."""
        ports = self._ports[block * LFT_BLOCK_SIZE : (block + 1) * LFT_BLOCK_SIZE]
        if not len(ports):
            return np.full(LFT_BLOCK_SIZE, LFT_UNSET, dtype=np.int16)
        return ports.copy()
