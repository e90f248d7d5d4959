"""Hot-standby state replication: the journal and the standby replicas.

An OpenSM pair that fails over without a full heavy sweep must share
state: the master streams every change it makes — LID assignments, the
routing tables it is about to distribute, the LFT shadow blocks it has
programmed, vSwitch table updates — to its standbys as it goes. The
reproduction models that stream as a **sequence-numbered journal**:

* the master appends one :class:`JournalEntry` per state change;
* entries are batched into SubnSet(SMInfo) SMPs and sent to every alive
  standby through the normal (fault-injectable) transport — replication
  traffic costs real SMPs and can be lost like anything else;
* each standby's :class:`StandbyReplica` applies delivered batches in
  order and tracks ``applied_seq``; a lost batch leaves a gap, the
  replica refuses to apply past it, and the standby is *stale*.

At failover the elected successor compares its replica against the
journal head: **current** means it can run a light verify sweep and
finish the pending distribution from the journal; **stale** forces the
heavy sweep (full rediscovery + recompute) — the cost difference the
failover report surfaces.

The journal is bounded: entries older than the capacity are truncated,
so a standby that fell far enough behind can never catch up and is
permanently stale until the next failover re-seeds it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional

import numpy as np

from repro.constants import LFT_BLOCK_SIZE, LFT_DROP_PORT, LFT_UNSET
from repro.errors import HighAvailabilityError
from repro.fabric.lft import lft_block_of
from repro.sm.routing.base import RoutingTables

__all__ = ["JournalEntry", "ReplicationJournal", "StandbyReplica"]

#: Journal entry kinds the replication protocol understands.
ENTRY_KINDS = ("lid", "tables", "lft", "vswitch", "topology")


@dataclass(frozen=True)
class JournalEntry:
    """One replicated state change (seq numbers start at 1)."""

    seq: int
    kind: str
    payload: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        """Wire form carried inside a SubnSet(SMInfo) replication batch."""
        return {"seq": self.seq, "kind": self.kind, "payload": self.payload}


class ReplicationJournal:
    """Bounded, sequence-numbered log of the master's state changes."""

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise HighAvailabilityError("journal capacity must be >= 1")
        self.capacity = capacity
        self._entries: Deque[JournalEntry] = deque(maxlen=capacity)
        self._next_seq = 1

    def append(self, kind: str, payload: Dict[str, Any]) -> JournalEntry:
        """Record one state change and return its entry."""
        if kind not in ENTRY_KINDS:
            raise HighAvailabilityError(f"unknown journal entry kind {kind!r}")
        entry = JournalEntry(self._next_seq, kind, payload)
        self._next_seq += 1
        self._entries.append(entry)
        return entry

    @property
    def head_seq(self) -> int:
        """Sequence number of the newest entry (0 when empty)."""
        return self._next_seq - 1

    @property
    def oldest_seq(self) -> int:
        """Oldest retained sequence number (0 when empty)."""
        return self._entries[0].seq if self._entries else 0

    def __len__(self) -> int:
        return len(self._entries)

    def entries_since(self, seq: int) -> Optional[List[JournalEntry]]:
        """Entries with sequence number > *seq*, oldest first.

        Returns ``None`` when the journal has truncated past *seq* — the
        requester can never catch up incrementally and must resync.
        """
        if seq >= self.head_seq:
            return []
        if self._entries and seq + 1 < self._entries[0].seq:
            return None
        return [e for e in self._entries if e.seq > seq]


class StandbyReplica:
    """One standby's view of the replicated SM state.

    Applies journal batches strictly in order: a gap (lost batch) stops
    application and leaves the replica stale from that point on.
    """

    def __init__(self, node_name: str) -> None:
        self.node_name = node_name
        self.applied_seq = 0
        self.applied_count = 0
        #: Entries refused because of a sequence gap.
        self.gaps = 0
        self.lids: Dict[str, int] = {}
        self.tables_payload: Optional[Dict[str, Any]] = None
        #: Per-switch block counts of the last distribution the master
        #: completed (the LFT shadow summary).
        self.lft_blocks: Dict[str, int] = {}
        self.vswitch: Optional[Dict[str, Any]] = None
        #: Live topology mutations replicated by the master, in order
        #: (``TopologyMutation.as_dict`` payloads). A successor elected on
        #: a rewired fabric replays these against its own topology model
        #: before trusting the replicated routing intent.
        self.topology_mutations: List[Dict[str, Any]] = []

    def apply(self, entries: List[Dict[str, Any]]) -> int:
        """Apply one delivered batch of serialized entries; return how
        many were applied (duplicates skipped, gaps refused)."""
        applied = 0
        for raw in entries:
            seq = int(raw["seq"])
            if seq <= self.applied_seq:
                continue  # duplicate delivery
            if seq != self.applied_seq + 1:
                self.gaps += 1
                break  # a batch was lost before this one: stale from here
            self._apply_one(raw["kind"], raw["payload"])
            self.applied_seq = seq
            self.applied_count += 1
            applied += 1
        return applied

    def _apply_one(self, kind: str, payload: Dict[str, Any]) -> None:
        if kind == "lid":
            self.lids.update(payload)
        elif kind == "tables":
            # Deep-copy: the journal entry (and every other replica)
            # shares this payload object; later vSwitch ops mutate our
            # private port array only.
            self.tables_payload = {
                "algorithm": payload["algorithm"],
                "ports": np.array(payload["ports"], dtype=np.int16),
            }
        elif kind == "lft":
            self.lft_blocks = dict(payload.get("blocks", {}))
        elif kind == "vswitch":
            self.vswitch = payload
            self._apply_vswitch(payload)
        elif kind == "topology":
            self.topology_mutations.append(dict(payload))

    def _apply_vswitch(self, payload: Dict[str, Any]) -> None:
        """Mirror a vSwitch table update onto the replicated tables.

        The master's reconfigurer keeps its live ``current_tables`` in
        sync after every LID migration; a replica that skipped this
        would hand the successor pre-migration routing and the light
        sweep would *revert* the moves.
        """
        if self.tables_payload is None:
            return
        ports = self.tables_payload["ports"]
        op = payload.get("op")
        switches = payload.get("switches")
        rows = slice(None) if switches is None else list(switches)
        if op == "swap":
            lid_a, lid_b = int(payload["lid_a"]), int(payload["lid_b"])
            if max(lid_a, lid_b) >= ports.shape[1]:
                return
            col_a = ports[rows, lid_a].copy()
            ports[rows, lid_a] = ports[rows, lid_b]
            ports[rows, lid_b] = col_a
        elif op == "copy":
            template, target = (
                int(payload["template_lid"]),
                int(payload["target_lid"]),
            )
            top = max(template, target)
            if top >= ports.shape[1]:
                width = (lft_block_of(top) + 1) * LFT_BLOCK_SIZE
                grown = np.full(
                    (ports.shape[0], width), LFT_UNSET, dtype=ports.dtype
                )
                grown[:, : ports.shape[1]] = ports
                ports = grown
                self.tables_payload["ports"] = ports
            ports[rows, target] = ports[rows, template]
        elif op == "invalidate":
            lid = int(payload["lid"])
            if lid < ports.shape[1]:
                ports[:, lid] = LFT_DROP_PORT

    def is_current(self, journal: ReplicationJournal) -> bool:
        """Whether this replica has applied everything the master logged."""
        return self.applied_seq == journal.head_seq

    def routing_tables(self) -> Optional[RoutingTables]:
        """Reconstruct the last replicated routing intent.

        ``compute_seconds`` is zero by construction: the successor
        *inherits* the paths instead of recomputing them — exactly the
        saving a light failover is about.
        """
        if self.tables_payload is None:
            return None
        return RoutingTables(
            algorithm=str(self.tables_payload["algorithm"]),
            ports=np.array(self.tables_payload["ports"], dtype=np.int16),
            compute_seconds=0.0,
            metadata={"replicated": True, "replica": self.node_name},
        )
