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

Numbering, truncation and in-order application are
:mod:`repro.util.seqlog`'s; this module adds the record schema (entry
kinds) and what each kind does to a replica.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import HighAvailabilityError
from repro.fabric.lft import apply_column_op
from repro.sm.routing.base import RoutingTables
from repro.util.seqlog import InOrderConsumer, SequencedLog

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


class ReplicationJournal(SequencedLog[JournalEntry]):
    """Bounded, sequence-numbered log of the master's state changes."""

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise HighAvailabilityError("journal capacity must be >= 1")
        super().__init__(capacity)

    def append(self, kind: str, payload: Dict[str, Any]) -> JournalEntry:
        """Record one state change and return its entry."""
        if kind not in ENTRY_KINDS:
            raise HighAvailabilityError(f"unknown journal entry kind {kind!r}")
        return self.append_entry(JournalEntry(self.next_seq, kind, payload))


class StandbyReplica(InOrderConsumer):
    """One standby's view of the replicated SM state.

    Applies journal batches strictly in order: a gap (lost batch) stops
    application and leaves the replica stale from that point on.
    """

    def __init__(self, node_name: str) -> None:
        super().__init__()
        self.node_name = node_name
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
        return self.consume(
            entries,
            lambda raw: int(raw["seq"]),
            lambda raw: self._apply_one(raw["kind"], raw["payload"]),
        )

    def _apply_one(self, kind: str, payload: Dict[str, Any]) -> None:
        if kind == "lid":
            self.lids.update(payload)
        elif kind == "tables":
            # Deep-copy: the journal entry (and every other replica)
            # shares this payload object; later vSwitch ops mutate our
            # private planes only.
            lanes = payload["lanes"]
            self.tables_payload = {
                "algorithm": payload["algorithm"],
                "ports": np.array(payload["ports"], dtype=np.int16),
                "lanes": None if lanes is None else lanes.copy(),
                "num_vls": payload["num_vls"],
                "max_vls": payload["max_vls"],
            }
        elif kind == "lft":
            self.lft_blocks = dict(payload.get("blocks", {}))
        elif kind == "vswitch":
            # The master's reconfigurer landed this same op on its live
            # ``current_tables``; a replica that skipped it would hand the
            # successor pre-migration routing and the light sweep would
            # *revert* the moves.
            self.vswitch = payload
            tables = self.tables_payload
            if tables is not None:
                planes = apply_column_op(tables["ports"], payload, tables["lanes"])
                if planes is not None:
                    tables["ports"], tables["lanes"] = planes
        elif kind == "topology":
            self.topology_mutations.append(dict(payload))

    def routing_tables(self) -> Optional[RoutingTables]:
        """Reconstruct the last replicated routing intent.

        ``compute_seconds`` is zero by construction: the successor
        *inherits* the paths instead of recomputing them — exactly the
        saving a light failover is about.
        """
        if self.tables_payload is None:
            return None
        lanes = self.tables_payload["lanes"]
        return RoutingTables(
            algorithm=str(self.tables_payload["algorithm"]),
            ports=np.array(self.tables_payload["ports"], dtype=np.int16),
            compute_seconds=0.0,
            num_vls=int(self.tables_payload["num_vls"]),
            metadata={"replicated": True, "replica": self.node_name},
            lanes=None if lanes is None else lanes.copy(),
            max_vls=int(self.tables_payload["max_vls"]),
        )
