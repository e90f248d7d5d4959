"""One sequence-numbered log and one in-order consumer.

Two subsystems keep state as "numbered records applied strictly in
order": the SM master streams its changes to hot standbys
(:mod:`repro.sm.ha.journal`) and the tenant service writes a write-ahead
intent journal (:mod:`repro.service.journal`). Both are record schemas
over this module, which is the only place that does sequence arithmetic.
The contract they share:

* sequence numbers start at 1 and grow by exactly 1 per record;
* a consumer applies record ``n + 1`` only after record ``n``: a record
  it already has is a **duplicate** and is skipped, a record further
  ahead means some were lost — a **gap** — and is refused, which leaves
  the consumer *stale* until someone re-sends what it is missing;
* a bounded log forgets its oldest records, and
  :meth:`SequencedLog.entries_since` answering ``None`` is the one way to
  say "truncated past you": that consumer cannot be caught up from the
  log any more.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import (
    Callable,
    Deque,
    Generic,
    Iterable,
    List,
    Optional,
    Protocol,
    TypeVar,
)

from repro.errors import SequenceError

__all__ = ["InOrderConsumer", "Sequenced", "SequencedLog"]


class Sequenced(Protocol):
    """Anything that carries its sequence number."""

    @property
    def seq(self) -> int: ...


E = TypeVar("E", bound=Sequenced)
R = TypeVar("R")


class SequencedLog(Generic[E]):
    """Append-only log of records numbered 1, 2, 3, ... in append order.

    With a *capacity* (>= 1) it is a ring that keeps the newest entries;
    numbering is unaffected by what the ring has dropped.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.capacity = capacity
        #: The retained entries, oldest first.
        self.entries: Deque[E] = deque(maxlen=capacity)

    @property
    def head_seq(self) -> int:
        """Sequence number of the newest entry (0 when empty)."""
        return self.entries[-1].seq if self.entries else 0

    @property
    def next_seq(self) -> int:
        """The number the next appended entry must carry."""
        return self.head_seq + 1

    @property
    def oldest_seq(self) -> int:
        """Oldest retained sequence number (0 when empty)."""
        return self.entries[0].seq if self.entries else 0

    def __len__(self) -> int:
        return len(self.entries)

    def append_entry(self, entry: E) -> E:
        """Append *entry*, which must be numbered :attr:`next_seq`."""
        entries = self.entries
        if entry.seq != (entries[-1].seq + 1 if entries else 1):
            raise SequenceError(
                f"expected seq {self.next_seq}, found {entry.seq}"
            )
        entries.append(entry)
        return entry

    def entries_since(self, seq: int) -> Optional[List[E]]:
        """Entries numbered above *seq*, oldest first.

        ``[]`` when there is nothing newer; ``None`` when the ring has
        dropped entries the requester still needs (truncated past it).
        """
        if seq >= self.head_seq:
            return []
        skip = seq + 1 - self.oldest_seq
        if skip < 0:
            return None
        return list(islice(self.entries, skip, None))


class InOrderConsumer:
    """The receiving side: applies delivered records strictly in order."""

    def __init__(self) -> None:
        #: Everything up to and including this number has been applied.
        self.applied_seq = 0
        self.applied_count = 0
        #: Deliveries refused because records before them were missing.
        self.gaps = 0

    def consume(
        self,
        records: Iterable[R],
        seq_of: Callable[[R], int],
        apply: Callable[[R], None],
    ) -> int:
        """Apply one delivered batch; return how many records applied.

        Duplicates are skipped; the first record past a gap stops the
        batch (the consumer is stale from there on).
        """
        applied = 0
        for record in records:
            seq = seq_of(record)
            if seq <= self.applied_seq:
                continue  # duplicate delivery
            if seq != self.applied_seq + 1:
                self.gaps += 1
                break  # records were lost before this one: stale from here
            apply(record)
            self.applied_seq = seq
            self.applied_count += 1
            applied += 1
        return applied

    def is_current(self, log: "SequencedLog[E]") -> bool:
        """Whether everything *log* holds has been applied here."""
        return self.applied_seq == log.head_seq
