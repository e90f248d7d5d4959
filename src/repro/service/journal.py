"""The write-ahead intent journal — the service's only durable state.

A record schema over :class:`~repro.util.seqlog.SequencedLog` (seqs from
1, strictly ordered replay — the core the SM's
:class:`~repro.sm.ha.journal.ReplicationJournal` shares), unbounded and
phase-structured: every tenant request appends an ``intent`` entry
*before* anything touches the fabric, an ``applied`` entry once the cloud
operation finished (with its observable effects in the payload), and a
``completed`` entry when the response is final. ``aborted`` marks
terminal failures. A ``genesis`` entry at seq 1 pins the cloud
configuration so a cold rebuild can reconstruct the fabric from nothing
but the journal.

Appends are atomic: a crash (the chaos ``kill-service`` knob, modelled by
:meth:`IntentJournal.arm_crash`) happens *between* appends — either right
after an entry was written, or instead of the next write (the op ran, its
``applied`` record is lost). Those two points cover every interleaving a
single-worker service can die in, because the cloud operations themselves
are atomic-with-rollback (PR 4's compensating-action machinery).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import SequenceError, ServiceError, ServiceKilled
from repro.util.seqlog import SequencedLog

__all__ = [
    "ENTRY_PHASES",
    "IntentJournal",
    "RequestState",
    "ServiceJournalEntry",
]

#: Legal entry phases, in lifecycle order where applicable.
ENTRY_PHASES = ("genesis", "intent", "applied", "completed", "aborted")


@dataclass(frozen=True)
class ServiceJournalEntry:
    """One immutable journal record."""

    seq: int
    phase: str
    request_id: str
    payload: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSONL line form."""
        return {
            "seq": self.seq,
            "phase": self.phase,
            "request_id": self.request_id,
            "payload": self.payload,
        }

    @classmethod
    def from_line(cls, line: str) -> "ServiceJournalEntry":
        """Inverse of the JSONL line form; :class:`ServiceError` says
        what is wrong with a line that is not one."""
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"not JSON (a torn write?): {exc.msg}") from exc
        if not isinstance(data, dict):
            raise ServiceError(
                f"expected a JSON object, found {type(data).__name__}"
            )
        try:
            return cls(
                seq=int(data["seq"]),
                phase=str(data["phase"]),
                request_id=str(data["request_id"]),
                payload=dict(data.get("payload") or {}),
            )
        except KeyError as exc:
            raise ServiceError(f"missing field {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"malformed field: {exc}") from exc


@dataclass
class RequestState:
    """One request's journaled life, folded (see
    :meth:`IntentJournal.requests`)."""

    #: The ``intent`` payload (a :class:`TenantRequest` as a dict).
    intent: Dict[str, object]
    #: The last phase journaled for the request.
    phase: str = "intent"
    #: The ``applied`` payload and its seq, once the op ran.
    applied: Optional[Dict[str, object]] = None
    applied_seq: Optional[int] = None
    #: The ``completed``/``aborted`` payload: lets recovery rebuild the
    #: idempotency table so a client retrying a finished request gets its
    #: original answer instead of a double execution.
    terminal: Optional[Dict[str, object]] = None


class IntentJournal(SequencedLog[ServiceJournalEntry]):
    """Append-only, seq-numbered WAL with optional JSONL durability.

    ``sink`` (a file path) makes every append durable immediately — the
    JSONL file is the on-disk journal ``repro serve`` writes. In-memory
    journals (tests, chaos) are equally valid: durability is a sink
    property, the replay semantics are identical.
    """

    def __init__(self, sink: Optional[Path] = None) -> None:
        super().__init__()
        self.sink = Path(sink) if sink is not None else None
        #: Armed crash point: ``(seq, before)``. ``before=False`` kills
        #: the worker right after entry *seq* is appended; ``before=True``
        #: kills it *instead of* appending entry seq (the write is lost).
        self._crash: Optional[Tuple[int, bool]] = None

    # -- writing -----------------------------------------------------------

    def append(
        self,
        phase: str,
        request_id: str,
        payload: Optional[Dict[str, object]] = None,
    ) -> ServiceJournalEntry:
        """Append one entry; returns it. May raise :class:`ServiceKilled`
        at an armed crash point (chaos / property tests)."""
        if phase not in ENTRY_PHASES:
            raise ServiceError(f"unknown journal phase {phase!r}")
        seq = self.next_seq
        if self._crash is not None and self._crash == (seq, True):
            self._crash = None
            raise ServiceKilled(
                f"service worker killed before journal seq {seq}"
                f" ({phase} for {request_id!r} lost)"
            )
        entry = self.append_entry(
            ServiceJournalEntry(seq, phase, request_id, payload or {})
        )
        if self.sink is not None:
            with self.sink.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(entry.as_dict(), sort_keys=True) + "\n")
        if self._crash is not None and self._crash == (seq, False):
            self._crash = None
            raise ServiceKilled(
                f"service worker killed after journal seq {seq}"
            )
        return entry

    def arm_crash(self, seq: int, *, before: bool = False) -> None:
        """Arm a one-shot :class:`~repro.errors.ServiceKilled` at *seq*."""
        if seq < 1:
            raise ServiceError("crash seq is 1-based")
        self._crash = (seq, before)

    # -- reading -----------------------------------------------------------

    def genesis(self) -> Optional[Dict[str, object]]:
        """The genesis payload (cloud build recipe), if journaled."""
        for entry in self.entries:
            if entry.phase == "genesis":
                return entry.payload
        return None

    def requests(self) -> Dict[str, RequestState]:
        """Fold the journal into per-request state, in intent order —
        the order pending requests must be re-executed in."""
        folded: Dict[str, RequestState] = {}
        for entry in self.entries:
            if entry.phase == "genesis":
                continue
            if entry.phase == "intent":
                if entry.request_id in folded:
                    raise ServiceError(
                        f"duplicate intent for {entry.request_id!r}"
                        f" at seq {entry.seq}"
                    )
                folded[entry.request_id] = RequestState(entry.payload)
                continue
            state = folded.get(entry.request_id)
            if state is None:
                raise ServiceError(
                    f"{entry.phase} without intent for"
                    f" {entry.request_id!r} at seq {entry.seq}"
                )
            state.phase = entry.phase
            if entry.phase == "applied":
                state.applied = entry.payload
                state.applied_seq = entry.seq
            elif entry.phase in ("completed", "aborted"):
                state.terminal = entry.payload
        return folded

    # -- durability --------------------------------------------------------

    def clipped(self, seq: int) -> "IntentJournal":
        """A new in-memory journal holding only entries up to *seq* — what
        a recovering worker reads after a crash at that offset."""
        clone = IntentJournal()
        for entry in self.entries:
            if entry.seq <= seq:
                clone.append_entry(entry)
        return clone

    @classmethod
    def from_jsonl(cls, path: Path) -> "IntentJournal":
        """Load a journal previously written through a ``sink``.

        A line that is not a journal record, or is out of sequence, is a
        :class:`ServiceError` naming its 1-based line number.
        """
        journal = cls()
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                journal.append_entry(ServiceJournalEntry.from_line(line))
            except SequenceError as exc:
                raise ServiceError(
                    f"{path}: line {number}: journal gap: {exc}"
                ) from exc
            except ServiceError as exc:
                raise ServiceError(f"{path}: line {number}: {exc}") from exc
        return journal
