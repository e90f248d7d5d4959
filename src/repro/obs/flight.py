"""The SMP flight recorder: one structured event per SMP, ring-buffered.

Every SMP the transport delivers lands here as an :class:`SmpFlightEvent`
(kind, target, hops, directed-route flag, latency — the raw ``k``/``r``
material of the paper's cost model). The buffer is bounded: million-SMP
runs keep the most recent ``capacity`` events and count the rest as
dropped, so the recorder is safe to leave on permanently.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import asdict, dataclass
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Deque, Iterable, Iterator, List, Optional, Sequence, Union

from repro.errors import ReproError

__all__ = ["SmpFlightEvent", "FlightRecorder", "DEFAULT_FLIGHT_CAPACITY"]

#: Default ring size. At ~100 bytes/event this is a few MiB — enough for
#: every SMP of a paper-scale bring-up while staying bounded.
DEFAULT_FLIGHT_CAPACITY = 65_536


@dataclass(frozen=True)
class SmpFlightEvent:
    """One delivered SMP, as the flight recorder saw it."""

    time: float
    kind: str
    method: str
    target: str
    hops: int
    directed: bool
    latency: float
    lft_update: bool
    #: Wire outcome: ``delivered`` | ``dropped`` | ``corrupt`` | ``delayed``
    #: (non-default values only appear with fault injection enabled; the
    #: default keeps pre-fault-layer JSONL files loadable).
    status: str = "delivered"


class FlightRecorder:
    """A bounded ring buffer of :class:`SmpFlightEvent`.

    ``capacity=0`` disables recording entirely (events are neither stored
    nor counted as dropped — the recorder becomes a no-op).
    """

    def __init__(self, capacity: int = DEFAULT_FLIGHT_CAPACITY) -> None:
        if capacity < 0:
            raise ReproError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        #: Events, or — from :meth:`record_rows` — ``(time, fields)`` pairs
        #: that become events when somebody looks (most never are).
        self._ring: Optional[Deque[Union[SmpFlightEvent, tuple]]] = (
            deque(maxlen=capacity) if capacity else None
        )
        self.seen = 0

    @property
    def enabled(self) -> bool:
        """Whether events are being kept."""
        return self._ring is not None

    @property
    def dropped(self) -> int:
        """Events evicted from the ring so far."""
        if self._ring is None:
            return 0
        return self.seen - len(self._ring)

    def record(self, event: SmpFlightEvent) -> None:
        """Append one event (evicting the oldest when full)."""
        if self._ring is None:
            return
        self.seen += 1
        self._ring.append(event)

    def record_rows(
        self, times: Sequence[float], fields: Iterable[tuple], counts: Iterable[int]
    ) -> None:
        """Append one event per entry of *times*, oldest first.

        The events of a row of like SMPs differ only in their time: the
        first ``counts[0]`` events share ``fields[0]``, the next
        ``counts[1]`` share ``fields[1]``, and so on. A row's fields are
        everything but the time, in :class:`SmpFlightEvent` order
        (``kind`` … ``status``). Rows longer than the ring would evict
        their own head, so only the tail that survives is kept — ``seen``
        and ``dropped`` count every packet regardless.
        """
        if self._ring is None:
            return
        n = len(times)
        self.seen += n
        events = zip(times, chain.from_iterable(map(repeat, fields, counts)))
        self._ring.extend(islice(events, max(n - self.capacity, 0), None))

    def clear(self) -> None:
        """Forget everything recorded so far."""
        if self._ring is not None:
            self._ring.clear()
        self.seen = 0

    def __len__(self) -> int:
        return len(self._ring) if self._ring is not None else 0

    def __iter__(self) -> Iterator[SmpFlightEvent]:
        for item in self._ring or ():
            if type(item) is tuple:
                yield SmpFlightEvent(item[0], *item[1])
            else:
                yield item

    def events(self) -> List[SmpFlightEvent]:
        """The retained events, oldest first."""
        return list(self)

    def of_kind(self, kind: str) -> List[SmpFlightEvent]:
        """Retained events of one SMP kind."""
        return [e for e in self if e.kind == kind]

    def lft_updates(self) -> List[SmpFlightEvent]:
        """Retained SubnSet(LFT) events."""
        return [e for e in self if e.lft_update]

    def by_kind(self) -> Counter:
        """Retained event counts per kind."""
        return Counter(e.kind for e in self)

    # -- persistence ---------------------------------------------------------

    def to_jsonl(self, path: Union[str, Path]) -> int:
        """Write the retained events as JSON Lines; returns the count."""
        path = Path(path)
        count = 0
        with path.open("w", encoding="utf-8") as fp:
            for event in self:
                fp.write(json.dumps({"type": "smp", **asdict(event)}))
                fp.write("\n")
                count += 1
        return count

    @classmethod
    def from_jsonl(
        cls, path: Union[str, Path], *, capacity: int = DEFAULT_FLIGHT_CAPACITY
    ) -> "FlightRecorder":
        """Rebuild a recorder from a JSONL file written by :meth:`to_jsonl`.

        Lines whose ``type`` is not ``smp`` are skipped, so the combined
        run files written by :func:`repro.obs.export.export_run` load too.
        """
        rec = cls(capacity=capacity)
        with Path(path).open("r", encoding="utf-8") as fp:
            for line in fp:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                if obj.get("type") not in (None, "smp"):
                    continue
                obj.pop("type", None)
                rec.record(SmpFlightEvent(**obj))
        return rec
