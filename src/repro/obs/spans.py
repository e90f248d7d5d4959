"""Hierarchical spans: the run-wide record of what the control plane did.

A span brackets one logical operation (a migration, an LFT distribution,
a path computation) with sim-time start/end, free-form attributes and
timestamped events. Spans nest: the *current* span is carried in a
context variable, so deeply nested callees (ultimately the one booking
step of :mod:`repro.mad.transport`, behind ``send`` and ``deliver``) can
attach per-SMP events (:meth:`Span.record_rows`) to whatever operation is
in flight without any parameter plumbing.
"""

from __future__ import annotations

from contextvars import ContextVar
from itertools import chain, islice, repeat
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = ["SpanEvent", "Span", "current_span", "MAX_EVENTS_PER_SPAN"]

#: Safety valve: a span keeps at most this many discrete events (further
#: ones are counted in ``events_dropped`` but not stored), so a span around
#: a full paper-scale LFT distribution cannot grow without bound. The
#: aggregate SMP counters (``smp_count``/``lft_smp_count``) are exact
#: regardless.
MAX_EVENTS_PER_SPAN = 10_000

_current: ContextVar[Optional["Span"]] = ContextVar(
    "repro_obs_current_span", default=None
)


@dataclass(frozen=True)
class SpanEvent:
    """One timestamped event inside a span."""

    time: float
    name: str
    attributes: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Span:
    """One bracketed operation in the observability timeline."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start_time: float
    end_time: Optional[float] = None
    attributes: Dict[str, Any] = field(default_factory=dict)
    #: What :attr:`events` holds once read. Until then an SMP is kept as
    #: ``(time, keys, values)``: a tuple of atoms leaves the cyclic GC's
    #: books at its first collection, an event object and its dict never
    #: do — and a run records 10^5 of them that are seldom looked at. It
    #: is the shared empty tuple until the first append and a tuple again
    #: once the span ends, so a closed span keeps no list on the GC's
    #: books for the rest of the run.
    _events: Sequence[Any] = field(default=(), repr=False)
    #: Exact per-span SMP tallies, maintained even when the discrete event
    #: list is capped.
    smp_count: int = 0
    lft_smp_count: int = 0
    events_dropped: int = 0
    #: The context-variable token of an open span (see
    #: :meth:`repro.obs.hub.ObsHub.start_span`); ``None`` once it ended.
    _token: Any = field(default=None, repr=False, compare=False)
    #: The children as a chain (first, last, next sibling) rather than a
    #: list: a span with children keeps no container either.
    _first: Optional["Span"] = field(default=None, repr=False, compare=False)
    _last: Optional["Span"] = field(default=None, repr=False, compare=False)
    _next: Optional["Span"] = field(default=None, repr=False, compare=False)

    @property
    def events(self) -> List[SpanEvent]:
        """The span's events, oldest first."""
        events = self._events
        if type(events) is not list:
            events = self._events = list(events)
        for i, event in enumerate(events):
            if type(event) is tuple:
                time, keys, values = event
                events[i] = SpanEvent(time, "smp", dict(zip(keys, values)))
        return events

    # -- mutation ------------------------------------------------------------

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value

    def set_attributes(self, **attrs: Any) -> None:
        """Attach several attributes at once."""
        self.attributes.update(attrs)

    def add_child(self, child: "Span") -> None:
        """Nest *child* under this span."""
        if self._last is None:
            self._first = child
        else:
            self._last._next = child
        self._last = child

    def add_event(self, name: str, time: float, **attrs: Any) -> None:
        """Record one timestamped event (bounded per span)."""
        if len(self._events) >= MAX_EVENTS_PER_SPAN:
            self.events_dropped += 1
            return
        if type(self._events) is not list:
            self._events = list(self._events)
        self._events.append(  # type: ignore[attr-defined]
            SpanEvent(time=time, name=name, attributes=attrs)
        )

    def record_rows(
        self,
        times: Sequence[float],
        keys: Tuple[str, ...],
        values: Iterable[Tuple[Any, ...]],
        counts: Iterable[int],
        lft_smps: int,
    ) -> None:
        """Record one SMP delivery per entry of *times*, oldest first.

        The first ``counts[0]`` SMPs carry the attributes
        ``zip(keys, values[0])``, the next ``counts[1]`` those of
        ``values[1]``, and so on; *lft_smps* of them are LFT updates. The
        exact counters are bumped unconditionally; the discrete events
        obey the per-span cap, and past the cap nothing is built.
        """
        n = len(times)
        self.smp_count += n
        self.lft_smp_count += lft_smps
        room = MAX_EVENTS_PER_SPAN - len(self._events)
        if room < n:
            room = max(room, 0)
            self.events_dropped += n - room
            if not room:
                return
        if type(self._events) is not list:
            self._events = list(self._events)
        rows = chain.from_iterable(map(repeat, values, counts))
        self._events.extend(  # type: ignore[attr-defined]
            islice(zip(times, repeat(keys), rows), room)
        )

    def end(self, time: float) -> None:
        """Close the span at *time*."""
        self.end_time = time
        if self._events:
            self._events = tuple(self._events)

    # -- queries -------------------------------------------------------------

    @property
    def is_open(self) -> bool:
        """Whether the span has not ended yet."""
        return self.end_time is None

    @property
    def duration(self) -> float:
        """Sim-time extent (0 while still open)."""
        if self.end_time is None:
            return 0.0
        return self.end_time - self.start_time

    @property
    def children(self) -> Sequence["Span"]:
        """The nested spans, oldest first (the empty tuple if none)."""
        if self._first is None:
            return ()
        out = []
        child: Optional[Span] = self._first
        while child is not None:
            out.append(child)
            child = child._next
        return out

    def iter_tree(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_tree()

    def find(self, name: str) -> Optional["Span"]:
        """First span named *name* in this subtree (depth-first)."""
        for sp in self.iter_tree():
            if sp.name == name:
                return sp
        return None

    def find_all(self, name: str) -> List["Span"]:
        """Every span named *name* in this subtree."""
        return [sp for sp in self.iter_tree() if sp.name == name]

    def total_smp_count(self) -> int:
        """SMPs recorded in this subtree."""
        return sum(sp.smp_count for sp in self.iter_tree())

    def total_lft_smp_count(self) -> int:
        """LFT-update SMPs recorded in this subtree — the n'·m' witness."""
        return sum(sp.lft_smp_count for sp in self.iter_tree())

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (children referenced by parent links)."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start_time,
            "end": self.end_time,
            "attributes": dict(self.attributes),
            "smp_count": self.smp_count,
            "lft_smp_count": self.lft_smp_count,
            "events_dropped": self.events_dropped,
            "events": [
                {"time": e.time, "name": e.name, "attributes": dict(e.attributes)}
                for e in self.events
            ],
        }


def current_span() -> Optional[Span]:
    """The innermost open span of this context (None outside any span)."""
    return _current.get()
