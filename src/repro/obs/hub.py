"""The observability hub: one process-wide home for spans, SMPs, metrics.

Every instrumented layer reaches the hub through :func:`get_hub` instead
of threading handles through constructors. The hub owns:

* the span forest (roots plus the context-local current span),
* the SMP :class:`~repro.obs.flight.FlightRecorder`,
* a :class:`~repro.sim.metrics.MetricRegistry` for exposition,
* the **sim clock** — cumulative serial SMP time, advanced by the
  transport on every delivery, which timestamps spans and events.

:func:`reset_hub` starts a fresh run (the CLI calls it per command; tests
call it per case).
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import count
from typing import Any, Iterator, List, Optional

from repro.errors import ObservabilityError
from repro.obs.flight import DEFAULT_FLIGHT_CAPACITY, FlightRecorder
from repro.obs.spans import Span, _current
from repro.sim.metrics import MetricRegistry

__all__ = ["ObsHub", "get_hub", "reset_hub", "span"]


class ObsHub:
    """All observability state of one run."""

    def __init__(self, *, flight_capacity: int = DEFAULT_FLIGHT_CAPACITY) -> None:
        self.metrics = MetricRegistry()
        self.flight = FlightRecorder(capacity=flight_capacity)
        self.roots: List[Span] = []
        self._time = 0.0
        self._ids = count(1)

    # -- sim clock -----------------------------------------------------------

    def now(self) -> float:
        """Current sim time (cumulative serial SMP seconds)."""
        return self._time

    def advance(self, dt: float) -> float:
        """Move the sim clock forward; returns the new time."""
        if dt > 0:
            self._time += dt
        return self._time

    def advance_to(self, time: float) -> None:
        """Move the sim clock forward to *time* (it never runs backwards)."""
        if time > self._time:
            self._time = time

    # -- spans ---------------------------------------------------------------

    def start_span(self, name: str, **attributes: Any) -> Span:
        """Open a span as a child of the context's current span.

        Prefer the :meth:`span` context manager; use this only when the
        operation's start and end live in different call frames (remember
        to call :meth:`end_span`).
        """
        parent = _current.get()
        sp = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            start_time=self.now(),
            attributes=dict(attributes),
        )
        if parent is not None:
            parent.add_child(sp)
        else:
            self.roots.append(sp)
        sp._token = _current.set(sp)
        return sp

    def end_span(self, sp: Span) -> None:
        """Close a span opened with :meth:`start_span`, exactly once.

        The span lets go of its context-variable token, so a closed span
        keeps nothing the cyclic GC has to visit for it; a second call
        raises :class:`~repro.errors.ObservabilityError` instead of
        re-stamping ``end_time``.
        """
        token = sp._token
        if token is None:
            raise ObservabilityError(
                f"span {sp.name!r} (id {sp.span_id}) is not open: it ended"
                " already or was not started by start_span"
            )
        sp._token = None
        sp.end(self.now())
        _current.reset(token)

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Bracket a block in a span; exceptions are recorded and re-raised."""
        sp = self.start_span(name, **attributes)
        try:
            yield sp
        except BaseException as exc:
            sp.set_attribute("error", type(exc).__name__)
            raise
        finally:
            self.end_span(sp)

    def find_root(self, name: str) -> Optional[Span]:
        """Most recent root span named *name*."""
        for sp in reversed(self.roots):
            if sp.name == name:
                return sp
        return None

    def all_spans(self) -> List[Span]:
        """Every recorded span, depth-first across the root forest."""
        out: List[Span] = []
        for root in self.roots:
            out.extend(root.iter_tree())
        return out

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Forget all spans, SMP events and metrics; rewind the clock."""
        self.metrics.reset()
        self.flight.clear()
        self.roots.clear()
        self._time = 0.0
        self._ids = count(1)


_hub = ObsHub()


def get_hub() -> ObsHub:
    """The process-wide hub."""
    return _hub


def reset_hub(*, flight_capacity: Optional[int] = None) -> ObsHub:
    """Start a fresh observability run (optionally resizing the ring)."""
    global _hub
    if flight_capacity is None:
        _hub.reset()
    else:
        _hub = ObsHub(flight_capacity=flight_capacity)
    _current.set(None)
    return _hub


@contextmanager
def span(name: str, **attributes: Any) -> Iterator[Span]:
    """Module-level shorthand for ``get_hub().span(...)``."""
    with get_hub().span(name, **attributes) as sp:
        yield sp
