"""A small discrete-event simulation engine.

Used to cross-check the analytic cost model (equations (2)-(5)) against an
event-level replay of SMP issue: the SM issues LFT-update SMPs with a
bounded in-flight window, each completing after its own network latency.
The engine is generic (heap-ordered events, simulated clock) so workloads
can also schedule VM churn and migration timelines on it.

Events are ``(time, seq, action)`` tuples fired in ``(time, seq)`` order,
seqs drawn from one counter. A client with its own sorted event FIFOs
(the data plane's burst loop) draws its seqs from the same counter, merges
its heads with the heap head, and fires heap events through
:meth:`SimulationEngine.fire_head` — one heap's order without a heap push
per event.
"""

from __future__ import annotations

import heapq
import itertools
import math
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["SimulationEngine", "replay_smp_pipeline"]

#: One pending event; seqs are unique, so comparison never reaches the action.
Entry = Tuple[float, int, Any]


class SimulationEngine:
    """Heap-ordered event loop with a monotonic simulated clock."""

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule *action* to run *delay* seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        self.schedule_at(self._now + delay, action)

    def schedule_at(self, when: float, action: Callable[[], None]) -> None:
        """Schedule *action* at absolute time *when*."""
        if when < self._now:
            raise SimulationError(f"cannot schedule at {when} < now ({self._now})")
        heapq.heappush(self._heap, (when, next(self._seq), action))

    @contextmanager
    def running(self, until: Optional[float]) -> Iterator[float]:
        """Hold the engine for one event loop; yields the horizon (*until*,
        or infinity). A loop is not re-entrant, and never winds the clock
        back."""
        if self._running:
            raise SimulationError("engine is already running")
        if until is not None and until < self._now:
            raise SimulationError(f"cannot run until {until} < now ({self._now})")
        self._running = True
        try:
            yield math.inf if until is None else until
        finally:
            self._running = False

    def fire_head(self) -> None:
        """Pop the earliest heap event, move the clock to it and run it.

        It is not counted in ``events_processed``: the calling loop counts
        an event once its action has returned."""
        when, _, action = heapq.heappop(self._heap)
        self._now = when
        action()

    def run(self, *, until: Optional[float] = None) -> float:
        """Process events until the queue drains (or *until* is reached).

        Returns the final simulated time.
        """
        heap = self._heap
        with self.running(until) as horizon:
            while heap:
                if heap[0][0] > horizon:
                    self._now = horizon
                    break
                self.fire_head()
                self.events_processed += 1
        return self._now

    def reset(self) -> None:
        """Clear pending heap events and rewind the clock."""
        self._heap.clear()
        self._now = 0.0
        self.events_processed = 0


def replay_smp_pipeline(
    latencies: List[float], window: int
) -> float:
    """Event-level completion time of issuing SMPs with *window* in flight.

    The SM sends the next SMP as soon as a slot frees (OpenSM's pipelined
    LFT updates, section VI-B). With ``window=1`` this equals the serial
    sum of equation (2); large windows approach the max single latency.
    """
    if window < 1:
        raise SimulationError("window must be >= 1")
    engine = SimulationEngine()
    pending = list(reversed(latencies))  # pop() issues in original order
    state = {"in_flight": 0, "finish": 0.0}

    def issue() -> None:
        while pending and state["in_flight"] < window:
            lat = pending.pop()
            state["in_flight"] += 1
            engine.schedule(lat, complete)

    def complete() -> None:
        state["in_flight"] -= 1
        state["finish"] = engine.now
        issue()

    issue()
    engine.run()
    return state["finish"]
