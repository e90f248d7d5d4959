"""A small discrete-event simulation engine.

Used to cross-check the analytic cost model (equations (2)-(5)) against an
event-level replay of SMP issue: the SM issues LFT-update SMPs with a
bounded in-flight window, each completing after its own network latency.
The engine is generic (heap-ordered events, simulated clock) so workloads
can also schedule VM churn and migration timelines on it.

Events are ``(time, seq, payload)`` tuples fired in ``(time, seq)`` order,
seqs drawn from one counter. Besides the heap the engine keeps **lanes**
(:meth:`SimulationEngine.lane`): FIFOs of events sharing one handler, for
clients whose events are scheduled a fixed delay ahead and so arrive
sorted (the data plane's hops and HOQ expiries). :meth:`~SimulationEngine.run`
merges the lane heads with the heap head — one heap's order, at O(1) per
lane event.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError

__all__ = ["Lane", "SimulationEngine", "replay_smp_pipeline"]

#: One pending event; seqs are unique, so comparison never reaches the payload.
Entry = Tuple[float, int, Any]
Handler = Callable[[Any], None]


def _released(item: Any) -> None:
    raise SimulationError("lane event fired after its handler was freed")


class Lane:
    """A FIFO of events that all call ``handler(item)``.

    A push at or after the lane's tail is appended; an earlier one becomes
    an ordinary heap event under the same seq, so the lane stays sorted and
    the firing order is a single heap's whatever the pushes look like.

    A lane holds a bound-method handler strongly only while it has events
    queued: an owner that keeps its lanes and handles them with its own
    methods (the data plane) is then freed by reference counting once its
    events are done, not by the cycle collector.
    """

    __slots__ = ("handler", "_weak", "_queue", "_engine")

    def __init__(self, engine: "SimulationEngine", handler: Handler) -> None:
        self._weak: Callable[[], Optional[Handler]]
        try:
            self._weak = weakref.WeakMethod(handler)
        except TypeError:  # not a bound method: nothing to cycle through
            self._weak = lambda: handler
        self.handler: Handler = _released
        self._queue: Deque[Entry] = deque()
        self._engine = engine

    def push(self, delay: float, item: Any) -> None:
        """Call ``handler(item)`` *delay* seconds from now."""
        when = self._engine._when(delay)
        queue = self._queue
        if not queue:
            self.handler = self._weak() or _released
        elif when < queue[-1][0]:
            self._engine._push(when, partial(self.handler, item))
            return
        queue.append((when, next(self._engine._seq), item))

    def extend(self, delays: Sequence[float], items: Iterable[Any]) -> None:
        """:meth:`push` each ``(delay, item)`` pair in order — in one append
        when the delays are sorted and start at or after the tail."""
        whens = [self._engine._when(delay) for delay in delays]
        queue = self._queue
        if whens and (not queue or whens[0] >= queue[-1][0]) and whens == sorted(whens):
            if not queue:
                self.handler = self._weak() or _released
            queue.extend(zip(whens, self._engine._seq, items))
        else:
            for delay, item in zip(delays, items):
                self.push(delay, item)


class SimulationEngine:
    """Heap-and-lanes event loop with a monotonic simulated clock."""

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._lanes: List[Lane] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def _when(self, delay: float) -> float:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        return self._now + delay

    def _push(self, when: float, action: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (when, next(self._seq), action))

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule *action* to run *delay* seconds from now."""
        self._push(self._when(delay), action)

    def schedule_at(self, when: float, action: Callable[[], None]) -> None:
        """Schedule *action* at absolute time *when*."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} < now ({self._now})"
            )
        self._push(when, action)

    def lane(self, handler: Handler) -> Lane:
        """Open a FIFO lane whose events call ``handler(item)``."""
        lane = Lane(self, handler)
        self._lanes.append(lane)
        return lane

    def run(self, *, until: Optional[float] = None) -> float:
        """Process events until the queue drains (or *until* is reached).

        Returns the final simulated time.
        """
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        heap, lanes = self._heap, self._lanes
        try:
            while True:
                head = heap[0] if heap else None
                source = None
                for lane in lanes:
                    queue = lane._queue
                    if queue and (head is None or queue[0] < head):
                        head, source = queue[0], lane
                if head is None:
                    break
                if until is not None and head[0] > until:
                    self._now = until
                    break
                self._now = head[0]
                if source is None:
                    heapq.heappop(heap)
                    head[2]()
                else:
                    queue = source._queue
                    queue.popleft()
                    handler = source.handler
                    if not queue:
                        source.handler = _released
                    handler(head[2])
                self.events_processed += 1
        finally:
            self._running = False
        return self._now

    def reset(self) -> None:
        """Clear pending events (heap and lanes) and rewind the clock."""
        self._heap.clear()
        for lane in self._lanes:
            lane._queue.clear()
            lane.handler = _released
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
