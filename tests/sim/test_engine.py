"""The engine's lanes merge with its heap in exact ``(time, seq)`` order.

A model keeps every pending event as ``(time, k)``, ``k`` counting
scheduling calls (the engine's seq), and each firing must be the model's
minimum — whether the event came from ``schedule``, ``schedule_at``, a
lane ``push`` (in order or not) or a lane ``extend``, and whether it was
scheduled before the run or by a firing event.
"""

from __future__ import annotations

import gc
import weakref
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine

KINDS = ("schedule", "schedule_at", "lane0", "lane1", "extend0")
DELAYS = (0.0, 0.5, 1.0, 1.0, 2.5, 3.0)

op = st.tuples(st.sampled_from(KINDS), st.sampled_from(DELAYS), st.integers(0, 2))


class Model:
    """Schedules through the engine and checks every firing."""

    def __init__(self, follow_ups):
        self.engine = SimulationEngine()
        self.lanes = [self.engine.lane(self.fire), self.engine.lane(self.fire)]
        self.pending = {}
        self.fired = []
        self.follow_ups = list(follow_ups)
        self.k = 0

    def _next(self, delay):
        k, self.k = self.k, self.k + 1
        self.pending[k] = self.engine.now + delay
        return k

    def add(self, kind, delay, width):
        engine = self.engine
        if kind == "extend0":
            delays = [delay + 0.5 * i for i in range(width + 1)]
            self.lanes[0].extend(delays, [self._next(d) for d in delays])
            return
        k = self._next(delay)
        if kind == "schedule":
            engine.schedule(delay, partial(self.fire, k))
        elif kind == "schedule_at":
            engine.schedule_at(engine.now + delay, partial(self.fire, k))
        else:
            self.lanes[int(kind[-1])].push(delay, k)

    def fire(self, k):
        when = self.pending.pop(k)
        assert self.engine.now == when
        assert all((when, k) < (t, j) for j, t in self.pending.items())
        self.fired.append(k)
        if self.follow_ups:
            self.add(*self.follow_ups.pop())


class TestLaneMergeOrder:
    @settings(max_examples=150, deadline=None)
    @given(before=st.lists(op, max_size=25), during=st.lists(op, max_size=25))
    def test_any_interleaving_fires_in_time_seq_order(self, before, during):
        model = Model(during)
        for args in before:
            model.add(*args)
        model.engine.run()
        assert not model.pending
        assert model.engine.events_processed == len(model.fired) == model.k

    @settings(max_examples=80, deadline=None)
    @given(
        before=st.lists(op, min_size=1, max_size=25),
        during=st.lists(op, max_size=10),
        until=st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.75]),
    )
    def test_until_stops_at_the_horizon_and_resumes(self, before, during, until):
        model = Model(during)
        for args in before:
            model.add(*args)
        model.engine.run(until=until)
        assert all(t > until for t in model.pending.values())
        if model.pending:
            assert model.engine.now == until
        model.engine.run()
        assert not model.pending
        assert model.engine.events_processed == model.k


class TestLanes:
    def test_out_of_order_push_still_fires_in_time_order(self):
        engine = SimulationEngine()
        log = []
        lane = engine.lane(log.append)
        lane.push(3.0, "c")
        lane.push(1.0, "a")  # behind the tail: rides the heap
        lane.push(3.0, "d")
        lane.push(2.0, "b")
        engine.run()
        assert log == ["a", "b", "c", "d"]
        assert engine.events_processed == 4

    def test_ties_follow_scheduling_order_across_heap_and_lanes(self):
        engine = SimulationEngine()
        log = []
        lane = engine.lane(log.append)
        engine.schedule(1.0, lambda: log.append(0))
        lane.push(1.0, 1)
        engine.schedule_at(1.0, lambda: log.append(2))
        lane.extend([1.0, 1.0], [3, 4])
        engine.run()
        assert log == [0, 1, 2, 3, 4]

    def test_unsorted_extend_is_pushed_one_by_one(self):
        engine = SimulationEngine()
        log = []
        lane = engine.lane(log.append)
        lane.extend([2.0, 1.0, 3.0], ["b", "a", "c"])
        engine.run()
        assert log == ["a", "b", "c"]

    def test_negative_delays_are_refused_before_anything_is_queued(self):
        engine = SimulationEngine()
        lane = engine.lane(lambda item: None)
        with pytest.raises(SimulationError):
            lane.push(-1e-30, "x")
        with pytest.raises(SimulationError):
            lane.extend([0.0, -1.0], ["x", "y"])
        assert engine.run() == 0.0
        assert engine.events_processed == 0

    def test_reset_clears_lanes(self):
        engine = SimulationEngine()
        log = []
        lane = engine.lane(log.append)
        lane.push(1.0, "stale")
        engine.schedule(1.0, lambda: log.append("stale too"))
        engine.reset()
        assert engine.run() == 0.0
        assert log == [] and engine.events_processed == 0
        lane.push(2.0, "fresh")
        engine.run()
        assert log == ["fresh"]

    def test_a_lane_handler_cannot_run_the_engine(self):
        engine = SimulationEngine()
        errors = []

        def nested(item):
            try:
                engine.run()
            except SimulationError as exc:
                errors.append(exc)

        engine.lane(nested).push(1.0, "x")
        engine.run()
        assert len(errors) == 1
        assert engine.events_processed == 1


class Owner:
    """Keeps its lane and handles it with its own method, as the data
    plane does."""

    def __init__(self, engine):
        self.fired = []
        self.lane = engine.lane(self.handle)

    def handle(self, item):
        self.fired.append(item)


class TestLaneLifetime:
    def test_queued_events_keep_their_owner_alive(self):
        engine = SimulationEngine()
        owner = Owner(engine)
        owner.lane.push(1.0, "x")
        fired = owner.fired
        ref = weakref.ref(owner)
        del owner
        assert ref() is not None
        engine.run()
        assert fired == ["x"]

    def test_a_drained_owner_is_freed_by_reference_counting(self):
        engine = SimulationEngine()
        owner = Owner(engine)
        owner.lane.extend([1.0, 2.0], "ab")
        owner.lane.push(0.5, "c")  # behind the tail: a heap event
        engine.run()
        assert owner.fired == ["c", "a", "b"]
        ref = weakref.ref(owner)
        gc.disable()
        try:
            del owner
            assert ref() is None
        finally:
            gc.enable()
