"""The engine fires its heap in exact ``(time, seq)`` order.

A model keeps every pending event as ``(time, k)``, ``k`` counting
scheduling calls (the engine's seq), and each firing must be the model's
minimum — whether the event came from ``schedule`` or ``schedule_at``, and
whether it was scheduled before the run or by a firing event. The data
plane's burst loop, which merges its own FIFOs against this heap, is held
to a heap of closures in ``tests/sim/test_dataplane_kernel.py``.
"""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine

KINDS = ("schedule", "schedule_at")
DELAYS = (0.0, 0.5, 1.0, 1.0, 2.5, 3.0)

op = st.tuples(st.sampled_from(KINDS), st.sampled_from(DELAYS))


class Model:
    """Schedules through the engine and checks every firing."""

    def __init__(self, follow_ups):
        self.engine = SimulationEngine()
        self.pending = {}
        self.fired = []
        self.follow_ups = list(follow_ups)
        self.k = 0

    def add(self, kind, delay):
        engine = self.engine
        k, self.k = self.k, self.k + 1
        self.pending[k] = engine.now + delay
        if kind == "schedule":
            engine.schedule(delay, partial(self.fire, k))
        else:
            engine.schedule_at(engine.now + delay, partial(self.fire, k))

    def fire(self, k):
        when = self.pending.pop(k)
        assert self.engine.now == when
        assert all((when, k) < (t, j) for j, t in self.pending.items())
        self.fired.append(k)
        if self.follow_ups:
            self.add(*self.follow_ups.pop())


class TestHeapOrder:
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

    def test_ties_follow_scheduling_order(self):
        engine = SimulationEngine()
        log = []
        engine.schedule(1.0, lambda: log.append(0))
        engine.schedule_at(1.0, lambda: log.append(1))
        engine.schedule(1.0, lambda: log.append(2))
        engine.run()
        assert log == [0, 1, 2]

    def test_negative_delays_are_refused_before_anything_is_queued(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule(-1e-30, lambda: None)
        assert engine.run() == 0.0
        assert engine.events_processed == 0

    def test_reset_clears_the_heap(self):
        engine = SimulationEngine()
        log = []
        engine.schedule(1.0, lambda: log.append("stale"))
        engine.reset()
        assert engine.run() == 0.0
        assert log == [] and engine.events_processed == 0
        engine.schedule(2.0, lambda: log.append("fresh"))
        engine.run()
        assert log == ["fresh"]

    def test_an_event_cannot_run_the_engine(self):
        engine = SimulationEngine()
        errors = []

        def nested():
            try:
                engine.run()
            except SimulationError as exc:
                errors.append(exc)

        engine.schedule(1.0, nested)
        engine.run()
        assert len(errors) == 1
        assert engine.events_processed == 1

    def test_the_clock_never_goes_back(self):
        engine = SimulationEngine()
        engine.schedule(2.0, lambda: None)
        engine.schedule(5.0, lambda: None)
        engine.run(until=3.0)
        with pytest.raises(SimulationError):
            engine.run(until=1.0)
        assert engine.now == 3.0
        assert engine.run() == 5.0
