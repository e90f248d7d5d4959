"""Tests for the discrete-event engine and metrics."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine, replay_smp_pipeline
from repro.sim.metrics import Counter, MetricRegistry


class TestEngine:
    def test_events_run_in_time_order(self):
        eng = SimulationEngine()
        log = []
        eng.schedule(2.0, lambda: log.append("b"))
        eng.schedule(1.0, lambda: log.append("a"))
        eng.schedule(3.0, lambda: log.append("c"))
        end = eng.run()
        assert log == ["a", "b", "c"]
        assert end == 3.0
        assert eng.events_processed == 3

    def test_ties_broken_by_insertion_order(self):
        eng = SimulationEngine()
        log = []
        eng.schedule(1.0, lambda: log.append(1))
        eng.schedule(1.0, lambda: log.append(2))
        eng.run()
        assert log == [1, 2]

    def test_nested_scheduling(self):
        eng = SimulationEngine()
        log = []

        def first():
            log.append(eng.now)
            eng.schedule(0.5, lambda: log.append(eng.now))

        eng.schedule(1.0, first)
        eng.run()
        assert log == [1.0, 1.5]

    def test_negative_delay_rejected(self):
        eng = SimulationEngine()
        with pytest.raises(SimulationError):
            eng.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        eng = SimulationEngine()
        eng.schedule(5.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule_at(1.0, lambda: None)

    def test_run_until(self):
        eng = SimulationEngine()
        log = []
        eng.schedule(1.0, lambda: log.append(1))
        eng.schedule(10.0, lambda: log.append(2))
        eng.run(until=5.0)
        assert log == [1]
        assert eng.now == 5.0

    def test_reset(self):
        eng = SimulationEngine()
        eng.schedule(1.0, lambda: None)
        eng.run()
        eng.reset()
        assert eng.now == 0.0
        assert eng.events_processed == 0


class TestSmpPipelineReplay:
    def test_window_one_is_serial_sum(self):
        lats = [1.0, 2.0, 3.0]
        assert replay_smp_pipeline(lats, 1) == pytest.approx(6.0)

    def test_large_window_bound_by_longest(self):
        lats = [1.0, 2.0, 3.0]
        assert replay_smp_pipeline(lats, 10) == pytest.approx(3.0)

    def test_window_two(self):
        # t=0: issue 1.0 and 2.0; t=1: issue 3.0 -> done at 4.0.
        assert replay_smp_pipeline([1.0, 2.0, 3.0], 2) == pytest.approx(4.0)

    def test_empty(self):
        assert replay_smp_pipeline([], 4) == 0.0

    def test_bad_window(self):
        with pytest.raises(SimulationError):
            replay_smp_pipeline([1.0], 0)

    def test_matches_analytic_uniform_latencies(self):
        # With equal latencies t, N packets, window W:
        # completion = ceil(N/W) * t — same as the analytic model's n*m*k/W
        # up to the ceiling.
        lats = [2.0] * 8
        assert replay_smp_pipeline(lats, 4) == pytest.approx(4.0)


class TestMetrics:
    def test_counter(self):
        c = Counter("x")
        c.add()
        c.add(4)
        assert c.value == 5
        with pytest.raises(SimulationError):
            c.add(-1)

    def test_registry(self):
        reg = MetricRegistry()
        reg.counter("smps").add(3)
        reg.gauge("vms").set(1.5)
        assert reg.summary() == {"smps.count": 3.0, "vms.value": 1.5}

    def test_registry_reuses_instances(self):
        reg = MetricRegistry()
        assert reg.counter("a") is reg.counter("a")
