"""Tests for labeled metrics, the Prometheus/JSON expositions, and the
Timer/Histogram edge cases hardened alongside them."""

import json

import pytest

from repro.errors import SimulationError
from repro.sim.metrics import Counter, Gauge, Histogram, MetricRegistry, Timer


class TestLabeledSeries:
    def test_label_sets_are_distinct_series(self):
        reg = MetricRegistry()
        reg.counter("smp_total", kind="lft").add(2)
        reg.counter("smp_total", kind="node_info").add(1)
        reg.counter("smp_total").add(5)
        assert reg.counter("smp_total", kind="lft").value == 2
        assert reg.counter("smp_total", kind="node_info").value == 1
        assert reg.counter("smp_total").value == 5

    def test_label_order_is_canonical(self):
        reg = MetricRegistry()
        reg.counter("x", a=1, b=2).add()
        assert reg.counter("x", b=2, a=1).value == 1

    def test_lookups_build_a_series_only_once(self, monkeypatch):
        built = []
        for cls in (Counter, Gauge):
            init = cls.__init__
            monkeypatch.setattr(
                cls, "__init__",
                lambda self, name, init=init: built.append(name) or init(self, name),
            )
        reg = MetricRegistry()
        first = reg.counter("c", kind="a")
        level = reg.gauge("g")
        for _ in range(3):
            assert reg.counter("c", kind="a") is first
            assert reg.gauge("g") is level
        assert built == ["c", "g"]

    def test_gauge_set_add_and_nan(self):
        g = Gauge("g")
        g.set(3.5)
        g.add(-1.5)
        assert g.value == 2.0
        with pytest.raises(SimulationError):
            g.set(float("nan"))

    def test_registry_len_and_reset(self):
        reg = MetricRegistry()
        reg.counter("c").add()
        reg.gauge("g").set(1)
        reg.timer("t")
        reg.histogram("h")
        assert len(reg) == 4
        reg.reset()
        assert len(reg) == 0


class TestPrometheusRendering:
    def test_empty_registry_renders_empty(self):
        assert MetricRegistry().render_prometheus() == ""

    def test_counter_and_gauge_lines(self):
        reg = MetricRegistry()
        reg.counter("smp_total", kind="lft", routed="directed").add(7)
        reg.gauge("vms_running").set(3)
        text = reg.render_prometheus()
        assert "# TYPE smp_total counter" in text
        assert 'smp_total{kind="lft",routed="directed"} 7' in text
        assert "# TYPE vms_running gauge" in text
        assert "vms_running 3" in text
        assert text.endswith("\n")

    def test_name_sanitization_and_label_escaping(self):
        reg = MetricRegistry()
        reg.counter("bad-name.metric", label='va"l\nue').add()
        text = reg.render_prometheus()
        assert "bad_name_metric" in text
        assert r"va\"l\nue" in text

    def test_timer_and_histogram_rendering(self):
        reg = MetricRegistry()
        t = reg.timer("compute")
        with t:
            pass
        h = reg.histogram("lat")
        h.observe_many([1.0, 2.0, 3.0])
        text = reg.render_prometheus()
        assert "compute_seconds_sum" in text
        assert "compute_seconds_count 1" in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="10"} 3' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 6" in text
        assert "lat_count 3" in text

    def test_histogram_buckets_are_cumulative_and_custom(self):
        reg = MetricRegistry()
        h = reg.histogram("size", buckets=[1.0, 2.0, 4.0])
        h.observe_many([0.5, 1.5, 3.0, 100.0])
        assert h.bucket_counts() == [1, 2, 3]
        text = reg.render_prometheus()
        assert 'size_bucket{le="1"} 1' in text
        assert 'size_bucket{le="2"} 2' in text
        assert 'size_bucket{le="4"} 3' in text
        # The over-the-top observation only shows in +Inf.
        assert 'size_bucket{le="+Inf"} 4' in text
        snap = json.loads(reg.dump_json())
        assert snap["histograms"]["size"]["buckets"] == [
            [1.0, 1],
            [2.0, 2],
            [4.0, 3],
        ]

    def test_histogram_bucket_bounds_must_increase(self):
        with pytest.raises(SimulationError, match="strictly increase"):
            Histogram("bad", buckets=[1.0, 1.0])
        with pytest.raises(SimulationError, match="at least one"):
            Histogram("bad", buckets=[])

    def test_json_snapshot_round_trips(self):
        reg = MetricRegistry()
        reg.counter("c", mode="swap").add(2)
        reg.gauge("g").set(1.5)
        snap = json.loads(reg.dump_json())
        assert snap["counters"]["c{mode=swap}"] == 2
        assert snap["gauges"]["g"] == 1.5


class TestTimerErrors:
    def test_exit_without_enter_raises(self):
        t = Timer("bare")
        with pytest.raises(SimulationError, match="without a matching"):
            t.__exit__(None, None, None)

    def test_normal_use_still_works(self):
        t = Timer("ok")
        with t:
            pass
        assert len(t.laps) == 1
        assert t.total >= 0


class TestHistogramPercentileEdges:
    def test_empty_histogram_is_zero(self):
        h = Histogram("h")
        assert h.percentile(50) == 0.0
        assert h.mean == 0.0
        assert h.sum == 0.0

    def test_bounds_inclusive(self):
        h = Histogram("h")
        h.observe_many([1.0, 2.0, 3.0])
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 3.0

    def test_out_of_range_raises(self):
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(SimulationError):
            h.percentile(-0.1)
        with pytest.raises(SimulationError):
            h.percentile(100.1)

    def test_single_value(self):
        h = Histogram("h")
        h.observe(42.0)
        for q in (0, 50, 99, 100):
            assert h.percentile(q) == 42.0

    def test_nan_rejected(self):
        h = Histogram("h")
        with pytest.raises(SimulationError):
            h.observe(float("nan"))
