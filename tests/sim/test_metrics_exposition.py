"""Tests for labeled metrics and the Prometheus/JSON expositions."""

import json

import pytest

from repro.errors import SimulationError
from repro.sim.metrics import Counter, Gauge, MetricRegistry


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
        assert len(reg) == 2
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

    def test_json_snapshot_round_trips(self):
        reg = MetricRegistry()
        reg.counter("c", mode="swap").add(2)
        reg.gauge("g").set(1.5)
        snap = json.loads(reg.dump_json())
        assert snap == {"counters": {"c{mode=swap}": 2}, "gauges": {"g": 1.5}}
