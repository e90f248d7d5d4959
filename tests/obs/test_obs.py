"""Tests for the observability core: spans, hub, flight recorder."""

import gc

import pytest

from repro.errors import ObservabilityError, ReproError
from repro.mad.smp import Smp, SmpKind, SmpMethod
from repro.mad.transport import SmpTransport
from repro.obs import (
    MAX_EVENTS_PER_SPAN,
    FlightRecorder,
    SmpFlightEvent,
    Span,
    SpanEvent,
    current_span,
    get_hub,
    reset_hub,
    span,
)


def _event(i, **overrides):
    base = dict(
        time=float(i),
        kind="lft_block",
        method="set",
        target=f"s{i}",
        hops=2,
        directed=True,
        latency=1e-6,
        lft_update=True,
    )
    base.update(overrides)
    return SmpFlightEvent(**base)


def _smps(sp, times, lft_update):
    """One SMP per entry of *times* under *sp*, all with *lft_update*."""
    n = len(times)
    sp.record_rows(times, ("lft_update",), [(lft_update,)], [n], n if lft_update else 0)


class TestSpans:
    def test_nesting_via_context(self):
        with span("outer") as outer:
            assert current_span() is outer
            with span("inner") as inner:
                assert current_span() is inner
                assert inner.parent_id == outer.span_id
            assert current_span() is outer
        assert current_span() is None
        assert outer.children == [inner]
        assert get_hub().roots[-1] is outer

    def test_siblings_share_parent(self):
        with span("parent") as parent:
            with span("a"):
                pass
            with span("b"):
                pass
        assert [c.name for c in parent.children] == ["a", "b"]

    def test_span_times_follow_sim_clock(self):
        hub = get_hub()
        with span("timed") as sp:
            hub.advance(2.5)
        assert sp.start_time == 0.0
        assert sp.end_time == 2.5
        assert sp.duration == 2.5
        assert not sp.is_open

    def test_exception_recorded_and_reraised(self):
        with pytest.raises(ValueError):
            with span("doomed") as sp:
                raise ValueError("boom")
        assert sp.attributes["error"] == "ValueError"
        assert not sp.is_open  # ended despite the exception

    def test_smp_counters_exact_past_event_cap(self):
        with span("big") as sp:
            for i in range(MAX_EVENTS_PER_SPAN + 5):
                _smps(sp, [float(i)], i % 2 == 0)
        assert sp.smp_count == MAX_EVENTS_PER_SPAN + 5
        assert len(sp.events) == MAX_EVENTS_PER_SPAN
        assert sp.events_dropped == 5
        assert sp.lft_smp_count == (MAX_EVENTS_PER_SPAN + 5 + 1) // 2

    def test_nothing_is_built_past_the_event_cap(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            "repro.obs.spans.SpanEvent",
            lambda *a: built.append(a) or SpanEvent(*a),
        )
        with span("big") as sp:
            _smps(sp, [0.0] * (MAX_EVENTS_PER_SPAN - 1), True)
            _smps(sp, [1.0, 2.0, 3.0], True)
            _smps(sp, [4.0], False)
        assert len(sp.events) == len(built) == MAX_EVENTS_PER_SPAN
        assert sp.events[-1].time == 1.0
        assert sp.events_dropped == 3
        assert (sp.smp_count, sp.lft_smp_count) == (
            MAX_EVENTS_PER_SPAN + 3, MAX_EVENTS_PER_SPAN + 2,
        )

    def test_rows_are_smp_runs_laid_end_to_end(self, monkeypatch):
        monkeypatch.setattr("repro.obs.spans.MAX_EVENTS_PER_SPAN", 4)
        keys, lft, node = ("kind", "lft_update"), ("lft_block", True), ("node_info", False)
        with span("runs") as runs:
            runs.record_rows([0.0, 1.0], keys, [lft], [2], 2)
            runs.record_rows([2.0, 3.0, 4.0], keys, [node], [3], 0)
        with span("rows") as rows:
            rows.record_rows([0.0, 1.0, 2.0, 3.0, 4.0], keys, [lft, node], [2, 3], 2)
        assert rows.events == runs.events
        assert (rows.smp_count, rows.lft_smp_count, rows.events_dropped) == (
            runs.smp_count, runs.lft_smp_count, runs.events_dropped,
        ) == (5, 2, 1)

    def test_subtree_totals(self):
        with span("root") as root:
            _smps(root, [0.0], False)
            with span("child") as child:
                _smps(child, [0.0, 0.0], True)
        assert root.total_smp_count() == 3
        assert root.total_lft_smp_count() == 2
        assert root.find("child") is child
        assert root.find_all("child") == [child]

    def test_a_span_ends_once(self):
        hub = get_hub()
        sp = hub.start_span("once")
        hub.advance(1.0)
        hub.end_span(sp)
        hub.advance(1.0)
        with pytest.raises(ObservabilityError, match="'once'.*not open"):
            hub.end_span(sp)
        assert sp.end_time == 1.0
        assert current_span() is None
        # A span the hub did not start cannot be ended by it either.
        with pytest.raises(ObservabilityError):
            hub.end_span(Span("stray", 99, None, 0.0))

    def test_a_closed_bare_span_keeps_nothing_for_the_gc(self):
        with span("outer") as outer:
            with span("bare") as bare:
                pass
            _smps(outer, [0.0], True)
        for sp in (outer, bare):
            assert sp._token is None
        assert not gc.is_tracked(bare._events)
        assert not gc.is_tracked(bare.children)
        assert bare.events == [] and list(bare.children) == []
        assert [e.time for e in outer.events] == [0.0]
        assert outer.children == [bare]

    def test_a_closed_span_with_events_and_children_keeps_no_container(self):
        """Children are a chain through the spans themselves, and a closed
        span's SMP triples sit in a tuple: once the collector has let go
        of the triples (they are older than the span's end; a fresh row
        of values takes it one pass more), the tuple leaves its books at
        its first collection."""
        with span("outer") as outer:
            _smps(outer, [0.0, 1.0], True)
            for name in ("a", "b", "c"):
                with span(name):
                    pass
            gc.collect()
            gc.collect()
            assert not any(gc.is_tracked(triple) for triple in outer._events)
            assert type(outer._events) is list and gc.is_tracked(outer._events)
        assert type(outer._events) is tuple
        gc.collect()
        assert not gc.is_tracked(outer._events)
        assert [c.name for c in outer.children] == ["a", "b", "c"]
        assert not [
            ref for ref in gc.get_referents(outer)
            if type(ref) in (list, dict) and gc.is_tracked(ref)
        ]
        assert [e.time for e in outer.events] == [0.0, 1.0]

    def test_reset_hub_clears_everything(self):
        with span("stale"):
            get_hub().advance(1.0)
            get_hub().metrics.counter("stale_total").add(1)
        reset_hub()
        hub = get_hub()
        assert hub.roots == []
        assert hub.now() == 0.0
        assert len(hub.flight) == 0
        assert len(hub.metrics) == 0


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        rec = FlightRecorder(capacity=3)
        for i in range(5):
            rec.record(_event(i))
        assert len(rec) == 3
        assert rec.seen == 5
        assert rec.dropped == 2
        assert [e.target for e in rec] == ["s2", "s3", "s4"]

    def test_capacity_zero_disables(self):
        rec = FlightRecorder(capacity=0)
        rec.record(_event(0))
        assert not rec.enabled
        assert len(rec) == 0
        assert rec.seen == 0
        assert rec.dropped == 0

    def test_negative_capacity_is_a_typed_error(self):
        with pytest.raises(ReproError, match="capacity"):
            FlightRecorder(capacity=-1)

    def test_run_longer_than_the_ring_builds_only_its_tail(self, monkeypatch):
        one_by_one = FlightRecorder(capacity=3)
        for i in range(7):
            one_by_one.record(_event(i, target="s"))
        built = []
        monkeypatch.setattr(
            "repro.obs.flight.SmpFlightEvent",
            lambda *a: built.append(a) or SmpFlightEvent(*a),
        )
        as_run = FlightRecorder(capacity=3)
        as_run.record_rows(
            [float(i) for i in range(7)],
            [("lft_block", "set", "s", 2, True, 1e-6, True, "delivered")], [7],
        )
        assert list(as_run) == list(one_by_one)
        assert (as_run.seen, as_run.dropped) == (one_by_one.seen, one_by_one.dropped)
        assert len(built) == 3
        off = FlightRecorder(capacity=0)
        off.record_rows([1.0], [("lft_block", "set", "s", 2, True, 1e-6, True, "delivered")], [1])
        assert (off.seen, len(off), len(built)) == (0, 0, 3)

    def test_rows_are_runs_laid_end_to_end(self):
        a = ("lft_block", "set", "s1", 2, True, 1e-6, True, "delivered")
        b = ("node_info", "get", "s2", 3, True, 2e-6, False, "delivered")
        times = [float(i) for i in range(7)]
        for capacity in (0, 3, 16):
            runs, rows = FlightRecorder(capacity), FlightRecorder(capacity)
            runs.record_rows(times[:2], [a], [2])
            runs.record_rows(times[2:], [b], [5])
            rows.record_rows(times, [a, b], [2, 5])
            assert list(rows) == list(runs)
            assert (rows.seen, rows.dropped) == (runs.seen, runs.dropped)

    def test_filters(self):
        rec = FlightRecorder(capacity=16)
        rec.record(_event(0, kind="node_info", lft_update=False))
        rec.record(_event(1))
        assert [e.target for e in rec.of_kind("lft_block")] == ["s1"]
        assert [e.target for e in rec.lft_updates()] == ["s1"]
        assert rec.by_kind() == {"node_info": 1, "lft_block": 1}

    def test_jsonl_round_trip(self, tmp_path):
        rec = FlightRecorder(capacity=8)
        for i in range(3):
            rec.record(_event(i))
        path = tmp_path / "flight.jsonl"
        assert rec.to_jsonl(path) == 3
        back = FlightRecorder.from_jsonl(path)
        assert list(back) == list(rec)


class TestTransportIntegration:
    def test_send_feeds_hub_span_and_metrics(self):
        from repro.constants import LFT_BLOCK_SIZE
        from repro.mad.smp import make_set_lft_block

        import numpy as np

        topo = _line_topology()
        tr = SmpTransport(topo, hop_latency=1.0, dr_overhead=0.0)
        with span("op") as sp:
            tr.send(Smp(SmpMethod.GET, SmpKind.NODE_INFO, "s1"))
            tr.send(make_set_lft_block("s0", 0, np.zeros(LFT_BLOCK_SIZE)))
        hub = get_hub()
        assert sp.smp_count == 2
        assert sp.lft_smp_count == 1
        assert len(hub.flight) == 2
        # The sim clock advanced by the serial latency of both sends.
        assert hub.now() == pytest.approx(tr.stats.serial_time)
        assert (
            hub.metrics.counter(
                "repro_smp_total", kind="lft_block", routed="directed"
            ).value
            == 1
        )

    def test_send_outside_any_span_still_flies(self):
        topo = _line_topology()
        tr = SmpTransport(topo)
        tr.send(Smp(SmpMethod.GET, SmpKind.NODE_INFO, "s0"))
        assert current_span() is None
        assert len(get_hub().flight) == 1


def _line_topology():
    from repro.fabric.topology import Topology

    topo = Topology("line")
    s0, s1 = topo.add_switch("s0", 4), topo.add_switch("s1", 4)
    h0 = topo.add_hca("h0")
    topo.connect(h0, 1, s0, 1)
    topo.connect(s0, 2, s1, 1)
    return topo
