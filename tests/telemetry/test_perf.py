"""PerfManager: costed sweeps, rollover reconstruction, faults, resets."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fabric.builders import build_two_level_fattree
from repro.fabric.node import PMA_COUNTER_WRAP
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs import get_hub
from repro.sim.engine import SimulationEngine
from repro.sm.subnet_manager import SubnetManager
from repro.telemetry import PerfManager, TimeSeriesStore


@pytest.fixture
def sm():
    built = build_two_level_fattree(4, 2, 2, switch_radix=8)
    manager = SubnetManager(
        built.topology, engine="minhop", built=built
    )
    manager.initial_configure(with_discovery=False)
    return manager


class TestSweepCost:
    def test_sweep_sends_one_costed_mad_per_node(self, sm):
        perf = PerfManager(sm)
        before = sm.transport.stats.total_smps
        report = perf.sweep()
        nodes = len(sm.topology.switches) + len(sm.topology.hcas)
        assert report.nodes_swept == nodes
        assert report.smps == nodes
        assert sm.transport.stats.total_smps - before == nodes
        assert len(get_hub().flight.of_kind("port_counters")) == nodes
        assert not report.missed

    def test_switches_only_when_hcas_excluded(self, sm):
        perf = PerfManager(sm, include_hcas=False)
        report = perf.sweep()
        assert report.nodes_swept == len(sm.topology.switches)

    def test_sweep_advances_sim_clock_and_counts_metrics(self, sm):
        hub = get_hub()
        t0 = hub.now()
        perf = PerfManager(sm)
        perf.sweep()
        assert hub.now() > t0
        assert hub.metrics.counter("repro_telemetry_sweeps_total").value == 1
        assert (
            hub.metrics.counter("repro_telemetry_sweep_smps_total").value
            == perf.smps
        )


class TestRollover:
    def test_wrapped_wire_reads_reconstruct_monotonic_totals(self, sm):
        sw = sm.topology.switches[0]
        pc = sw.port_counters(1)
        pc.xmit_packets = PMA_COUNTER_WRAP - 5
        perf = PerfManager(sm, include_hcas=False)
        perf.sweep()
        first = perf.total(sw.name, 1, "xmit_packets")
        assert first == PMA_COUNTER_WRAP - 5
        pc.xmit_packets += 10  # crosses the 32-bit wire boundary
        perf.sweep()
        second = perf.total(sw.name, 1, "xmit_packets")
        assert second - first == 10
        # The raw wire view really did wrap.
        assert pc.pma_view()["xmit_packets"] == 5

    def test_store_holds_unwrapped_totals(self, sm):
        sw = sm.topology.switches[0]
        sw.port_counters(1).xmit_packets = PMA_COUNTER_WRAP + 7
        perf = PerfManager(sm, include_hcas=False)
        perf.sweep()
        latest = perf.store.latest(sw.name, 1, "xmit_packets")
        # First observation can only see the wrapped wire value.
        assert latest[1] == 7


class TestFaults:
    def test_unanswered_nodes_are_missed_not_fatal(self, sm):
        injector = FaultInjector(FaultPlan(seed=3, smp_drop_rate=1.0))
        sm.transport.set_fault_injector(injector)
        try:
            perf = PerfManager(sm, include_hcas=False)
            report = perf.sweep()
        finally:
            sm.transport.set_fault_injector(None)
        assert len(report.missed) == len(sm.topology.switches)
        assert report.samples == 0
        assert perf.misses == len(report.missed)

    def test_resilient_sender_retries_sweep_mads(self, sm):
        sm.enable_resilience()
        injector = FaultInjector(FaultPlan(seed=5, smp_drop_rate=0.3))
        sm.transport.set_fault_injector(injector)
        try:
            perf = PerfManager(sm)
            report = perf.sweep()
        finally:
            sm.transport.set_fault_injector(None)
        # Retries recovered every GET: full coverage, paid in extra MADs.
        assert not report.missed
        assert report.retransmissions > 0
        assert report.smps > report.nodes_swept


class TestScheduling:
    def test_maybe_sweep_is_period_gated_on_sim_clock(self, sm):
        perf = PerfManager(sm, period=1.0)
        assert perf.maybe_sweep() is not None
        assert perf.maybe_sweep() is None
        get_hub().advance(1.5)
        assert perf.maybe_sweep() is not None

    def test_attach_schedules_bounded_periodic_sweeps(self, sm):
        perf = PerfManager(sm, period=0.25, include_hcas=False)
        engine = SimulationEngine()
        scheduled = perf.attach(engine, until=1.0)
        assert scheduled == 4
        engine.run()
        assert perf.sweeps == 4


class TestReset:
    def test_reset_counters_zeroes_and_reseeds(self, sm):
        sw = sm.topology.switches[0]
        sw.port_counters(1).xmit_packets = 42
        perf = PerfManager(sm, include_hcas=False)
        perf.sweep()
        acked = perf.reset_counters()
        assert acked == len(sm.topology.switches)
        assert sw.port_counters(1).xmit_packets == 0
        # Post-reset growth is observed from a fresh wire baseline.
        sw.port_counters(1).xmit_packets = 3
        perf.sweep()
        assert (
            perf.total(sw.name, 1, "xmit_packets") >= 42
        )  # monotonic total never regresses

    def test_the_reading_after_a_reset_counts_in_full(self, sm):
        sw = sm.topology.switches[0]
        sw.port_counters(1).xmit_packets = 42
        perf = PerfManager(sm, include_hcas=False)
        perf.sweep()
        perf.reset_counters()
        sw.port_counters(1).xmit_packets = 3
        perf.sweep()
        assert perf.total(sw.name, 1, "xmit_packets") == 45

    def test_shared_store_can_be_injected(self, sm):
        store = TimeSeriesStore(capacity=16)
        perf = PerfManager(sm, store=store, include_hcas=False)
        perf.sweep()
        assert len(store) > 0
        assert perf.store is store


def per_sample_fold(readings, capacity):
    """The per-sample ingest the manager replaced: two dict round-trips
    and one ``store.append`` per sample."""
    store, raw_of, totals = TimeSeriesStore(capacity=capacity), {}, {}
    for entry in readings:
        if entry == "reset":
            raw_of.clear()
            continue
        node, now, ports = entry
        for pnum in sorted(ports):
            for cname, raw in ports[pnum].items():
                key = (node, pnum, cname)
                prev = raw_of.get(key)
                delta = raw if prev is None else (raw - prev) % PMA_COUNTER_WRAP
                raw_of[key] = raw
                totals[key] = totals.get(key, 0) + delta
                store.append(node, pnum, cname, now, totals[key])
    return store, totals


class TestIngestMatchesPerSampleFold:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        rounds=st.lists(
            st.tuples(
                st.booleans(),
                st.lists(
                    st.tuples(
                        st.integers(0, 50), st.integers(1, 8),
                        st.sampled_from(["xmit_packets", "xmit_wait", "rcv_data"]),
                        st.integers(0, 3 * PMA_COUNTER_WRAP),
                    ),
                    max_size=6,
                ),
            ),
            min_size=1,
            max_size=6,
        ),
        capacity=st.sampled_from([2, 3, 512]),
    )
    def test_store_totals_and_reports(self, sm, monkeypatch, rounds, capacity):
        nodes = sm.topology.switches + sm.topology.hcas
        perf = PerfManager(sm, store=TimeSeriesStore(capacity=capacity))
        readings = []
        get_counters = perf._get_counters

        def recorded(node, report):
            data = get_counters(node, report)
            if data is not None:
                readings.append((node.name, get_hub().now(), data["ports"]))
            return data

        monkeypatch.setattr(perf, "_get_counters", recorded)
        for reset, writes in rounds:
            for i, port, counter, value in writes:
                node = nodes[i % len(nodes)]
                setattr(node.port_counters(port % node.num_ports + 1), counter, value)
            if reset:
                perf.reset_counters()
                readings.append("reset")
            perf.sweep()
        store, totals = per_sample_fold(readings, capacity)
        assert perf.store.to_json() == store.to_json()
        assert {key: perf.total(*key) for key in totals} == totals
        assert sum(r.samples for r in perf.reports) == store.samples_total
