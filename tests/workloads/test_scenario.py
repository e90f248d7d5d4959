"""Tests for the scripted scenario runner."""

import pytest

from repro.fabric.presets import scaled_fattree
from repro.workloads.scenario import Scenario
from tests.conftest import make_cloud


@pytest.fixture
def scenario():
    built = scaled_fattree("2l-small")
    cloud = make_cloud(built, num_vfs=3, routing_engine="minhop")
    return Scenario(cloud, built, seed=13)


class TestPrimitives:
    def test_boot_traced(self, scenario):
        scenario.boot(count=3)
        assert scenario.summary.boots == 3
        recs = scenario.trace.of_kind("boot")
        assert len(recs) == 3
        assert all("lid" in r.detail for r in recs)

    def test_stop_traced(self, scenario):
        scenario.boot(count=2)
        scenario.stop(count=1)
        assert scenario.summary.stops == 1
        assert scenario.trace.last("stop") is not None

    def test_migrate_records_costs(self, scenario):
        scenario.boot(count=4)
        scenario.migrate(count=2)
        assert scenario.summary.migrations == 2
        assert scenario.summary.migration_lft_smps > 0
        for rec in scenario.trace.of_kind("migrate"):
            assert rec.detail["smps"] >= 1
            assert rec.detail["n_prime"] >= 1

    def test_failure_and_repair(self, scenario):
        scenario.boot(count=2)
        assert scenario.fail_random_link()
        assert scenario.summary.failures == 1
        assert scenario.summary.failure_lft_smps > 0
        assert scenario.repair_links() == 1
        assert scenario.summary.repairs == 1

    def test_repair_is_an_incremental_cache_repair(self, scenario):
        # Failure and repair both go through the SM's state kernel, so
        # the routing cache sees an unbroken event chain: no all-pairs
        # recompute is paid, and the tables equal a cold recompute.
        from repro.sm.routing.base import RoutingRequest
        from repro.sm.routing.registry import create_engine

        sm = scenario.cloud.sm
        scenario.boot(count=4)
        before = sm.routing_state.stats.snapshot()
        assert scenario.fail_random_link()
        assert scenario.repair_links() == 1
        delta = sm.routing_state.stats.delta_since(before)
        assert delta["full_recomputes"] == 0
        assert delta["repairs"] == 2
        request = RoutingRequest.from_topology(sm.topology, built=sm.built)
        cold = create_engine("minhop").compute(request)
        assert sm.current_tables.ports.tobytes() == cold.ports.tobytes()

    def test_refused_cut_is_skipped_with_the_cable_in_place(self, scenario):
        # Degrade leaf0 to a single uplink: that bridge is shuffled into
        # the candidates, refused by the SM, and the next cable is cut.
        from repro.fabric.node import Switch

        topo = scenario.cloud.topology
        leaf = topo.node("leaf0")
        uplinks = [
            p.link
            for p in leaf.connected_ports()
            if isinstance(p.remote.node, Switch)
        ]
        for link in uplinks[1:]:
            scenario.cloud.sm.handle_link_failure(link)
        for _ in range(6):
            assert scenario.fail_random_link()
            assert all(p.is_connected for p in uplinks[0].ends)
            topo.validate()
            scenario.repair_links()

    def test_trace_times_monotone(self, scenario):
        scenario.boot(count=3)
        scenario.migrate(count=1)
        times = [r.time for r in scenario.trace]
        assert times == sorted(times)

    def test_boot_stops_when_full(self, scenario):
        scenario.boot(count=10_000)
        assert scenario.summary.boots == scenario.cloud.total_capacity


class TestBusinessDay:
    def test_full_script(self, scenario):
        summary = scenario.business_day()
        assert summary.boots > 0
        assert summary.migrations >= 5
        assert summary.failures <= 1
        # Migrations never pay path computation: PCt only for fabric events.
        assert summary.path_computations == summary.failures + summary.repairs
        kinds = scenario.trace.kinds()
        assert "boot" in kinds and "migrate" in kinds

    def test_reproducible(self):
        built_a = scaled_fattree("2l-small")
        a = Scenario(make_cloud(built_a, num_vfs=3), built_a, seed=99)
        built_b = scaled_fattree("2l-small")
        b = Scenario(make_cloud(built_b, num_vfs=3), built_b, seed=99)
        assert a.business_day().as_dict() == b.business_day().as_dict()

    def test_subnet_consistent_afterwards(self, scenario):
        scenario.business_day()
        cloud = scenario.cloud
        # Every running VM still reachable through the hardware LFTs.
        from repro.sim.dataplane import DataPlaneSimulator

        sim = DataPlaneSimulator(cloud.topology)
        src = cloud.topology.hcas[0].lid
        n = 0
        for vm in cloud.vms.values():
            if vm.is_running and vm.lid != src:
                sim.inject(src, vm.lid)
                n += 1
        stats = sim.run()
        assert stats.delivered == n
