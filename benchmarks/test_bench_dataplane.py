"""Benchmark E8b — data-plane view of reconfiguration (section VI-C).

Runs packets with credit-based flow control against live LFTs:

* transient deadlocks under minimal routing on a cyclic fabric are broken
  by the head-of-queue timeout — "deadlocks ... will be resolved by IB
  timeouts, the mechanism which is available in IBA";
* the port-255 partially-static mitigation drops only the migrating VM's
  traffic;
* a mid-flight migration loses no packets on a fat-tree.
"""

from __future__ import annotations

import pytest

from repro.core.reconfig import VSwitchReconfigurer
from repro.fabric.builders.generic import build_ring
from repro.fabric.presets import scaled_fattree
from repro.sim.dataplane import DataPlaneSimulator
from repro.sm.subnet_manager import SubnetManager
from repro.workloads.traffic import all_to_all_flows


def routed(built, engine="minhop"):
    sm = SubnetManager(built.topology, built=built, engine=engine)
    sm.initial_configure(with_discovery=False)
    return sm


def test_fattree_all_to_all_throughput(benchmark):
    """Baseline: everything delivers on a routed fat-tree."""
    built = scaled_fattree("2l-small")
    routed(built)
    topo = built.topology
    lids = [h.lid for h in topo.hcas[:10]]
    flows = all_to_all_flows(lids)

    def run():
        sim = DataPlaneSimulator(topo, channel_credits=2)
        sim.inject_flows(flows, spacing=1e-7)
        return sim.run()

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    assert stats.delivered == stats.injected
    assert stats.dropped_timeout == 0


@pytest.mark.parametrize("engine,expect_timeouts", [("minhop", True), ("updn", False)])
def test_ring_deadlock_vs_updn(benchmark, engine, expect_timeouts):
    """Deadlock (resolved by timeouts) vs deadlock-free routing."""
    built = build_ring(6, 1)
    routed(built, engine=engine)
    topo = built.topology
    lids = [h.lid for h in topo.hcas]
    flows = [(lids[i], lids[(i + 3) % 6]) for i in range(6)] * 4

    def run():
        sim = DataPlaneSimulator(
            topo, channel_credits=1, hop_time=1e-6, hoq_timeout=50e-6
        )
        sim.inject_flows(flows)
        return sim.run()

    stats = benchmark.pedantic(run, rounds=2, iterations=1)
    assert stats.in_flight == 0
    if expect_timeouts:
        assert stats.dropped_timeout > 0
    else:
        assert stats.dropped_timeout == 0
        assert stats.delivered == stats.injected


def test_migration_under_traffic(benchmark):
    """Packets racing a reconfiguration all arrive (old or new location)."""
    built = scaled_fattree("2l-small")
    sm = routed(built)
    topo = built.topology
    h_src, h_old, h_new = topo.hcas[0], topo.hcas[-1], topo.hcas[-7]
    vm_lid = sm.lid_manager.assign_extra_lid(h_old.port(1))
    sm.compute_routing()
    sm.distribute()
    rec = VSwitchReconfigurer(sm)
    state = {"home": h_old}

    def run():
        sim = DataPlaneSimulator(topo, hop_time=1e-6)
        for i in range(16):
            sim.inject(h_src.lid, vm_lid, delay=i * 4e-6)
        target = h_new if state["home"] is h_old else h_old

        def migrate():
            rec.copy_path(target.port(1).lid, vm_lid)
            sm.lid_manager.move_lid(vm_lid, target.port(1))
            state["home"] = target

        sim.engine.schedule(30e-6, migrate)
        return sim.run()

    stats = benchmark.pedantic(run, rounds=4, iterations=1)
    assert stats.delivered == stats.injected
    assert stats.dropped_timeout == 0
