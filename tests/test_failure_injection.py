"""Failure-injection integration tests: cables die while the cloud runs.

Combines the SM's link-failure handling with live migration and the
data-plane simulator: after each injected fault the subnet must reroute,
every VM must remain reachable, and migrations must keep working.
"""

import random

import pytest

from repro.errors import TopologyError
from repro.fabric.node import Switch
from repro.fabric.presets import scaled_fattree
from repro.sim.dataplane import DataPlaneSimulator
from repro.sm.subnet_manager import path_computations
from repro.workloads.migration_patterns import ANY, MigrationPlanner
from tests.conftest import make_cloud


def inter_switch_links(topology):
    return [
        link
        for link in topology.links
        if isinstance(link.a.node, Switch) and isinstance(link.b.node, Switch)
    ]


def all_vms_deliverable(cloud):
    topo = cloud.topology
    sim = DataPlaneSimulator(topo)
    src = topo.hcas[0].lid
    count = 0
    for vm in cloud.vms.values():
        if vm.is_running and vm.lid != src:
            sim.inject(src, vm.lid)
            count += 1
    stats = sim.run()
    return stats.delivered == count


class TestFailuresDuringOperation:
    def test_single_failure_then_migration(self):
        built = scaled_fattree("2l-small")
        cloud = make_cloud(built, num_vfs=3, routing_engine="minhop")
        vm = cloud.boot_vm(on="l0h0")
        link = inter_switch_links(cloud.topology)[0]
        report = cloud.sm.handle_link_failure(link)
        assert report.lft_smps > 0
        # Migration still works on the degraded fabric.
        mig = cloud.live_migrate(vm.name, "l4h4")
        assert mig.reconfig.lft_smps >= 1
        assert all_vms_deliverable(cloud)

    def test_sequential_failures_until_margin(self):
        # A 2-level fat-tree with 6 spines tolerates many cable cuts; keep
        # cutting random spine links and verify reachability after each.
        built = scaled_fattree("2l-small")
        cloud = make_cloud(built, num_vfs=2, routing_engine="minhop")
        for _ in range(8):
            cloud.boot_vm()
        rng = random.Random(7)
        cut = 0
        for _ in range(6):
            links = inter_switch_links(cloud.topology)
            link = rng.choice(links)
            try:
                cloud.sm.handle_link_failure(link)
            except TopologyError:
                break  # would partition: stop injecting
            cut += 1
            assert all_vms_deliverable(cloud)
        assert cut >= 3

    def test_failure_between_migrations(self):
        built = scaled_fattree("2l-small")
        cloud = make_cloud(built, num_vfs=3, routing_engine="minhop")
        planner = MigrationPlanner(cloud, built, seed=5)
        for _ in range(10):
            cloud.boot_vm()
        plan = planner.plan_one(ANY)
        cloud.live_migrate(*plan)
        link = inter_switch_links(cloud.topology)[3]
        cloud.sm.handle_link_failure(link)
        plan = planner.plan_one(ANY)
        computed = path_computations()
        cloud.live_migrate(*plan)
        assert path_computations() == computed
        assert all_vms_deliverable(cloud)

    def test_failure_reroute_preserves_vm_lids(self):
        # Rerouting recomputes paths but must not touch LID ownership: the
        # VMs keep their addresses through infrastructure failures too.
        built = scaled_fattree("2l-small")
        cloud = make_cloud(built, num_vfs=3, routing_engine="minhop")
        vms = [cloud.boot_vm() for _ in range(6)]
        lids = {vm.name: vm.lid for vm in vms}
        link = inter_switch_links(cloud.topology)[1]
        cloud.sm.handle_link_failure(link)
        for vm in vms:
            assert vm.lid == lids[vm.name]
