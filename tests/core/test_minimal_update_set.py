"""Tests for the section VI-D minimal-correctness update set.

The key soundness property: applying the *new* routing on exactly the
predicted switch set — and leaving every other switch's stale entry in
place — still delivers all traffic for the migrated LID. That is what makes
the set a valid "skyline" (minimum network region to reconfigure).
"""

import pytest

from repro.core.skyline import minimal_update_set
from repro.fabric.node import Switch
from repro.fabric.presets import scaled_fattree
from repro.sm.subnet_manager import SubnetManager
from repro.workloads.migration_patterns import (
    INTER_POD,
    INTRA_LEAF,
    INTRA_POD,
    MigrationPlanner,
)
from tests.conftest import make_cloud


def mixture_delivers(topology, vm_lid, template_lid, updates, dest_port):
    """Walk every switch under 'new entries on `updates`, stale elsewhere'."""
    attach = dest_port.remote
    dest_leaf, delivery_port = attach.node, attach.num
    p2p = {}
    for sw in topology.switches:
        for port in sw.connected_ports():
            if isinstance(port.remote.node, Switch):
                p2p[(sw.index, port.num)] = port.remote.node.index
    switches = topology.switches
    for start in switches:
        cur = start
        hops = 0
        while True:
            if cur.index in updates or cur is dest_leaf:
                # Updated switch: routes like the destination PF.
                out = (
                    delivery_port
                    if cur is dest_leaf
                    else cur.route(template_lid)
                )
            else:
                out = cur.route(vm_lid)  # stale entry
            if cur is dest_leaf and out == delivery_port:
                break  # delivered at the right host port
            nxt = p2p.get((cur.index, out))
            if nxt is None:
                return False  # delivered at a *wrong* host
            cur = switches[nxt]
            hops += 1
            if hops > len(switches):
                return False  # loop
    return True


@pytest.fixture
def pod_cloud():
    built = scaled_fattree("3l-small")
    cloud = make_cloud(built, lid_scheme="dynamic", num_vfs=2)
    planner = MigrationPlanner(cloud, built, seed=3)
    for _ in range(30):
        cloud.boot_vm()
    return cloud, planner


class TestSoundness:
    @pytest.mark.parametrize("klass", [INTRA_LEAF, INTRA_POD, INTER_POD])
    def test_mixture_delivery(self, pod_cloud, klass):
        cloud, planner = pod_cloud
        for _ in range(3):
            plan = planner.plan_one(klass)
            assert plan is not None
            vm = cloud.vms[plan[0]]
            dest = cloud.hypervisors[plan[1]]
            updates = minimal_update_set(
                cloud.topology, vm.lid, dest.uplink_port
            )
            assert mixture_delivers(
                cloud.topology,
                vm.lid,
                dest.pf_lid,
                updates,
                dest.uplink_port,
            )

    def test_intra_leaf_is_exactly_one(self, pod_cloud):
        cloud, planner = pod_cloud
        plan = planner.plan_one(INTRA_LEAF)
        vm = cloud.vms[plan[0]]
        dest = cloud.hypervisors[plan[1]]
        updates = minimal_update_set(cloud.topology, vm.lid, dest.uplink_port)
        leaf = dest.uplink_port.remote.node
        assert updates == {leaf.index}

    def test_gradient(self, pod_cloud):
        cloud, planner = pod_cloud
        sizes = {}
        for klass in (INTRA_LEAF, INTRA_POD, INTER_POD):
            plan = planner.plan_one(klass)
            vm = cloud.vms[plan[0]]
            dest = cloud.hypervisors[plan[1]]
            sizes[klass] = len(
                minimal_update_set(cloud.topology, vm.lid, dest.uplink_port)
            )
        assert sizes[INTRA_LEAF] < sizes[INTRA_POD] < sizes[INTER_POD]

    def test_self_migration_needs_nothing_extra(self, pod_cloud):
        # "Migrating" to the same hypervisor: the LID already delivers, so
        # the minimal set is empty.
        cloud, planner = pod_cloud
        vm = next(vm for vm in cloud.vms.values() if vm.is_running)
        src = cloud.hypervisors[vm.hypervisor_name]
        updates = minimal_update_set(cloud.topology, vm.lid, src.uplink_port)
        assert updates == set()

    def test_unattached_port_rejected(self, pod_cloud):
        from repro.errors import ReconfigError
        from repro.fabric.node import HCA

        cloud, _ = pod_cloud
        with pytest.raises(ReconfigError):
            minimal_update_set(cloud.topology, 1, HCA("stray").port(1))

    def test_a_cable_with_no_far_end_is_a_typed_error(self, pod_cloud):
        # The walk types the condition discovery types, instead of an assert.
        from repro.errors import TopologyError
        from tests.sm.test_discovery_plan import Dangling

        cloud, _ = pod_cloud
        vm = next(vm for vm in cloud.vms.values() if vm.is_running)
        sw = next(sw for sw in cloud.topology.switches if any(sw.free_ports()))
        bad = next(sw.free_ports())
        bad.link = Dangling()
        # An out-of-band cable edit is announced, as the topology's
        # contract asks; the walk then reads the rebuilt switch view.
        cloud.topology.invalidate_fabric_view()
        with pytest.raises(TopologyError, match=f"port {bad.num} of .*no far end"):
            minimal_update_set(
                cloud.topology, vm.lid, cloud.hypervisors[vm.hypervisor_name].uplink_port
            )
