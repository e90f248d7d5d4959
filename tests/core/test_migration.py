"""Tests for the live migration orchestrator (Algorithm 1 / section VII-B)."""

import pytest

from repro.core.migration import MigrationTimingModel
from repro.errors import MigrationError
from repro.mad.smp import SmpKind
from repro.sm.subnet_manager import path_computations
from repro.virt.vm import VmState


class TestMigrationFlow:
    def test_vm_keeps_all_addresses(self, prepopulated_cloud):
        # The whole point of vSwitch: LID, vGUID and GID travel with the VM.
        cloud = prepopulated_cloud
        vm = cloud.boot_vm(on="l0h0")
        lid, vguid, gid = vm.lid, vm.vguid, vm.gid
        cloud.live_migrate(vm.name, "l3h3")
        assert (vm.lid, vm.vguid, vm.gid) == (lid, vguid, gid)

    def test_vm_relocates(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        vm = cloud.boot_vm(on="l0h0")
        report = cloud.live_migrate(vm.name, "l3h3")
        assert vm.hypervisor_name == "l3h3"
        assert vm.name in cloud.hypervisors["l3h3"].vms
        assert vm.name not in cloud.hypervisors["l0h0"].vms
        assert vm.state is VmState.RUNNING
        assert vm.migrations == 1
        assert report.source == "l0h0" and report.destination == "l3h3"

    def test_dest_vf_carries_vm_vguid(self, prepopulated_cloud):
        # Section VII-B step 4: the attached VF holds the GUID the VM had.
        cloud = prepopulated_cloud
        vm = cloud.boot_vm(on="l0h0")
        cloud.live_migrate(vm.name, "l3h3")
        assert vm.vf.guid == vm.vguid
        assert vm.vf.hca.name == "l3h3"

    def test_source_vf_freed(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        vm = cloud.boot_vm(on="l0h0")
        src_vf = vm.vf
        cloud.live_migrate(vm.name, "l3h3")
        assert src_vf.is_free

    def test_address_update_smps_per_paper(self, prepopulated_cloud):
        # Step (a): one SMP per participating hypervisor (2) + the vGUID
        # transfer to the destination.
        cloud = prepopulated_cloud
        vm = cloud.boot_vm(on="l0h0")
        report = cloud.live_migrate(vm.name, "l3h3")
        assert report.address_update_smps == 3

    def test_total_smps_combines_steps(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        vm = cloud.boot_vm(on="l0h0")
        report = cloud.live_migrate(vm.name, "l3h3")
        assert report.total_smps == (
            report.address_update_smps + report.reconfig.lft_smps
        )

    def test_zero_path_computation(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        vm = cloud.boot_vm(on="l0h0")
        computed = path_computations()
        cloud.live_migrate(vm.name, "l3h3")
        assert path_computations() == computed

    def test_communication_survives_migration(self, prepopulated_cloud):
        # Traffic from a third node must reach the VM at its new location
        # using the same LID.
        cloud = prepopulated_cloud
        vm = cloud.boot_vm(on="l0h0")
        lid = vm.lid
        cloud.live_migrate(vm.name, "l3h3")
        dest_leaf = cloud.hypervisors["l3h3"].uplink_port.remote.node
        # Follow the hardware LFTs from a remote leaf.
        cur = cloud.hypervisors["l5h0"].uplink_port.remote.node
        hops = 0
        while cur is not dest_leaf:
            out = cur.route(lid)
            nxt = None
            for port in cur.connected_ports():
                if port.num == out:
                    nxt = port.remote.node
            assert nxt is not None and nxt.is_switch
            cur = nxt
            hops += 1
            assert hops < 10
        assert dest_leaf.route(lid) == cloud.hypervisors[
            "l3h3"
        ].uplink_port.remote.num


class TestValidation:
    def test_migrate_to_self_rejected(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        vm = cloud.boot_vm(on="l0h0")
        with pytest.raises(MigrationError):
            cloud.live_migrate(vm.name, "l0h0")

    def test_migrate_to_full_node_rejected(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        for _ in range(4):
            cloud.boot_vm(on="l1h1")
        vm = cloud.boot_vm(on="l0h0")
        with pytest.raises(MigrationError):
            cloud.live_migrate(vm.name, "l1h1")

    def test_unknown_vm_rejected(self, prepopulated_cloud):
        from repro.errors import VirtError

        with pytest.raises(VirtError):
            prepopulated_cloud.live_migrate("ghost", "l1h1")


class QuietVguid:
    """The cloud's sender, except that the vGUID update's reply carries
    nothing and, with *unplug*, the source's uplink is pulled after it."""

    def __init__(self, cloud, *, unplug=None):
        self.sender = cloud.orchestrator.sm.smp_sender
        self.cloud, self.unplug = cloud, unplug

    def send(self, smp):
        result = self.sender.send(smp)
        if smp.kind is not SmpKind.VGUID:
            return result
        if self.unplug is None:
            result.data = None
        else:
            port = self.cloud.hypervisors[self.unplug].uplink_port
            self.cloud.topology.remove_link(port.link)
        return result


class TestTypedGuards:
    """What the migration path used to ``assert`` is a typed refusal."""

    def test_a_vm_without_a_lid_is_refused_before_anything_moves(
        self, prepopulated_cloud
    ):
        cloud = prepopulated_cloud
        vm = cloud.boot_vm(on="l0h0")
        vm.vf.lid = None
        sent = cloud.orchestrator.sm.transport.stats.total_smps
        with pytest.raises(MigrationError, match="has no LID to migrate"):
            cloud.live_migrate(vm.name, "l3h3")
        assert vm.state is VmState.RUNNING
        assert cloud.orchestrator.sm.transport.stats.total_smps == sent

    def test_a_vguid_reply_without_its_vguid(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        vm = cloud.boot_vm(on="l0h0")
        cloud.orchestrator.sm.smp_sender = QuietVguid(cloud)
        with pytest.raises(MigrationError, match="came back without its vGUID"):
            cloud.live_migrate(vm.name, "l3h3")

    def test_a_source_that_loses_its_uplink_mid_migration(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        cloud.orchestrator.minimal_intra_leaf = True
        vm = cloud.boot_vm(on="l0h0")
        cloud.orchestrator.sm.smp_sender = QuietVguid(cloud, unplug="l0h0")
        with pytest.raises(MigrationError, match="l0h0 lost its uplink"):
            cloud.live_migrate(vm.name, "l0h1")


class TestTiming:
    def test_copy_seconds_scales_with_memory(self):
        t = MigrationTimingModel(memory_copy_bandwidth=1e9)
        assert t.copy_seconds(2 * 10**9) == pytest.approx(2.0)
        with pytest.raises(MigrationError):
            t.copy_seconds(-1)

    def test_downtime_includes_reconfig_and_vf_penalty(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        vm = cloud.boot_vm(on="l0h0")
        report = cloud.live_migrate(vm.name, "l3h3")
        timing = cloud.orchestrator.timing
        floor = timing.vf_detach_seconds + timing.vf_attach_seconds
        assert report.downtime_seconds > floor
        assert report.copy_seconds > 0

    def test_reconfig_downtime_share_is_negligible(self, prepopulated_cloud):
        # The paper's point: the network reconfiguration is microseconds
        # while the VF detach/attach penalty is seconds.
        cloud = prepopulated_cloud
        vm = cloud.boot_vm(on="l0h0")
        report = cloud.live_migrate(vm.name, "l3h3")
        assert report.reconfig.serial_time < 0.001 * report.downtime_seconds


class TestMinimalIntraLeaf:
    def test_minimal_updates_single_switch(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        cloud.orchestrator.minimal_intra_leaf = True
        vm = cloud.boot_vm(on="l0h0")
        report = cloud.live_migrate(vm.name, "l0h1")
        assert report.switches_updated == 1
        assert report.reconfig.lft_smps == 1

    def test_minimal_does_not_apply_across_leaves(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        cloud.orchestrator.minimal_intra_leaf = True
        vm = cloud.boot_vm(on="l0h0")
        report = cloud.live_migrate(vm.name, "l4h4")
        assert report.switches_updated > 1

    def test_minimal_keeps_delivery_correct(self, dynamic_cloud):
        cloud = dynamic_cloud
        cloud.orchestrator.minimal_intra_leaf = True
        vm = cloud.boot_vm(on="l0h0")
        lid = vm.lid
        cloud.live_migrate(vm.name, "l0h1")
        leaf = cloud.hypervisors["l0h1"].uplink_port.remote.node
        assert leaf.route(lid) == cloud.hypervisors["l0h1"].uplink_port.remote.num


class TestListeners:
    def test_listener_invoked(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        seen = []
        cloud.orchestrator.listeners.append(lambda r: seen.append(r.vm_name))
        vm = cloud.boot_vm(on="l0h0")
        cloud.live_migrate(vm.name, "l2h2")
        assert seen == [vm.name]
