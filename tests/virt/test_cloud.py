"""Tests for VMs, hypervisors and the cloud manager."""

import pytest

from repro.errors import VirtError
from repro.fabric.addressing import GuidAllocator
from repro.fabric.node import HCA
from repro.service.recovery import audit_cloud
from repro.sriov.vswitch import VSwitchHCA
from repro.virt.cloud import CloudManager, PlacementPolicy
from repro.virt.hypervisor import Hypervisor
from repro.virt.vm import VirtualMachine, VmState


class TestVirtualMachine:
    def test_lid_follows_vf(self):
        guids = GuidAllocator()
        vsw = VSwitchHCA(HCA("h"), guids, num_vfs=2)
        vm = VirtualMachine("vm", guids.allocate_virtual())
        assert vm.lid is None
        vf = vsw.vf(1)
        vf.lid = 42
        vf.attach("vm")
        vm.attach_vf(vf, "h")
        assert vm.lid == 42
        assert vm.is_running

    def test_double_attach_rejected(self):
        guids = GuidAllocator()
        vsw = VSwitchHCA(HCA("h"), guids, num_vfs=2)
        vm = VirtualMachine("vm", guids.allocate_virtual())
        vm.attach_vf(vsw.vf(1), "h")
        with pytest.raises(VirtError):
            vm.attach_vf(vsw.vf(2), "h")

    def test_detach_without_vf_rejected(self):
        vm = VirtualMachine("vm", 1)
        with pytest.raises(VirtError):
            vm.detach_vf()

    def test_gid_derived_from_vguid(self):
        vm = VirtualMachine("vm", 0xABC)
        assert vm.gid.guid == 0xABC


class TestHypervisor:
    def test_capacity_tracking(self):
        guids = GuidAllocator()
        vsw = VSwitchHCA(HCA("h"), guids, num_vfs=2)
        hyp = Hypervisor("h", vsw)
        assert hyp.free_vf_count == 2 and hyp.has_capacity()
        vm = VirtualMachine("vm", guids.allocate_virtual())
        vf = vsw.first_free_vf()
        vf.attach(vm.name)
        hyp.host_vm(vm, vf)
        assert hyp.vm_count == 1
        assert hyp.free_vf_count == 1

    def test_duplicate_vm_rejected(self):
        guids = GuidAllocator()
        vsw = VSwitchHCA(HCA("h"), guids, num_vfs=2)
        hyp = Hypervisor("h", vsw)
        vm = VirtualMachine("vm", 1)
        vf = vsw.vf(1)
        vf.attach("vm")
        hyp.host_vm(vm, vf)
        with pytest.raises(VirtError):
            hyp.host_vm(vm, vsw.vf(2))

    def test_evict_unknown_rejected(self):
        guids = GuidAllocator()
        hyp = Hypervisor("h", VSwitchHCA(HCA("h"), guids, num_vfs=1))
        with pytest.raises(VirtError):
            hyp.evict_vm(VirtualMachine("ghost", 1))


class TestPlacementPolicy:
    def _hyps(self, frees):
        guids = GuidAllocator()
        out = []
        for i, free in enumerate(frees):
            vsw = VSwitchHCA(HCA(f"h{i}"), guids, num_vfs=4)
            hyp = Hypervisor(f"h{i}", vsw)
            for j in range(4 - free):
                vsw.first_free_vf().attach(f"pad{i}_{j}")
            out.append(hyp)
        return out

    def test_spread_prefers_emptiest(self):
        hyps = self._hyps([1, 4, 2])
        assert PlacementPolicy("spread").choose(hyps).name == "h1"

    def test_pack_prefers_fullest(self):
        hyps = self._hyps([1, 4, 2])
        assert PlacementPolicy("pack").choose(hyps).name == "h0"

    def test_first_fit(self):
        hyps = self._hyps([1, 4, 2])
        assert PlacementPolicy("first-fit").choose(hyps).name == "h0"

    def test_empty_candidates_rejected(self):
        with pytest.raises(VirtError):
            PlacementPolicy("spread").choose([])

    def test_unknown_policy_rejected(self):
        hyps = self._hyps([1])
        with pytest.raises(VirtError):
            PlacementPolicy("random").choose(hyps)


class TestCloudManager:
    def test_boot_and_stop(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        vm = cloud.boot_vm()
        assert vm.is_running
        assert cloud.running_vm_count == 1
        cloud.stop_vm(vm.name)
        assert cloud.running_vm_count == 0
        assert vm.name not in cloud.vms

    def test_running_count_is_kept_not_scanned(self, dynamic_cloud):
        cloud = dynamic_cloud

        def scan():
            return sum(vm.is_running for vm in cloud.vms.values())

        vms, _ = cloud.boot_vms_batch([(None, "l0h0", None), (None, "l1h1", None)])
        vm = cloud.boot_vm(on="l2h2")
        assert cloud.running_vm_count == scan() == 3
        cloud.live_migrate(vm.name, "l3h3")
        cloud.stop_vm(vms[0].name)
        assert cloud.running_vm_count == scan() == 2
        assert audit_cloud(cloud) == []
        cloud._running_vms += 1
        assert audit_cloud(cloud) == ["2 VMs are running but the cloud counts 3"]

    def test_boot_on_specific_node(self, prepopulated_cloud):
        vm = prepopulated_cloud.boot_vm(on="l2h2")
        assert vm.hypervisor_name == "l2h2"

    def test_boot_on_full_node_rejected(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        for _ in range(4):
            cloud.boot_vm(on="l0h0")
        with pytest.raises(VirtError):
            cloud.boot_vm(on="l0h0")

    def test_names_unique(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        cloud.boot_vm(name="mine")
        with pytest.raises(VirtError):
            cloud.boot_vm(name="mine")

    def test_total_capacity(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        assert cloud.total_capacity == 4 * len(cloud.hypervisors)

    def test_sa_records_follow_vms(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        vm = cloud.boot_vm(on="l0h0")
        rec = cloud.sa.query(vm.gid)
        assert rec.dlid == vm.lid
        cloud.live_migrate(vm.name, "l4h4")
        rec2 = cloud.sa.query(vm.gid)
        assert rec2.dlid == vm.lid  # same LID after migration (vSwitch!)

    def test_stop_vm_unregisters_sa(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        vm = cloud.boot_vm()
        gid = vm.gid
        cloud.stop_vm(vm.name)
        with pytest.raises(VirtError):
            cloud.sa.query(gid)

    def test_adopting_twice_rejected(self, small_fattree):
        cloud = CloudManager(small_fattree.topology, built=small_fattree)
        hca = small_fattree.topology.hcas[0]
        cloud.adopt_hca_as_hypervisor(hca)
        with pytest.raises(VirtError):
            cloud.adopt_hca_as_hypervisor(hca)

    def test_unknown_scheme_rejected(self, small_fattree):
        with pytest.raises(VirtError):
            CloudManager(
                small_fattree.topology,
                built=small_fattree,
                lid_scheme="magic",
            )

    def test_fragmentation_metric(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        assert cloud.fragmentation() == 0.0
        cloud.boot_vm(on="l0h0")  # partially used node
        assert cloud.fragmentation() == 1.0
        for _ in range(3):
            cloud.boot_vm(on="l0h0")  # now full
        assert cloud.fragmentation() == 0.0

    def test_dynamic_cloud_consumes_lids_lazily(self, dynamic_cloud):
        cloud = dynamic_cloud
        topo = cloud.topology
        base = topo.num_switches + topo.num_hcas
        assert cloud.sm.lids_consumed == base
        cloud.boot_vm()
        assert cloud.sm.lids_consumed == base + 1


class TestLeafAffinity:
    def test_second_vm_lands_on_same_leaf(self, small_fattree):
        from repro.virt.cloud import CloudManager

        cloud = CloudManager(
            small_fattree.topology,
            built=small_fattree,
            lid_scheme="prepopulated",
            num_vfs=2,
            placement="leaf-affinity",
        )
        cloud.adopt_all_hcas()
        cloud.bring_up_subnet()
        a = cloud.boot_vm()
        b = cloud.boot_vm()
        leaf = lambda vm: cloud.hypervisors[
            vm.hypervisor_name
        ].uplink_port.remote.node
        assert leaf(a) is leaf(b)

    def test_affinity_enables_cheap_migrations(self, small_fattree):
        # Tenants packed per leaf => their migrations stay intra-leaf and
        # (with the minimal variant) cost one SMP each.
        from repro.virt.cloud import CloudManager

        cloud = CloudManager(
            small_fattree.topology,
            built=small_fattree,
            lid_scheme="prepopulated",
            num_vfs=2,
            placement="leaf-affinity",
        )
        cloud.adopt_all_hcas()
        cloud.bring_up_subnet()
        cloud.orchestrator.minimal_intra_leaf = True
        vms = [cloud.boot_vm() for _ in range(4)]
        vm = vms[0]
        src = cloud.hypervisors[vm.hypervisor_name]
        sibling = next(
            h
            for h in cloud.hypervisors.values()
            if h is not src
            and h.uplink_port.remote.node is src.uplink_port.remote.node
            and h.has_capacity()
        )
        report = cloud.live_migrate(vm.name, sibling.name)
        assert report.skyline.intra_leaf
        assert report.switches_updated == 1

    def test_spills_to_new_leaf_when_full(self, small_fattree):
        from repro.virt.cloud import CloudManager

        cloud = CloudManager(
            small_fattree.topology,
            built=small_fattree,
            lid_scheme="prepopulated",
            num_vfs=1,
            placement="leaf-affinity",
        )
        cloud.adopt_all_hcas()
        cloud.bring_up_subnet()
        # 6 hypervisors per leaf x 1 VF: the 7th VM must change leaves.
        vms = [cloud.boot_vm() for _ in range(7)]
        leaves = {
            cloud.hypervisors[vm.hypervisor_name].uplink_port.remote.node
            for vm in vms
        }
        assert len(leaves) == 2
