"""Tests for the two vSwitch LID schemes (paper sections V-A / V-B)."""

import pytest

from repro.errors import ReconfigError, SriovError
from repro.core.lid_schemes import DynamicLidScheme, PrepopulatedLidScheme
from repro.fabric.addressing import GuidAllocator
from repro.fabric.presets import scaled_fattree
from repro.sm.subnet_manager import SubnetManager
from repro.sriov.vswitch import VSwitchHCA


def build_scheme(scheme_cls, num_vfs=4):
    built = scaled_fattree("2l-small")
    sm = SubnetManager(built.topology, built=built)
    sm.assign_lids()
    guids = GuidAllocator()
    scheme = scheme_cls(sm)
    vswitches = []
    for hca in built.topology.hcas:
        vsw = VSwitchHCA(hca, guids, num_vfs=num_vfs)
        scheme.register_hypervisor(vsw)
        vswitches.append(vsw)
    scheme.initialize()
    sm.compute_routing()
    sm.distribute()
    return built, sm, scheme, vswitches


class TestPrepopulated:
    def test_all_vfs_have_lids_at_boot(self):
        built, sm, scheme, vswitches = build_scheme(PrepopulatedLidScheme)
        for vsw in vswitches:
            assert all(vf.lid is not None for vf in vsw.vfs)

    def test_lid_consumption_is_nodes_plus_vfs(self):
        built, sm, scheme, vswitches = build_scheme(PrepopulatedLidScheme)
        topo = built.topology
        expected = topo.num_switches + topo.num_hcas + 4 * topo.num_hcas
        assert sm.lids_consumed == expected

    def test_vm_boot_costs_zero_smps(self):
        built, sm, scheme, vswitches = build_scheme(PrepopulatedLidScheme)
        before = sm.transport.stats.lft_update_smps
        report = scheme.boot_vm(vswitches[0], "vm1")
        assert report.lft_smps == 0
        assert sm.transport.stats.lft_update_smps == before

    def test_vm_inherits_vf_lid(self):
        built, sm, scheme, vswitches = build_scheme(PrepopulatedLidScheme)
        vf_lid = vswitches[0].vf(1).lid
        report = scheme.boot_vm(vswitches[0], "vm1")
        assert report.lid == vf_lid

    def test_consecutive_vms_on_same_vf_reuse_lid(self):
        # Section V-B contrast: "in a network without live migrations, VMs
        # consecutively attached to a given VF will always get the same LID".
        built, sm, scheme, vswitches = build_scheme(PrepopulatedLidScheme)
        r1 = scheme.boot_vm(vswitches[0], "vm1")
        scheme.shutdown_vm(vswitches[0], vswitches[0].vf(1))
        r2 = scheme.boot_vm(vswitches[0], "vm2")
        assert r1.lid == r2.lid

    def test_migration_swaps_lids_between_vfs(self):
        built, sm, scheme, vswitches = build_scheme(PrepopulatedLidScheme)
        src, dest = vswitches[0], vswitches[-1]
        boot = scheme.boot_vm(src, "vm1")
        src_vf = src.vf(1)
        dest_vf = dest.first_free_vf()
        old_dest_lid = dest_vf.lid
        scheme.migrate_lid(boot.lid, src, src_vf, dest, dest_vf)
        assert dest_vf.lid == boot.lid
        assert src_vf.lid == old_dest_lid
        # Registry agrees.
        assert sm.topology.port_of_lid(boot.lid) is dest.uplink_port
        assert sm.topology.port_of_lid(old_dest_lid) is src.uplink_port

    def test_migration_preserves_total_lids(self):
        built, sm, scheme, vswitches = build_scheme(PrepopulatedLidScheme)
        boot = scheme.boot_vm(vswitches[0], "vm1")
        before = sm.lids_consumed
        scheme.migrate_lid(
            boot.lid,
            vswitches[0],
            vswitches[0].vf(1),
            vswitches[-1],
            vswitches[-1].first_free_vf(),
        )
        assert sm.lids_consumed == before

    def test_initialize_requires_base_lids(self, small_fattree):
        sm = SubnetManager(small_fattree.topology, built=small_fattree)
        scheme = PrepopulatedLidScheme(sm)
        vsw = VSwitchHCA(small_fattree.topology.hcas[0], GuidAllocator(), num_vfs=2)
        scheme.register_hypervisor(vsw)
        with pytest.raises(ReconfigError):
            scheme.initialize()


class TestDynamic:
    def test_no_vf_lids_at_boot(self):
        built, sm, scheme, vswitches = build_scheme(DynamicLidScheme)
        for vsw in vswitches:
            assert all(vf.lid is None for vf in vsw.vfs)

    def test_lid_consumption_is_nodes_only(self):
        built, sm, scheme, vswitches = build_scheme(DynamicLidScheme)
        topo = built.topology
        assert sm.lids_consumed == topo.num_switches + topo.num_hcas

    def test_vm_boot_assigns_next_free_lid(self):
        built, sm, scheme, vswitches = build_scheme(DynamicLidScheme)
        r1 = scheme.boot_vm(vswitches[0], "vm1")
        r2 = scheme.boot_vm(vswitches[1], "vm2")
        assert r2.lid == r1.lid + 1

    def test_vm_boot_copies_pf_path(self):
        built, sm, scheme, vswitches = build_scheme(DynamicLidScheme)
        vsw = vswitches[0]
        report = scheme.boot_vm(vsw, "vm1")
        for sw in built.topology.switches:
            assert sw.route(report.lid) == sw.route(vsw.pf_lid)

    def test_vm_boot_costs_at_most_one_smp_per_switch(self):
        # Section V-B: "One SMP per switch is needed to be sent".
        built, sm, scheme, vswitches = build_scheme(DynamicLidScheme)
        report = scheme.boot_vm(vswitches[0], "vm1")
        assert 0 < report.lft_smps <= built.topology.num_switches

    def test_shutdown_releases_lid(self):
        built, sm, scheme, vswitches = build_scheme(DynamicLidScheme)
        report = scheme.boot_vm(vswitches[0], "vm1")
        scheme.shutdown_vm(vswitches[0], vswitches[0].vf(1))
        assert sm.topology.port_of_lid(report.lid) is None
        assert vswitches[0].vf(1).lid is None

    def test_lid_reuse_after_shutdown(self):
        built, sm, scheme, vswitches = build_scheme(DynamicLidScheme)
        r1 = scheme.boot_vm(vswitches[0], "vm1")
        scheme.shutdown_vm(vswitches[0], vswitches[0].vf(1))
        r2 = scheme.boot_vm(vswitches[1], "vm2")
        assert r2.lid == r1.lid  # lowest freed LID recycled

    def test_migration_copies_dest_pf_path(self):
        built, sm, scheme, vswitches = build_scheme(DynamicLidScheme)
        src, dest = vswitches[0], vswitches[-1]
        boot = scheme.boot_vm(src, "vm1")
        src_vf = src.vf(1)
        dest_vf = dest.first_free_vf()
        report = scheme.migrate_lid(boot.lid, src, src_vf, dest, dest_vf)
        assert report.mode == "copy"
        for sw in built.topology.switches:
            assert sw.route(boot.lid) == sw.route(dest.pf_lid)
        assert sm.topology.port_of_lid(boot.lid) is dest.uplink_port
        assert src_vf.lid is None

    def test_vf_count_can_exceed_lid_budget(self):
        # Section V-B: "no limitation on the total amount of VFs present".
        built, sm, scheme, vswitches = build_scheme(DynamicLidScheme, num_vfs=16)
        # 36 hypervisors x 16 VFs = 576 potential VMs; no LIDs consumed yet.
        assert scheme.total_vf_count() == 16 * len(vswitches)
        assert sm.lids_consumed == (
            built.topology.num_switches + built.topology.num_hcas
        )


class TestSchemeAccounting:
    def test_active_vm_count(self):
        built, sm, scheme, vswitches = build_scheme(PrepopulatedLidScheme)
        scheme.boot_vm(vswitches[0], "a")
        scheme.boot_vm(vswitches[0], "b")
        assert scheme.active_vm_count() == 2
        scheme.shutdown_vm(vswitches[0], vswitches[0].vf(1))
        assert scheme.active_vm_count() == 1

    def test_boot_beyond_capacity_raises(self):
        built, sm, scheme, vswitches = build_scheme(PrepopulatedLidScheme, num_vfs=1)
        scheme.boot_vm(vswitches[0], "a")
        with pytest.raises(SriovError):
            scheme.boot_vm(vswitches[0], "b")
