"""Reproduction of the paper's worked examples (Figs. 3-5, section VI-B).

The scenario: three hypervisors with 3 VFs each, prepopulated LIDs 1-12
exactly as in Fig. 3; VM1 holds LID 2 on Hypervisor 1. Hypervisors 1 and 2
share a leaf switch; Hypervisor 3 lives behind the other leaf; two spine
switches on top.
"""

import pytest

from repro.core.lid_schemes import PrepopulatedLidScheme
from repro.core.reconfig import VSwitchReconfigurer
from repro.fabric.addressing import GuidAllocator
from repro.fabric.lft import lft_block_of
from repro.fabric.presets import paper_fattree
from repro.fabric.topology import Topology
from repro.sm.subnet_manager import SubnetManager, path_computations
from repro.sriov.vswitch import VSwitchHCA
from repro.virt.cloud import CloudManager


@pytest.fixture
def paper_scenario():
    topo = Topology("fig3")
    spine_a = topo.add_switch("spineA", 4)
    spine_b = topo.add_switch("spineB", 4)
    leaf_l = topo.add_switch("leafL", 4)
    leaf_r = topo.add_switch("leafR", 4)
    hyp1 = topo.add_hca("hyp1")
    hyp2 = topo.add_hca("hyp2")
    hyp3 = topo.add_hca("hyp3")
    topo.connect(leaf_l, 1, hyp1, 1)
    topo.connect(leaf_l, 2, hyp2, 1)
    topo.connect(leaf_r, 1, hyp3, 1)
    for p, spine in ((3, spine_a), (4, spine_b)):
        topo.connect(leaf_l, p, spine, 1)
        topo.connect(leaf_r, p, spine, 2)

    sm = SubnetManager(topo)
    guids = GuidAllocator()
    scheme = PrepopulatedLidScheme(sm)

    # Fig. 3 LID layout: PFs 1/5/9, VFs sequential behind each PF.
    vswitches = {}
    next_lid = 1
    for name in ("hyp1", "hyp2", "hyp3"):
        hca = topo.node(name)
        vsw = VSwitchHCA(hca, guids, num_vfs=3)
        hca.port(1).lid = next_lid
        topo.bind_lid(next_lid, hca.port(1))
        sm.lid_manager.allocator.assign(next_lid)
        vsw.pf.lid = next_lid
        next_lid += 1
        for vf in vsw.vfs:
            vf.lid = sm.lid_manager.assign_extra_lid(hca.port(1), lid=next_lid)
            next_lid += 1
        scheme.register_hypervisor(vsw)
        vswitches[name] = vsw

    # Switches take the LIDs after the hosts (13-16).
    for sw in topo.switches:
        lid = sm.lid_manager.allocator.allocate()
        sw.lid = lid
        topo.bind_lid(lid, sw.management_port)

    sm.compute_routing()
    sm.distribute()
    return topo, sm, scheme, vswitches


class TestFig3Layout:
    def test_lids_match_figure(self, paper_scenario):
        topo, sm, scheme, vs = paper_scenario
        assert vs["hyp1"].pf.lid == 1
        assert [vf.lid for vf in vs["hyp1"].vfs] == [2, 3, 4]
        assert vs["hyp2"].pf.lid == 5
        assert [vf.lid for vf in vs["hyp2"].vfs] == [6, 7, 8]
        assert vs["hyp3"].pf.lid == 9
        assert [vf.lid for vf in vs["hyp3"].vfs] == [10, 11, 12]

    def test_lids_2_and_12_share_a_block(self, paper_scenario):
        assert lft_block_of(2) == lft_block_of(12) == 0


class TestFig5Swap:
    """VM1 (LID 2, Hypervisor 1) migrates to VF3 (LID 12) on Hypervisor 3."""

    def test_single_smp_per_switch(self, paper_scenario):
        topo, sm, scheme, vs = paper_scenario
        report = VSwitchReconfigurer(sm).swap_lids(2, 12)
        # Both LIDs in block 0 -> exactly one SMP per updated switch.
        assert report.max_blocks_on_one_switch == 1
        assert report.lft_smps == report.switches_updated

    def test_entries_exchanged_everywhere(self, paper_scenario):
        topo, sm, scheme, vs = paper_scenario
        before = {
            sw.name: (sw.route(2), sw.route(12)) for sw in topo.switches
        }
        VSwitchReconfigurer(sm).swap_lids(2, 12)
        for sw in topo.switches:
            b2, b12 = before[sw.name]
            assert sw.route(2) == b12
            assert sw.route(12) == b2

    def test_cross_block_swap_needs_two_smps(self, paper_scenario):
        # "If the LID of VF3 on hypervisor 3 was 64 or greater, then two
        # SMPs would need to be sent" — emulate by parking a high LID on
        # hypervisor 3 first.
        topo, sm, scheme, vs = paper_scenario
        hi = sm.lid_manager.assign_extra_lid(
            topo.node("hyp3").port(1), lid=70
        )
        sm.compute_routing()
        sm.distribute()
        report = VSwitchReconfigurer(sm).swap_lids(2, hi)
        assert report.max_blocks_on_one_switch == 2


class TestSectionVIBExample:
    """Swapping LID 2 with a LID on the *same-leaf* hypervisor 2 leaves the
    spines untouched: they already forward 2 and 6/7/8 through one port."""

    def test_spines_not_updated(self, paper_scenario):
        topo, sm, scheme, vs = paper_scenario
        spine_a = topo.node("spineA")
        spine_b = topo.node("spineB")
        assert spine_a.route(2) == spine_a.route(6)
        assert spine_b.route(2) == spine_b.route(6)
        report = VSwitchReconfigurer(sm).swap_lids(2, 6)
        assert "spineA" not in report.blocks_per_switch
        assert "spineB" not in report.blocks_per_switch

    def test_only_shared_leaf_updated(self, paper_scenario):
        # n' = 1: only the leaf hosting both hypervisors changes.
        topo, sm, scheme, vs = paper_scenario
        report = VSwitchReconfigurer(sm).swap_lids(2, 6)
        assert report.switches_updated == 1
        assert list(report.blocks_per_switch) == ["leafL"]

    def test_full_migration_through_scheme(self, paper_scenario):
        topo, sm, scheme, vs = paper_scenario
        src, dest = vs["hyp1"], vs["hyp3"]
        src_vf = src.vf(1)  # holds LID 2
        src_vf.attach("VM1")
        dest_vf = dest.vf(3)  # holds LID 12
        report = scheme.migrate_lid(2, src, src_vf, dest, dest_vf)
        assert dest_vf.lid == 2
        assert src_vf.lid == 12
        assert topo.port_of_lid(2) is dest.uplink_port


class TestPaper648Migration:
    """One live migration across the paper's 648-node fat-tree (54 switches,
    4 VFs per hypervisor) under each LID scheme. The figures were taken
    from the packet-by-packet reconfigurer before Algorithm 1 became a
    column edit + sweep: ``n'``, ``n'·m'`` and both simulated times are
    held to the last bit."""

    @pytest.mark.parametrize(
        "scheme, mode, n_prime, m_prime, serial, pipelined",
        [
            ("prepopulated", "swap", 20, 2,
             3.599999999999784e-05, 4.49999999999973e-06),
            ("dynamic", "copy", 54, 1,
             6.389999999999e-05, 7.98749999999875e-06),
        ],
    )
    def test_first_migration_l0h0_to_l9h9(
        self, scheme, mode, n_prime, m_prime, serial, pipelined
    ):
        built = paper_fattree(648)
        cloud = CloudManager(
            built.topology, built=built, lid_scheme=scheme, num_vfs=4
        )
        cloud.adopt_all_hcas()
        cloud.bring_up_subnet()
        assert cloud.boot_vm("vm1", on="l0h0").lid == 703
        computed = path_computations()
        report = cloud.live_migrate("vm1", "l9h9")
        reconfig = report.reconfig
        assert report.outcome == "completed"
        assert reconfig.mode == mode
        assert reconfig.switches_updated == n_prime
        assert reconfig.max_blocks_on_one_switch == m_prime
        assert reconfig.lft_smps == n_prime * m_prime
        assert reconfig.serial_time == serial
        assert reconfig.pipelined_time == pipelined
        assert path_computations() == computed
