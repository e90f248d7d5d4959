"""Tests for skyline prediction and concurrent-migration admission (VI-D)."""

import pytest

from repro.core.skyline import (
    MigrationSkyline,
    admit_concurrent,
    copy_update_set,
    is_intra_leaf,
    plan_skyline,
    swap_update_set,
)
from repro.errors import ReconfigError


class TestUpdateSets:
    def test_swap_update_set_matches_reconfig(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        vm = cloud.boot_vm(on="l0h0")
        dest = cloud.hypervisors["l5h5"]
        dest_vf = dest.vswitch.first_free_vf()
        predicted = swap_update_set(cloud.topology, vm.lid, dest_vf.lid)
        report = cloud.live_migrate(vm.name, "l5h5")
        assert report.switches_updated == len(predicted)

    def test_copy_update_set_matches_reconfig(self, dynamic_cloud):
        cloud = dynamic_cloud
        vm = cloud.boot_vm(on="l0h0")
        dest = cloud.hypervisors["l5h5"]
        predicted = copy_update_set(cloud.topology, dest.pf_lid, vm.lid)
        report = cloud.live_migrate(vm.name, "l5h5")
        assert report.switches_updated == len(predicted)

    def test_same_port_lids_need_no_update(self, prepopulated_cloud):
        # Two LIDs on the same hypervisor forward identically at the leaf
        # (same exit port): swapping them touches nothing at that leaf?
        # No — the leaf delivers them to the same HCA port, so entries are
        # equal on *every* switch and the update set is empty.
        cloud = prepopulated_cloud
        vsw = cloud.hypervisors["l0h0"].vswitch
        lid_a, lid_b = vsw.vf(1).lid, vsw.vf(2).lid
        # Under minhop lid-mod, two VF LIDs of one hypervisor may still use
        # different spine paths; assert only that the leaf itself agrees.
        leaf = cloud.hypervisors["l0h0"].uplink_port.remote.node
        assert leaf.route(lid_a) == leaf.route(lid_b)
        assert leaf.index not in swap_update_set(cloud.topology, lid_a, lid_b)


class TestIntraLeaf:
    def test_same_leaf_detected(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        a = cloud.hypervisors["l0h0"].uplink_port
        b = cloud.hypervisors["l0h1"].uplink_port
        c = cloud.hypervisors["l1h0"].uplink_port
        assert is_intra_leaf(a, b)
        assert not is_intra_leaf(a, c)

    def test_unattached_port_rejected(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        from repro.fabric.node import HCA

        stray = HCA("stray")
        with pytest.raises(ReconfigError):
            is_intra_leaf(stray.port(1), cloud.hypervisors["l0h0"].uplink_port)


class TestPlanSkyline:
    def test_plan_swap(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        vm = cloud.boot_vm(on="l0h0")
        dest = cloud.hypervisors["l0h1"]
        sky = plan_skyline(
            cloud.topology,
            vm_lid=vm.lid,
            other_lid=dest.vswitch.first_free_vf().lid,
            mode="swap",
            src_port=cloud.hypervisors["l0h0"].uplink_port,
            dest_port=dest.uplink_port,
        )
        assert sky.intra_leaf
        assert sky.n_prime >= 1

    def test_unknown_mode_rejected(self, prepopulated_cloud):
        cloud = prepopulated_cloud
        vm = cloud.boot_vm(on="l0h0")
        with pytest.raises(ReconfigError):
            plan_skyline(
                cloud.topology,
                vm_lid=vm.lid,
                other_lid=1,
                mode="teleport",
                src_port=cloud.hypervisors["l0h0"].uplink_port,
                dest_port=cloud.hypervisors["l0h1"].uplink_port,
            )

    def test_max_smps_bound(self):
        sky = MigrationSkyline(
            vm_lid=2, other_lid=70, mode="swap", switches={0, 1, 2}
        )
        assert sky.max_smps == 6  # cross-block swap: 2 per switch
        sky2 = MigrationSkyline(
            vm_lid=2, other_lid=12, mode="swap", switches={0, 1, 2}
        )
        assert sky2.max_smps == 3  # same block
        sky3 = MigrationSkyline(
            vm_lid=2, other_lid=70, mode="copy", switches={0, 1}
        )
        assert sky3.max_smps == 2  # copy: always 1 per switch


class TestConcurrency:
    def test_disjointness(self):
        a = MigrationSkyline(1, 2, "swap", switches={0, 1})
        b = MigrationSkyline(3, 4, "swap", switches={2, 3})
        c = MigrationSkyline(5, 6, "swap", switches={1, 5})
        assert a.disjoint_from(b)
        assert not a.disjoint_from(c)

    def test_shared_lid_conflicts(self):
        a = MigrationSkyline(1, 2, "swap", switches={0})
        b = MigrationSkyline(2, 3, "swap", switches={9})
        assert not a.disjoint_from(b)

    def test_admit_concurrent_batches(self):
        skies = [
            MigrationSkyline(1, 2, "swap", switches={0}),
            MigrationSkyline(3, 4, "swap", switches={1}),
            MigrationSkyline(5, 6, "swap", switches={0, 2}),
        ]
        batches = admit_concurrent(skies)
        assert len(batches) == 2
        assert len(batches[0]) == 2  # the two disjoint ones run together
        assert batches[1][0].vm_lid == 5

    def test_intra_leaf_migrations_all_concurrent(self, prepopulated_cloud):
        # "We could have as many concurrent migrations as there exists leaf
        # switches" — one intra-leaf migration per distinct leaf, minimal
        # update sets, all admitted in one batch.
        cloud = prepopulated_cloud
        skies = []
        for leaf_idx in range(3):
            src = cloud.hypervisors[f"l{leaf_idx}h0"]
            dest = cloud.hypervisors[f"l{leaf_idx}h1"]
            vm = cloud.boot_vm(on=src.name)
            leaf = src.uplink_port.remote.node
            skies.append(
                MigrationSkyline(
                    vm_lid=vm.lid,
                    other_lid=dest.vswitch.first_free_vf().lid,
                    mode="swap",
                    switches={leaf.index},
                    intra_leaf=True,
                )
            )
        batches = admit_concurrent(skies)
        assert len(batches) == 1
        assert len(batches[0]) == 3

    def test_empty_input(self):
        assert admit_concurrent([]) == []
