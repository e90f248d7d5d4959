"""Tests for switch-failure handling, safe swap, and engine fallback."""

import pytest

from repro.analysis.verification import verify_subnet
from repro.core.reconfig import VSwitchReconfigurer
from repro.errors import RoutingError, TopologyError
from repro.fabric.builders.generic import build_ring
from repro.fabric.presets import scaled_fattree
from repro.sm.subnet_manager import SubnetManager


@pytest.fixture
def running(small_fattree):
    sm = SubnetManager(
        small_fattree.topology, built=small_fattree, engine="minhop"
    )
    sm.initial_configure(with_discovery=False)
    return sm


class TestSwitchFailure:
    def test_spine_failure_rerouted(self, running):
        topo = running.topology
        spine = next(sw for sw in topo.switches if not sw.is_leaf)
        n_before = topo.num_switches
        report = running.handle_switch_failure(spine)
        assert topo.num_switches == n_before - 1
        assert report.path_compute_seconds > 0
        assert verify_subnet(running).ok

    def test_leaf_failure_rejected(self, running):
        leaf = next(sw for sw in running.topology.switches if sw.is_leaf)
        # Releasing the leaf's LID happens before the HCA check would fire,
        # so pre-check here mirrors real operator flow: removal refuses.
        with pytest.raises(TopologyError):
            running.topology.remove_switch(leaf)

    def test_indices_stay_dense(self, running):
        topo = running.topology
        spine = next(sw for sw in topo.switches if not sw.is_leaf)
        running.handle_switch_failure(spine)
        assert [sw.index for sw in topo.switches] == list(
            range(topo.num_switches)
        )
        assert spine.index == -1

    def test_lid_released(self, running):
        topo = running.topology
        spine = next(sw for sw in topo.switches if not sw.is_leaf)
        lid = spine.lid
        running.handle_switch_failure(spine)
        assert topo.port_of_lid(lid) is None
        assert not running.lid_manager.allocator.is_allocated(lid)

    def test_multiple_spine_failures(self, running):
        topo = running.topology
        for _ in range(3):
            spine = next(sw for sw in topo.switches if not sw.is_leaf)
            running.handle_switch_failure(spine)
        assert verify_subnet(running).ok

    def test_switch_with_bound_extra_lid_rejected(self, running):
        # remove_switch refuses while the switch still holds its LID.
        topo = running.topology
        spine = next(sw for sw in topo.switches if not sw.is_leaf)
        with pytest.raises(TopologyError):
            topo.remove_switch(spine)


class TestSafeSwap:
    def test_safe_swap_costs_more_smps(self, running):
        topo = running.topology
        lid_a = running.lid_manager.assign_extra_lid(topo.hcas[0].port(1))
        lid_b = running.lid_manager.assign_extra_lid(topo.hcas[-1].port(1))
        running.compute_routing()
        running.distribute()
        rec = VSwitchReconfigurer(running)
        n_prime, plain_smps = rec.predict_swap(lid_a, lid_b)
        report = rec.safe_swap_lids(lid_a, lid_b)
        assert report.mode == "safe-swap"
        assert report.switches_updated == n_prime
        # The invalidation phase adds (roughly) one more SMP per switch.
        assert report.lft_smps > plain_smps
        assert report.lft_smps <= 2 * plain_smps

    def test_safe_swap_end_state_matches_plain_swap(self, running):
        topo = running.topology
        lid_a = running.lid_manager.assign_extra_lid(topo.hcas[0].port(1))
        lid_b = running.lid_manager.assign_extra_lid(topo.hcas[-1].port(1))
        running.compute_routing()
        running.distribute()
        rec = VSwitchReconfigurer(running)
        before = {
            sw.name: (sw.route(lid_a), sw.route(lid_b))
            for sw in topo.switches
        }
        rec.safe_swap_lids(lid_a, lid_b)
        for sw in topo.switches:
            pa, pb = before[sw.name]
            assert sw.route(lid_a) == pb
            assert sw.route(lid_b) == pa

    def test_safe_swap_validates_lids(self, running):
        rec = VSwitchReconfigurer(running)
        with pytest.raises(Exception):
            rec.safe_swap_lids(1, 1)


class TestEngineFallback:
    def test_ftree_falls_back_on_ring(self):
        built = build_ring(4, 1)
        sm = SubnetManager(
            built.topology, engine="ftree", fallback_engine="minhop"
        )
        sm.assign_lids()
        tables = sm.compute_routing()
        assert tables.algorithm == "minhop"
        assert tables.metadata["fallback_from"] == "ftree"

    def test_no_fallback_raises(self):
        built = build_ring(4, 1)
        sm = SubnetManager(built.topology, engine="ftree")
        sm.assign_lids()
        with pytest.raises(RoutingError):
            sm.compute_routing()

    def test_fallback_unused_when_primary_works(self, small_fattree):
        sm = SubnetManager(
            small_fattree.topology,
            built=small_fattree,
            engine="ftree",
            fallback_engine="minhop",
        )
        sm.assign_lids()
        tables = sm.compute_routing()
        assert tables.algorithm == "ftree"
        assert "fallback_from" not in tables.metadata
