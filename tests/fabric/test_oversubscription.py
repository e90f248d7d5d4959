"""Tests for oversubscribed and irregular fat-tree variants.

Production fat-trees are rarely fully provisioned; the builders and the
routing/migration stack must handle oversubscription (fewer uplinks than
hosts per leaf), parallel spine cables, and partially-populated leaves.
"""

import pytest

from repro.fabric.builders.fattree import build_two_level_fattree
from repro.sm.routing.base import RoutingRequest
from repro.sm.routing.registry import create_engine
from repro.sm.subnet_manager import SubnetManager, path_computations
from repro.virt.cloud import CloudManager
from repro.workloads.traffic import all_to_all_flows, link_loads
from tests.oracles.delivery import validate
from tests.oracles.terminals import by_switch, endpoints


def routed(built, engine="ftree"):
    sm = SubnetManager(built.topology, built=built, engine=engine)
    sm.initial_configure(with_discovery=False)
    req = RoutingRequest.from_topology(built.topology, built=built)
    return sm, req


class TestOversubscribed:
    def test_2_to_1_builds_and_routes(self):
        # 8 hosts per leaf, 4 uplinks: 2:1 oversubscription on radix 12.
        built = build_two_level_fattree(4, 8, 4, switch_radix=12)
        sm, req = routed(built)
        validate(sm.current_tables, req)

    def test_oversubscription_shows_in_link_loads(self):
        balanced = build_two_level_fattree(4, 4, 4, switch_radix=8)
        oversub = build_two_level_fattree(4, 8, 4, switch_radix=12)
        loads = {}
        for name, built in (("1:1", balanced), ("2:1", oversub)):
            sm, req = routed(built)
            lids = [t.lid for t in endpoints(req)]
            loads[name] = link_loads(
                sm.current_tables, req, all_to_all_flows(lids)
            ).max_load
        # Twice the hosts over the same uplink count: hotter links.
        assert loads["2:1"] > loads["1:1"]

    def test_migration_on_oversubscribed_tree(self):
        built = build_two_level_fattree(4, 8, 4, switch_radix=12)
        cloud = CloudManager(
            built.topology, built=built, lid_scheme="prepopulated", num_vfs=2
        )
        cloud.adopt_all_hcas()
        cloud.bring_up_subnet()
        vm = cloud.boot_vm(on="l0h0")
        computed = path_computations()
        report = cloud.live_migrate(vm.name, "l3h7")
        assert path_computations() == computed
        assert report.reconfig.lft_smps >= 1


class TestParallelSpineCables:
    def test_ftree_spreads_over_parallel_links(self):
        built = build_two_level_fattree(
            2, 4, 2, switch_radix=12, links_per_spine_pair=2
        )
        sm, req = routed(built)
        validate(sm.current_tables, req)
        # A remote leaf should use more than 2 distinct up ports (2 spines
        # x 2 cables available).
        groups = by_switch(req)
        leaf, terms = next(iter(groups.items()))
        other = next(l for l in groups if l != leaf)
        up_ports = {sm.current_tables.port_for(other, t.lid) for t in terms}
        assert len(up_ports) >= 3


class TestPartiallyPopulated:
    def test_empty_leaves_are_fine(self):
        # Hosts only on half the leaves (the rest reserved for growth).
        built = build_two_level_fattree(
            4, 3, 3, switch_radix=8, attach_hosts=False
        )
        topo = built.topology
        for leaf_idx in (0, 1):
            leaf = topo.node(f"leaf{leaf_idx}")
            for i in range(3):
                hca = topo.add_hca(f"h{leaf_idx}_{i}")
                topo.connect(leaf, 1 + i, hca, 1)
        sm, req = routed(built, engine="minhop")
        validate(sm.current_tables, req)
        assert topo.num_hcas == 6
