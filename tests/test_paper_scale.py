"""Paper-scale smoke tests (marked slow; a few seconds each).

These construct the true Table I instances and verify the counted
quantities at full size — the reproduction's strongest claims are checked
at the paper's own scale, not only on the twins.
"""

import pytest

from repro.core.cost_model import table1_row
from repro.fabric.lft import min_blocks_for_lid_count
from repro.fabric.presets import paper_fattree
from repro.sm.routing.base import RoutingRequest
from repro.sm.routing.registry import create_engine
from repro.sm.subnet_manager import SubnetManager, path_computations
from tests.oracles.delivery import trace_path

pytestmark = pytest.mark.slow


class TestPaperScale324:
    @pytest.fixture(scope="class")
    def routed_324(self):
        built = paper_fattree(324)
        sm = SubnetManager(built.topology, built=built, engine="ftree")
        sm.initial_configure(with_discovery=False)
        return built, sm

    def test_table1_row_from_real_subnet(self, routed_324):
        built, sm = routed_324
        assert sm.lids_consumed == 360
        assert min_blocks_for_lid_count(sm.lids_consumed) == 6
        assert sm.full_reconfigure().lft_smps == 216

    def test_migration_smps_within_bounds(self, routed_324):
        from repro.core.reconfig import VSwitchReconfigurer

        built, sm = routed_324
        topo = built.topology
        lid_a = sm.lid_manager.assign_extra_lid(topo.hcas[0].port(1))
        lid_b = sm.lid_manager.assign_extra_lid(topo.hcas[-1].port(1))
        sm.compute_routing()
        sm.distribute()
        computed = path_computations()
        report = VSwitchReconfigurer(sm).swap_lids(lid_a, lid_b)
        assert 1 <= report.lft_smps <= 2 * 36
        assert path_computations() == computed

    def test_routing_spot_validated(self, routed_324):
        built, sm = routed_324
        request = RoutingRequest.from_topology(built.topology, built=built)
        tables = sm.current_tables
        for src in range(0, request.num_switches, 5):
            for t in request.terminals[::37]:
                trace_path(tables, request, src, t.lid)


class TestPaperScale5832:
    def test_construction_and_counts(self):
        built = paper_fattree(5832)
        topo = built.topology
        assert topo.num_switches == 972
        assert topo.num_hcas == 5832
        sm = SubnetManager(topo, built=built)
        sm.assign_lids()
        assert sm.lids_consumed == 6804
        row = table1_row(5832, 972)
        assert row.min_smps_full_reconfig == 104004
        assert row.max_smps_swap == 1944

    def test_ftree_routes_at_scale(self):
        built = paper_fattree(5832)
        sm = SubnetManager(built.topology, built=built, engine="ftree")
        sm.assign_lids()
        request = RoutingRequest.from_topology(built.topology, built=built)
        tables = create_engine("ftree").timed_compute(request)
        # Spot-check deliveries from every layer of the tree.
        for src in (0, 400, 900):
            for t in request.terminals[::977]:
                trace_path(tables, request, src, t.lid)
        # PCt at this scale stays interactive for the structured engine.
        assert tables.compute_seconds < 30


class TestPaperScale11664Counts:
    def test_arithmetic_only(self):
        # Construction of the largest instance is cheap enough to verify
        # the node/switch counts directly.
        built = paper_fattree(11664, attach_hosts=False)
        assert built.topology.num_switches == 1620
        free_host_ports = sum(
            1
            for sw in built.leaves
            for p in sw.free_ports()
        )
        assert free_host_ports == 11664
