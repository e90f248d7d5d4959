"""Tests for discovery, LID management, LFT distribution and the SM flows."""

import pytest

from repro.errors import AddressingError, RoutingError, TopologyError
from repro.fabric.builders.generic import build_single_switch
from repro.fabric.presets import paper_fattree, scaled_fattree
from repro.fabric.lft import min_blocks_for_lid_count
from repro.mad.transport import SmpTransport
from repro.sm.discovery import discover_subnet
from repro.sm.lid_manager import LidManager
from repro.sm.subnet_manager import SubnetManager


class TestDiscovery:
    def test_finds_everything(self, small_fattree):
        topo = small_fattree.topology
        report = discover_subnet(topo, SmpTransport(topo))
        assert len(report.switches) == topo.num_switches
        assert len(report.hcas) == topo.num_hcas
        assert report.num_nodes == topo.num_switches + topo.num_hcas

    def test_smp_cost_accounted(self, single_switch):
        topo = single_switch.topology
        tr = SmpTransport(topo)
        report = discover_subnet(topo, tr)
        # One NodeInfo per node plus one PortInfo per connected port.
        nodes = topo.num_switches + topo.num_hcas
        ports = 2 * len(topo.links)
        assert report.smps_sent == nodes + ports
        assert tr.stats.total_smps == report.smps_sent
        assert report.serial_time > 0


class TestPaper648Pins:
    """SMP counts and sim seconds of the paper's 648-node bring-up, as the
    packet-by-packet transport produced them — bit for bit, because runs
    must accumulate their float sums in the same order."""

    def test_discovery_and_full_distribution(self):
        built = paper_fattree(648)
        sm = SubnetManager(built.topology, engine="ftree", built=built)
        discovery = sm.initial_configure(with_discovery=True).discovery
        assert discovery.smps_sent == 3294
        assert discovery.serial_time == 0.004662899999999945
        assert discovery.switches == sorted(s.name for s in built.topology.switches)
        assert discovery.hcas == sorted(h.name for h in built.topology.hcas)
        assert (len(discovery.switches), len(discovery.hcas)) == (54, 648)

        full = sm.distribute(force_full=True)
        assert (full.smps_sent, full.switches_updated) == (594, 54)
        assert full.blocks_per_switch == {
            s.name: 11 for s in built.topology.switches
        }
        assert full.serial_time == 0.0007028999999998901
        assert full.pipelined_time == 8.786249999998626e-05

        stats = sm.transport.stats
        assert (stats.total_smps, stats.total_hops) == (4482, 13486)
        assert stats.serial_time == float.fromhex("0x1.8db7e4077be17p-8")
        assert stats.max_latency == float.fromhex("0x1.e32f0ee144531p-20")


class TestLidManager:
    def test_base_assignment_switches_first(self, small_fattree):
        topo = small_fattree.topology
        lm = LidManager(topo)
        result = lm.assign_base_lids()
        assert len(result) == topo.num_switches + topo.num_hcas
        # Switch LIDs all precede HCA LIDs.
        max_switch = max(sw.lid for sw in topo.switches)
        min_hca = min(h.lid for h in topo.hcas)
        assert max_switch < min_hca

    def test_idempotent(self, small_fattree):
        topo = small_fattree.topology
        lm = LidManager(topo)
        first = lm.assign_base_lids()
        second = lm.assign_base_lids()
        assert first == second
        assert lm.lids_consumed == len(first)

    def test_extra_lid_on_port(self, small_fattree):
        topo = small_fattree.topology
        lm = LidManager(topo)
        lm.assign_base_lids()
        port = topo.hcas[0].port(1)
        extra = lm.assign_extra_lid(port)
        assert topo.port_of_lid(extra) is port
        assert sorted(lm.lids_on_port(port)) == sorted([port.lid, extra])

    def test_lids_by_port_groups_the_whole_registry(self, small_fattree):
        topo = small_fattree.topology
        lm = LidManager(topo)
        lm.assign_base_lids()
        for host in topo.hcas[:3]:
            lm.assign_extra_lid(host.port(1), lid=100 - host.port(1).lid)
        groups = lm.lids_by_port()
        assert sorted(lid for lids in groups.values() for lid in lids) == topo.bound_lids()
        for port, lids in groups.items():
            assert lids == sorted(lids)
            assert lids == lm.lids_on_port(port)
            assert all(topo.port_of_lid(lid) is port for lid in lids)
        assert lm.lids_on_port(topo.switches[0].port(1)) == []

    def test_extra_specific_lid(self, small_fattree):
        topo = small_fattree.topology
        lm = LidManager(topo)
        port = topo.hcas[0].port(1)
        assert lm.assign_extra_lid(port, lid=500) == 500

    def test_extra_lid_rollback_on_bind_failure(self, small_fattree):
        topo = small_fattree.topology
        lm = LidManager(topo)
        port = topo.hcas[0].port(1)
        lm.assign_extra_lid(port, lid=500)
        other = topo.hcas[1].port(1)
        # Binding fails (LID taken in topology registry); allocator must
        # not leak... assign() raises first because the allocator owns it.
        with pytest.raises(AddressingError):
            lm.assign_extra_lid(other, lid=500)

    def test_release(self, small_fattree):
        topo = small_fattree.topology
        lm = LidManager(topo)
        port = topo.hcas[0].port(1)
        lid = lm.assign_extra_lid(port)
        lm.release_lid(lid)
        assert topo.port_of_lid(lid) is None
        assert not lm.allocator.is_allocated(lid)

    def test_move_lid(self, small_fattree):
        topo = small_fattree.topology
        lm = LidManager(topo)
        a, b = topo.hcas[0].port(1), topo.hcas[1].port(1)
        lid = lm.assign_extra_lid(a)
        lm.move_lid(lid, b)
        assert topo.port_of_lid(lid) is b
        assert lm.allocator.is_allocated(lid)  # still owned


class TestDistribution:
    def test_initial_distribution_programs_all_switches(self, small_fattree):
        sm = SubnetManager(small_fattree.topology, built=small_fattree)
        report = sm.initial_configure(with_discovery=False)
        topo = small_fattree.topology
        assert report.distribution.switches_updated == topo.num_switches
        m = min_blocks_for_lid_count(sm.lids_consumed)
        assert report.lft_smps == topo.num_switches * m

    def test_second_distribution_is_noop(self, small_fattree):
        sm = SubnetManager(small_fattree.topology, built=small_fattree)
        sm.initial_configure(with_discovery=False)
        report = sm.incremental_reroute()
        assert report.lft_smps == 0  # nothing changed

    def test_full_reconfigure_resends_everything(self, small_fattree):
        sm = SubnetManager(small_fattree.topology, built=small_fattree)
        sm.initial_configure(with_discovery=False)
        report = sm.full_reconfigure()
        topo = small_fattree.topology
        m = min_blocks_for_lid_count(sm.lids_consumed)
        assert report.lft_smps == topo.num_switches * m

    def test_pipelined_not_slower_than_serial(self, small_fattree):
        sm = SubnetManager(small_fattree.topology, built=small_fattree)
        report = sm.initial_configure(with_discovery=False)
        assert (
            report.total_seconds_pipelined <= report.total_seconds_serial
        )

    def test_switch_lfts_match_tables(self, small_fattree):
        sm = SubnetManager(small_fattree.topology, built=small_fattree)
        sm.initial_configure(with_discovery=False)
        tables = sm.current_tables
        for sw in small_fattree.topology.switches:
            for lid in small_fattree.topology.bound_lids():
                assert sw.route(lid) == tables.port_for(sw.index, lid)


class TestSubnetManagerFlows:
    def test_distribute_before_compute_rejected(self, small_fattree):
        sm = SubnetManager(small_fattree.topology, built=small_fattree)
        with pytest.raises(RoutingError):
            sm.distribute()

    def test_engine_by_name_or_instance(self, small_fattree):
        from repro.sm.routing.minhop import MinHopRouting

        sm1 = SubnetManager(small_fattree.topology, engine="ftree")
        assert sm1.engine.name == "ftree"
        sm2 = SubnetManager(
            small_fattree.topology, engine=MinHopRouting("least-loaded")
        )
        assert sm2.engine.balance == "least-loaded"

    def test_compute_without_lids_rejected(self, small_fattree):
        sm = SubnetManager(small_fattree.topology, built=small_fattree)
        with pytest.raises(RoutingError):
            sm.compute_routing()

    def test_discovery_in_initial_configure(self, single_switch):
        sm = SubnetManager(single_switch.topology, built=single_switch)
        report = sm.initial_configure(with_discovery=True)
        assert report.discovery is not None
        assert report.discovery.num_nodes == 5

    def test_counts(self, small_fattree):
        sm = SubnetManager(small_fattree.topology, built=small_fattree)
        sm.initial_configure(with_discovery=False)
        topo = small_fattree.topology
        assert sm.num_switches == topo.num_switches
        assert sm.lids_consumed == topo.num_switches + topo.num_hcas

    def test_pct_recorded(self, small_fattree):
        sm = SubnetManager(small_fattree.topology, built=small_fattree)
        report = sm.initial_configure(with_discovery=False)
        assert report.path_compute_seconds > 0
        assert (
            report.total_seconds_serial
            == report.path_compute_seconds + report.distribution.serial_time
        )
