"""Tests for the subnet verification audit."""

import pytest

from repro.analysis.static import FabricSnapshot
from repro.analysis.verification import (
    verify_delivery,
    verify_sm_consistency,
    verify_subnet,
)
from repro.constants import LFT_UNSET
from repro.core.reconfig import VSwitchReconfigurer
from repro.errors import ReproError, StaticAnalysisError, TopologyError
from repro.fabric.node import Switch
from repro.fabric.presets import scaled_fattree
from repro.sm.routing.base import RoutingTables
from repro.sm.subnet_manager import SubnetManager
from tests.conftest import make_cloud


@pytest.fixture
def healthy_sm(small_fattree):
    sm = SubnetManager(small_fattree.topology, built=small_fattree)
    sm.initial_configure(with_discovery=False)
    return sm


# -- the corruptions of one healthy 2l-small subnet -------------------------
# Each takes the SM, breaks the hardware LFTs and returns the victim LID.
# tests/analysis/test_audit_equivalence.py replays them against the walker.


def nonsense_port(sm):
    victim = sm.topology.bound_lids()[-1]
    sm.topology.set_lft(3, victim, 33)
    return victim


def unprogrammed(sm):
    victim = sm.topology.bound_lids()[-1]
    sm.topology.set_lft(0, victim, LFT_UNSET)
    return victim


def leaf_spine_loop(sm):
    # Spines are not directly cabled in a 2-level tree, so point a leaf
    # and a spine at each other for one LID.
    topo = sm.topology
    victim = topo.bound_lids()[-1]
    spine, leaf = topo.switches[0], topo.switches[6]
    port_to_spine = next(
        p.num for p in leaf.connected_ports() if p.remote.node is spine
    )
    port_to_leaf = next(
        p.num for p in spine.connected_ports() if p.remote.node is leaf
    )
    topo.set_lft(leaf.index, victim, port_to_spine)
    topo.set_lft(spine.index, victim, port_to_leaf)
    return victim


def sm_divergence(sm):
    sw = sm.topology.switches[2]
    victim = sm.topology.bound_lids()[0]
    recorded = sm.current_tables.port_for(sw.index, victim)
    sm.topology.set_lft(sw.index, victim, recorded % 30 + 1)  # some other port, always
    return victim


DELIVERY_CORRUPTIONS = (nonsense_port, unprogrammed, leaf_spine_loop)


class TestHealthySubnet:
    def test_clean_audit(self, healthy_sm):
        report = verify_subnet(healthy_sm)
        assert report.ok
        assert report.lids_checked == healthy_sm.lids_consumed
        report.raise_if_failed()  # no-op

    def test_one_snapshot_and_no_cell_lookups(self, healthy_sm, monkeypatch):
        # The audit reads the hardware once, into arrays: one snapshot, and
        # not a single per-cell LFT / routing-table lookup.
        calls = {"snapshot": 0, "route": 0, "port_for": 0}

        def counting(name, wrapped):
            def call(*args, **kwargs):
                calls[name] += 1
                return wrapped(*args, **kwargs)

            return call

        monkeypatch.setattr(
            FabricSnapshot,
            "from_topology",
            classmethod(
                counting("snapshot", FabricSnapshot.from_topology.__func__)
            ),
        )
        monkeypatch.setattr(Switch, "route", counting("route", Switch.route))
        monkeypatch.setattr(
            RoutingTables, "port_for", counting("port_for", RoutingTables.port_for)
        )
        assert verify_subnet(healthy_sm).ok
        assert calls == {"snapshot": 1, "route": 0, "port_for": 0}

    def test_after_migrations_still_ok(self, small_fattree):
        cloud = make_cloud(small_fattree, num_vfs=3)
        vm = cloud.boot_vm(on="l0h0")
        cloud.live_migrate(vm.name, "l4h4")
        cloud.live_migrate(vm.name, "l2h1")
        assert verify_subnet(cloud.sm).ok


class TestDetection:
    def test_detects_corrupted_entry(self, healthy_sm):
        victim = nonsense_port(healthy_sm)
        report = verify_subnet(healthy_sm)
        assert not report.ok
        # Reported once, as a finding — and once more as the divergence
        # from the recorded tables it also is; never as a walker string.
        assert [f.rule for f in report.findings] == ["LFT003"]
        assert len(report.failures) == 1 and f"LID {victim} " in report.failures[0]
        with pytest.raises(StaticAnalysisError) as raised:
            report.raise_if_failed()
        assert isinstance(raised.value, ReproError)

    def test_detects_unprogrammed_entry(self, healthy_sm):
        victim = unprogrammed(healthy_sm)
        report = verify_delivery(healthy_sm.topology)
        assert not report.ok and not report.failures
        assert [(f.rule, f.lid) for f in report.findings] == [("LFT002", victim)]

    def test_detects_loop(self, healthy_sm):
        victim = leaf_spine_loop(healthy_sm)
        report = verify_delivery(healthy_sm.topology)
        (finding,) = report.findings
        assert finding.rule == "LFT001" and finding.lid == victim
        assert set(finding.detail["cycle"]) == {0, 6}

    def test_detects_sm_divergence(self, healthy_sm):
        victim = sm_divergence(healthy_sm)
        report = verify_sm_consistency(healthy_sm, static=False)
        assert not report.ok and not report.findings
        (failure,) = report.failures
        assert failure.startswith(f"LID {victim} at {healthy_sm.topology.switches[2].name}")

    def test_unattached_lid_is_a_topology_error(self, healthy_sm):
        topo = healthy_sm.topology
        topo.remove_link(topo.hcas[0].port(1).link)
        with pytest.raises(TopologyError):
            verify_subnet(healthy_sm)

    def test_no_recorded_routing(self, small_fattree):
        sm = SubnetManager(small_fattree.topology, built=small_fattree)
        report = verify_sm_consistency(sm)
        assert not report.ok

    def test_reconfigurer_keeps_audit_green(self, healthy_sm):
        topo = healthy_sm.topology
        lid_a = healthy_sm.lid_manager.assign_extra_lid(topo.hcas[0].port(1))
        lid_b = healthy_sm.lid_manager.assign_extra_lid(topo.hcas[-1].port(1))
        healthy_sm.compute_routing()
        healthy_sm.distribute()
        VSwitchReconfigurer(healthy_sm).swap_lids(lid_a, lid_b)
        # The registry must be updated too for delivery to verify: swap
        # means the LIDs exchanged attachment points.
        healthy_sm.lid_manager.move_lid(lid_a, topo.hcas[-1].port(1))
        healthy_sm.lid_manager.move_lid(lid_b, topo.hcas[0].port(1))
        assert verify_subnet(healthy_sm).ok
