"""Tests for the channel-dependency-graph deadlock analysis (section VI-C).

An engine's tables are judged by the static rules (CDG001, CDG002,
VLC001) on a snapshot of its port matrix; the CDG oracle's own
transactional semantics are pinned in ``TestCdg``.
"""

import numpy as np
import pytest

from repro.analysis.static import (
    FabricSnapshot,
    check_deadlock_freedom,
    check_transition_deadlock,
)
from repro.analysis.static.checks import _successor_matrices
from repro.errors import DeadlockError
from repro.fabric.builders.generic import build_ring
from repro.fabric.presets import scaled_fattree
from repro.sm.routing.base import RoutingRequest
from repro.sm.routing.cdg_array import dependency_keys
from repro.sm.routing.registry import create_engine
from repro.sm.subnet_manager import SubnetManager
from tests.oracles.cdg import ChannelDependencyGraph
from tests.oracles.terminals import endpoints


def request_for(built):
    sm = SubnetManager(built.topology, built=built)
    sm.assign_lids()
    return RoutingRequest.from_topology(built.topology, built=built)


def snapshot(built, tables, ports=None):
    return FabricSnapshot.from_topology(
        built.topology, tables.ports if ports is None else ports, tables=tables
    )


class TestCdg:
    def test_acyclic_chain(self):
        cdg = ChannelDependencyGraph()
        cdg.add_dependency(((0, 1), (1, 2)))
        cdg.add_dependency(((1, 2), (2, 3)))
        assert cdg.is_acyclic()
        assert cdg.num_channels == 3
        assert cdg.num_dependencies == 2

    def test_cycle_detected(self):
        cdg = ChannelDependencyGraph()
        cdg.add_dependency(((0, 1), (1, 0)))
        cdg.add_dependency(((1, 0), (0, 1)))
        cycle = cdg.find_cycle()
        assert cycle is not None
        assert set(cycle) == {(0, 1), (1, 0)}

    def test_non_consecutive_rejected(self):
        cdg = ChannelDependencyGraph()
        with pytest.raises(DeadlockError):
            cdg.add_dependency(((0, 1), (2, 3)))

    def test_transactional_insert_rolls_back(self):
        cdg = ChannelDependencyGraph()
        assert cdg.try_add_dependencies([((0, 1), (1, 2))])
        deps_before = cdg.num_dependencies
        # This batch closes a cycle: must be rejected atomically.
        bad = [((1, 2), (2, 0)), ((2, 0), (0, 1))]
        assert not cdg.try_add_dependencies(bad)
        assert cdg.num_dependencies == deps_before
        assert cdg.is_acyclic()

    def test_try_add_accepts_duplicates(self):
        cdg = ChannelDependencyGraph()
        dep = ((0, 1), (1, 2))
        assert cdg.try_add_dependencies([dep])
        assert cdg.try_add_dependencies([dep])
        assert cdg.num_dependencies == 1


class TestRoutingDeadlockFreedom:
    def test_updn_is_deadlock_free_everywhere(self):
        for built in [scaled_fattree("2l-small"), build_ring(6, 2)]:
            req = request_for(built)
            tables = create_engine("updn").compute(req)
            snap = snapshot(built, tables)
            assert check_deadlock_freedom(snap, lids=snap.lids) == []

    def test_minhop_on_ring_deadlocks(self):
        # The canonical example: minimal routing around a ring produces a
        # cyclic channel dependency.
        built = build_ring(6, 2)
        tables = create_engine("minhop").compute(request_for(built))
        snap = snapshot(built, tables)
        findings = check_deadlock_freedom(snap, lids=snap.lids)
        assert [f.rule for f in findings] == ["CDG001"]
        assert findings[0].detail["cycle"]

    def test_dfsssp_per_layer_freedom_on_ring(self):
        built = build_ring(6, 2)
        tables = create_engine("dfsssp").compute(request_for(built))
        # DFSSSP's plane gives every destination column one lane.
        assert (tables.lanes == tables.lanes[:1]).all()
        assert check_deadlock_freedom(snapshot(built, tables)) == []

    def test_minhop_terminal_traffic_on_fattree_free(self):
        # Host-to-host traffic in a fat-tree follows up/down paths.
        built = scaled_fattree("2l-small")
        tables = create_engine("minhop").compute(request_for(built))
        assert check_deadlock_freedom(snapshot(built, tables)) == []

    def test_dependencies_terminate_at_delivery(self):
        built = scaled_fattree("2l-small")
        req = request_for(built)
        tables = create_engine("minhop").compute(req)
        snap = snapshot(built, tables)
        lid = endpoints(req)[0].lid
        _, nxt = _successor_matrices(snap, np.array([lid]))
        n = snap.num_switches
        keys = dependency_keys(nxt)
        assert keys.size
        # 2-level fat-tree: longest chains are leaf->spine->leaf, so every
        # dependency's second channel ends at the destination leaf.
        dest = endpoints(req)[0].switch_index
        assert set(((keys % (n * n)) % n).tolist()) == {dest}


class TestTransition:
    def test_identity_transition_free(self):
        built = scaled_fattree("2l-small")
        tables = create_engine("updn").compute(request_for(built))
        snap = snapshot(built, tables)
        assert check_transition_deadlock(snap, snap, lids=snap.lids) == []

    def test_swap_transition_union_checked(self):
        # Swapping two LIDs between leaves mixes old and new entries; the
        # union of dependencies is what decides transition safety
        # (section VI-C). With up/down routing both old and new paths are
        # legal, so the union stays acyclic.
        built = scaled_fattree("2l-small")
        req = request_for(built)
        tables = create_engine("updn").compute(req)
        new = tables.ports.copy()
        a = endpoints(req)[0].lid
        b = endpoints(req)[-1].lid
        new[:, [a, b]] = new[:, [b, a]]
        old_snap = snapshot(built, tables)
        new_snap = snapshot(built, tables, new)
        assert check_transition_deadlock(old_snap, new_snap) == []

    def test_transition_can_deadlock_on_ring(self):
        # Two minhop routings on a ring: each may be cyclic already; the
        # union certainly is — the risk the paper accepts and defers to IB
        # timeouts.
        built = build_ring(6, 2)
        tables = create_engine("minhop").compute(request_for(built))
        snap = snapshot(built, tables)
        findings = check_transition_deadlock(snap, snap, lids=snap.lids)
        assert [f.rule for f in findings] == ["CDG002"]
