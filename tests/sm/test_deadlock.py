"""Tests for the channel-dependency-graph deadlock analysis (section VI-C)."""

import pytest

from repro.errors import DeadlockError
from repro.fabric.builders.generic import build_ring
from repro.fabric.presets import scaled_fattree
from repro.sm.deadlock import (
    find_cycle,
    is_deadlock_free,
    routing_dependencies,
    transition_is_deadlock_free,
)
from repro.sm.routing.base import RoutingRequest
from repro.sm.routing.registry import create_engine
from repro.sm.subnet_manager import SubnetManager
from tests.oracles.cdg import ChannelDependencyGraph


def request_for(built):
    sm = SubnetManager(built.topology, built=built)
    sm.assign_lids()
    return RoutingRequest.from_topology(built.topology, built=built)


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
            assert is_deadlock_free(tables.ports, req.view)

    def test_minhop_on_ring_deadlocks(self):
        # The canonical example: minimal routing around a ring produces a
        # cyclic channel dependency.
        req = request_for(build_ring(6, 2))
        tables = create_engine("minhop").compute(req)
        assert not is_deadlock_free(tables.ports, req.view)
        assert find_cycle(tables.ports, req.view) is not None

    def test_dfsssp_per_layer_freedom_on_ring(self):
        req = request_for(build_ring(6, 2))
        tables = create_engine("dfsssp").compute(req)
        term_lids = [t.lid for t in req.terminals]
        assert is_deadlock_free(
            tables.ports,
            req.view,
            lid_to_vl=tables.metadata["lid_to_vl"],
            lids=term_lids,
        )

    def test_minhop_terminal_traffic_on_fattree_free(self):
        # Host-to-host traffic in a fat-tree follows up/down paths.
        req = request_for(scaled_fattree("2l-small"))
        tables = create_engine("minhop").compute(req)
        term_lids = [t.lid for t in req.terminals]
        assert is_deadlock_free(tables.ports, req.view, lids=term_lids)

    def test_dependencies_terminate_at_delivery(self):
        req = request_for(scaled_fattree("2l-small"))
        tables = create_engine("minhop").compute(req)
        deps = routing_dependencies(
            tables.ports, req.view, [req.terminals[0].lid]
        )
        # 2-level fat-tree: longest chains are leaf->spine->leaf, so every
        # dependency's second channel ends at the destination leaf.
        dest = req.terminals[0].switch_index
        for (_, b) in deps:
            assert b[1] == dest


class TestTransition:
    def test_identity_transition_free(self):
        req = request_for(scaled_fattree("2l-small"))
        tables = create_engine("updn").compute(req)
        assert transition_is_deadlock_free(
            tables.ports, tables.ports.copy(), req.view
        )

    def test_swap_transition_union_checked(self):
        # Swapping two LIDs between leaves mixes old and new entries; the
        # union of dependencies is what decides transition safety
        # (section VI-C). With up/down routing both old and new paths are
        # legal, so the union stays acyclic.
        req = request_for(scaled_fattree("2l-small"))
        tables = create_engine("updn").compute(req)
        old = tables.ports.copy()
        new = tables.ports.copy()
        a = req.terminals[0].lid
        b = req.terminals[-1].lid
        new[:, [a, b]] = new[:, [b, a]]
        term_lids = [t.lid for t in req.terminals]
        assert transition_is_deadlock_free(old, new, req.view, lids=term_lids)

    def test_transition_can_deadlock_on_ring(self):
        # Two minhop routings on a ring: each may be cyclic already; the
        # union certainly is — the risk the paper accepts and defers to IB
        # timeouts.
        req = request_for(build_ring(6, 2))
        tables = create_engine("minhop").compute(req)
        assert not transition_is_deadlock_free(
            tables.ports, tables.ports.copy(), req.view
        )
