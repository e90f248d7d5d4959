"""MinHop's kept table fill beside the candidate table.

The routing state keeps MinHop's last ``ports`` matrix and, under an
unchanged shape, refills only the LID columns whose destination switch or
exit port moved, then re-gathers the LID columns of the repaired
destination planes and the rows the candidate-table repair rebuilt. These
tests pin what the ``path_compute`` span reports for each path, the
fill-cell count of a repair, the read-only candidate table, and the
inputs a version counter cannot see: a re-cabled HCA, a migrated LID and
an in-place edit of the tables handed out.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fabric.lft import apply_column_op
from repro.fabric.presets import scaled_fattree
from repro.fabric.topology import TopologyMutation
from repro.obs import get_hub
from repro.sm.routing.base import RoutingRequest
from repro.sm.routing.registry import create_engine
from repro.sm.subnet_manager import SubnetManager


def make_sm():
    built = scaled_fattree("2l-small")
    sm = SubnetManager(built.topology, engine="minhop", built=built)
    sm.initial_configure(with_discovery=False)
    return sm


def last_fill(sm):
    """``(candidate, fill, fill_cells)`` of the latest path computation."""
    spans = [s for s in get_hub().all_spans() if s.name == "path_compute"]
    attrs = spans[-1].attributes
    return attrs["candidate"], attrs["fill"], attrs["fill_cells"]


def assert_equals_fresh(sm):
    request = RoutingRequest.from_topology(sm.topology, built=sm.built)
    cold = create_engine("minhop").compute(request)
    assert sm.current_tables.ports.tobytes() == cold.ports.tobytes()


def leaf_spine_link(sm):
    return next(
        link
        for link in sm.topology.links
        if {link.a.node.name[:4], link.b.node.name[:4]} == {"leaf", "spin"}
    )


def refill_cells(sm, before, link_ends):
    """Cells a refill gathers: every row of the LID columns whose
    destination row of the distance matrix changed, plus every LID of
    the cable's two end rows."""
    after = sm.routing_state.distances()
    changed = np.flatnonzero((before != after).any(axis=1))
    lids, dests = sm.last_request.lid_arrays()
    moved_lids = int(np.isin(dests, changed).sum())
    return after.shape[0] * moved_lids + len(link_ends) * len(lids)


class TestSpanReportsTheFillPath:
    def test_cold_compute_builds_and_fills_everything(self):
        sm = make_sm()
        lids, _ = sm.last_request.lid_arrays()
        assert last_fill(sm) == ("rebuilt", "full", 12 * len(lids))

    def test_unchanged_graph_keeps_table_and_fill(self):
        sm = make_sm()
        before = sm.routing_state.stats.snapshot()
        sm.full_reconfigure()
        assert last_fill(sm) == ("kept", "kept", 0)
        assert sm.routing_state.stats.delta_since(before)["fill_cells"] == 0
        assert_equals_fresh(sm)

    def test_switch_removal_rebuilds_and_fills_everything(self):
        sm = make_sm()
        sm.handle_switch_failure(sm.topology.node("spine0"))
        lids, _ = sm.last_request.lid_arrays()
        assert last_fill(sm) == ("rebuilt", "full", 11 * len(lids))
        assert_equals_fresh(sm)

    def test_link_flap_repairs_and_refills_the_moved_cells(self):
        sm = make_sm()
        link = leaf_spine_link(sm)
        ends = (link.a.node.index, link.b.node.index)
        a, pa, b, pb = link.a.node.name, link.a.num, link.b.node.name, link.b.num
        before = sm.routing_state.distances()
        stats = sm.routing_state.stats.snapshot()
        sm.handle_link_failure(link)
        expected = refill_cells(sm, before, ends)
        assert last_fill(sm) == ("repaired", "refill", expected)
        assert sm.routing_state.stats.delta_since(stats)["fill_cells"] == expected
        assert_equals_fresh(sm)

        before = sm.routing_state.distances()
        sm.handle_topology_change(
            TopologyMutation(kind="restore_link", a=a, port_a=pa, b=b, port_b=pb),
            verify=False,
        )
        assert last_fill(sm) == ("repaired", "refill", refill_cells(sm, before, ends))
        assert_equals_fresh(sm)


class TestFillInputsWithoutAVersion:
    def test_recabled_hca_refills_its_lid_columns(self):
        """A re-cabled HCA moves its LIDs' exit port: their columns are
        refilled whole, on every switch, and nothing else."""
        sm = make_sm()
        link = leaf_spine_link(sm)
        leaf = link.a.node if link.a.node.name.startswith("leaf") else link.b.node
        sm.handle_link_failure(link)  # frees a port on the leaf
        hca = leaf.attached_hcas()[0]
        free = next(leaf.free_ports()).num
        sm.topology.remove_link(hca.port(1).link)
        sm.topology.connect(hca, 1, leaf, free)
        version = sm.topology.version
        sm.compute_routing()
        assert sm.topology.version == version
        moved = [lid for lid in sm.topology.bound_lids()
                 if sm.topology.port_of_lid(lid).node is hca]
        assert last_fill(sm) == ("kept", "refill", sm.topology.num_switches * len(moved))
        assert_equals_fresh(sm)

    def test_migrated_lid_refills_its_column(self):
        """A LID re-bound to another leaf's host changes its destination
        switch: the kept fill survives, with that one column refilled."""
        sm = make_sm()
        topo = sm.topology
        hosts = [t.hca_port for t in topo.terminals()]
        far = next(p for p in hosts if p.remote.node is not hosts[0].remote.node)
        lid = sm.lid_manager.assign_extra_lid(hosts[0])
        sm.compute_routing()
        topo.rebind_lid(lid, far)
        sm.compute_routing()
        assert last_fill(sm) == ("kept", "refill", topo.num_switches)
        assert_equals_fresh(sm)
        # Releasing the top LID narrows the tables: a new shape, a full fill.
        sm.lid_manager.release_lid(lid)
        sm.compute_routing()
        assert last_fill(sm)[:2] == ("kept", "full")
        assert_equals_fresh(sm)

    def test_in_place_edit_of_the_last_tables_does_not_leak(self):
        sm = make_sm()
        edited = sm.current_tables
        lid_a, lid_b = sm.last_request.lid_arrays()[0][[0, -1]]
        op = {"op": "swap", "lid_a": int(lid_a), "lid_b": int(lid_b), "switches": None}
        assert apply_column_op(edited.ports, op) is edited.ports
        sm.compute_routing()
        assert last_fill(sm) == ("kept", "kept", 0)
        assert_equals_fresh(sm)
        assert not (sm.current_tables.ports == edited.ports).all()

    def test_kept_fill_is_never_handed_out(self):
        sm = make_sm()
        sm.full_reconfigure()
        kept = sm.routing_state._kept_fill
        tables = sm.current_tables
        assert kept is not None
        assert not np.shares_memory(tables.ports, kept)
        for value in tables.metadata.values():
            if isinstance(value, np.ndarray):
                assert not np.shares_memory(value, kept)


def test_candidate_table_is_read_only():
    sm = make_sm()
    cand, cnt = sm.routing_state.candidate_table()
    with pytest.raises(ValueError):
        cand[0, 0, 0] = 1
    with pytest.raises(ValueError):
        cnt[0, 0] = 1
    # ... while repairs still patch the arrays behind the views.
    sm.handle_link_failure(leaf_spine_link(sm))
    assert sm.routing_state.candidate_table()[0] is cand
    assert_equals_fresh(sm)
