"""The versioned routing cache: warm hits, incremental repair, equivalence.

The acceptance criteria of the incremental-routing work, asserted through
the cache's own counters:

* a warm-cache ``compute_routing`` performs **zero** BFS sweeps;
* after a link failure the repair recomputes strictly fewer than ``n``
  source trees (and more than zero);
* cached / incrementally repaired tables are **byte-identical** to a
  from-scratch computation — including under randomized failure + VM-churn
  sequences (property-based, below).
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.fabric.builders.generic import build_ring
from repro.fabric.graph import all_pairs_switch_distances
from repro.fabric.node import Switch
from repro.fabric.presets import scaled_fattree
from repro.sm.routing.base import RoutingRequest
from repro.sm.routing.cache import RoutingState
from repro.sm.routing.registry import create_engine
from repro.sm.subnet_manager import SubnetManager
from tests.oracles.delivery import trace_path
from tests.oracles.terminals import endpoints, terminals

#: Engines that opt into the shared cache on arbitrary topologies.
CACHED_ENGINES = ("minhop", "updn")


def switch_graph(topology) -> nx.Graph:
    """The inter-switch graph as networkx, for bridge/cut-vertex queries."""
    view = topology.fabric_view()
    g = nx.Graph()
    g.add_nodes_from(range(view.num_switches))
    for s in range(view.num_switches):
        for nb, _ in view.neighbors(s):
            g.add_edge(s, nb)
    return g


def safe_links(topology):
    """Inter-switch cables whose loss cannot partition the switch graph."""
    bridges = set()
    for u, v in nx.bridges(switch_graph(topology)):
        bridges.add((u, v))
        bridges.add((v, u))
    out = []
    for link in topology.links:
        a, b = link.ends
        if isinstance(a.node, Switch) and isinstance(b.node, Switch):
            if (a.node.index, b.node.index) not in bridges:
                out.append(link)
    return out


def safe_switches(topology):
    """Hostless switches whose removal cannot partition the switch graph."""
    cuts = set(nx.articulation_points(switch_graph(topology)))
    hosted = set()
    for link in topology.links:
        a, b = link.ends
        if isinstance(a.node, Switch) != isinstance(b.node, Switch):
            sw = a.node if isinstance(a.node, Switch) else b.node
            hosted.add(sw.index)
    return [
        sw
        for sw in topology.switches
        if sw.index not in cuts and sw.index not in hosted
    ]


def fresh_tables(topology, built, engine: str):
    """From-scratch compute with no cache attached (the reference)."""
    request = RoutingRequest.from_topology(topology, built=built)
    return create_engine(engine).compute(request)


def make_sm(engine: str = "minhop"):
    built = scaled_fattree("2l-small")
    sm = SubnetManager(built.topology, engine=engine, built=built)
    sm.initial_configure(with_discovery=False)
    return built, sm


class TestVersionCounter:
    def test_switch_graph_mutations_bump(self):
        topo = scaled_fattree("2l-small").topology
        v = topo.version
        a = topo.add_switch("vx1", 4)
        b = topo.add_switch("vx2", 4)
        assert topo.version > v
        v = topo.version
        topo.connect(a, 1, b, 1)
        assert topo.version > v
        v = topo.version
        topo.remove_switch(a)
        assert topo.version > v

    def test_hca_cabling_and_lids_do_not_bump(self):
        from repro.fabric.topology import Topology

        topo = Topology()
        sw = topo.add_switch("s0", 4)
        hca = topo.add_hca("h0")
        v = topo.version
        topo.connect(hca, 1, sw, 1)  # HCA cabling: switch graph unchanged
        assert topo.version == v
        sm = SubnetManager(topo)
        sm.assign_lids()
        lid = sm.lid_manager.assign_extra_lid(hca.port(1))
        sm.lid_manager.release_lid(lid)
        assert topo.version == v  # LID churn never bumps

    def test_explicit_invalidation_bumps(self):
        topo = scaled_fattree("2l-small").topology
        v = topo.version
        topo.invalidate_fabric_view()
        assert topo.version > v


class TestWarmCache:
    @pytest.mark.parametrize("engine", ("minhop", "updn", "ftree"))
    def test_second_compute_does_zero_bfs_sweeps(self, engine):
        _, sm = make_sm(engine)
        before = sm.routing_state.stats.snapshot()
        tables = sm.compute_routing()
        delta = sm.routing_state.stats.delta_since(before)
        assert delta["bfs_sweeps"] == 0
        assert delta["misses"] == 0
        assert delta["hits"] > 0
        assert tables is sm.current_tables

    def test_warm_tables_equal_cold_tables(self):
        built, sm = make_sm("minhop")
        cold = sm.current_tables.ports.tobytes()
        warm = sm.compute_routing().ports.tobytes()
        scratch = fresh_tables(built.topology, built, "minhop").ports.tobytes()
        assert cold == warm == scratch

    def test_lid_churn_keeps_cache_warm(self):
        built, sm = make_sm("minhop")
        topo = built.topology
        # VM-churn stand-in: extra LIDs come and go on HCA ports, exactly
        # what boot/shutdown does under the vSwitch schemes.
        port = terminals(topo)[0]
        hca_port = topo.port_of_lid(port.lid)
        extra = sm.lid_manager.assign_extra_lid(hca_port)
        before = sm.routing_state.stats.snapshot()
        sm.compute_routing()
        sm.lid_manager.release_lid(extra)
        sm.compute_routing()
        delta = sm.routing_state.stats.delta_since(before)
        assert delta["bfs_sweeps"] == 0
        assert delta["misses"] == 0

    def test_candidate_table_cached(self):
        _, sm = make_sm("minhop")
        table = sm.routing_state.candidate_table()
        before = sm.routing_state.stats.snapshot()
        sm.compute_routing()
        delta = sm.routing_state.stats.delta_since(before)
        assert delta["candidate_misses"] == 0
        assert delta["candidate_hits"] > 0
        assert sm.routing_state.candidate_table() is table


class TestIncrementalRepair:
    def test_link_failure_repairs_fewer_than_n_sources(self):
        built, sm = make_sm("minhop")
        n = built.topology.num_switches
        link = safe_links(built.topology)[0]
        before = sm.routing_state.stats.snapshot()
        sm.handle_link_failure(link)
        delta = sm.routing_state.stats.delta_since(before)
        assert delta["repairs"] == 1
        assert delta["full_recomputes"] == 0
        assert 0 < delta["sources_repaired"] < n
        assert delta["bfs_sweeps"] == delta["sources_repaired"]

    def test_repaired_tables_byte_identical(self):
        built, sm = make_sm("minhop")
        link = safe_links(built.topology)[0]
        sm.handle_link_failure(link)
        scratch = fresh_tables(built.topology, built, "minhop")
        assert sm.current_tables.ports.tobytes() == scratch.ports.tobytes()

    def test_repaired_matrix_equals_recomputed(self):
        built, sm = make_sm("minhop")
        sm.handle_link_failure(safe_links(built.topology)[0])
        repaired = sm.routing_state.distances()
        full = all_pairs_switch_distances(built.topology.fabric_view())
        assert np.array_equal(repaired, full)

    def test_switch_failure_repairs_incrementally(self):
        built, sm = make_sm("minhop")
        n = built.topology.num_switches
        victim = safe_switches(built.topology)[0]
        before = sm.routing_state.stats.snapshot()
        sm.handle_switch_failure(victim)
        delta = sm.routing_state.stats.delta_since(before)
        assert delta["repairs"] == 1
        assert delta["full_recomputes"] == 0
        assert delta["sources_repaired"] < n
        scratch = fresh_tables(built.topology, built, "minhop")
        assert sm.current_tables.ports.tobytes() == scratch.ports.tobytes()

    def test_consecutive_failures_chain(self):
        built, sm = make_sm("minhop")
        for _ in range(3):
            links = safe_links(built.topology)
            if not links:
                break
            sm.handle_link_failure(links[0])
        scratch = fresh_tables(built.topology, built, "minhop")
        assert sm.current_tables.ports.tobytes() == scratch.ports.tobytes()
        assert sm.routing_state.stats.full_recomputes == 1  # the cold start

    def test_unrecorded_mutation_falls_back_to_full(self):
        built, sm = make_sm("minhop")
        topo = built.topology
        # Bump the version behind the SM's back: no RepairEvent recorded,
        # so the repair chain is broken and the cache must drop the matrix.
        topo.invalidate_fabric_view()
        before = sm.routing_state.stats.snapshot()
        dist = sm.routing_state.distances()
        delta = sm.routing_state.stats.delta_since(before)
        assert delta["full_recomputes"] == 1
        assert np.array_equal(dist, all_pairs_switch_distances(topo.fabric_view()))

    def test_metadata_matrix_is_frozen_snapshot(self):
        built, sm = make_sm("minhop")
        old = sm.current_tables.metadata["switch_distances"]
        old_bytes = old.tobytes()
        sm.handle_link_failure(safe_links(built.topology)[0])
        # The repair must not mutate matrices already handed out.
        assert old.tobytes() == old_bytes


class TestAdditionRepair:
    """Addition-side repair events: links and switches appearing live."""

    @staticmethod
    def _spines_with_free_ports(built):
        return [
            sw
            for sw in built.roots
            if next(sw.free_ports(), None) is not None
        ]

    def test_link_addition_repairs_fewer_than_n_sources(self):
        built, sm = make_sm("minhop")
        topo = built.topology
        n = topo.num_switches
        a, b = self._spines_with_free_ports(built)[:2]
        before = sm.routing_state.stats.snapshot()
        topo.add_link(a, next(a.free_ports()).num, b, next(b.free_ports()).num)
        sm.routing_state.note_link_addition(a.index, b.index)
        dist = sm.routing_state.distances()
        delta = sm.routing_state.stats.delta_since(before)
        assert delta["repairs"] == 1
        assert delta["full_recomputes"] == 0
        assert 0 < delta["sources_repaired"] < n
        assert np.array_equal(
            dist, all_pairs_switch_distances(topo.fabric_view())
        )

    def test_link_addition_tables_byte_identical(self):
        built, sm = make_sm("minhop")
        topo = built.topology
        a, b = self._spines_with_free_ports(built)[:2]
        topo.add_link(a, next(a.free_ports()).num, b, next(b.free_ports()).num)
        sm.routing_state.note_link_addition(a.index, b.index)
        sm.compute_routing()
        scratch = fresh_tables(topo, built, "minhop")
        assert sm.current_tables.ports.tobytes() == scratch.ports.tobytes()
        assert sm.routing_state.stats.full_recomputes == 1  # cold start only

    def test_switch_addition_repairs_incrementally(self):
        built, sm = make_sm("minhop")
        topo = built.topology
        peers = self._spines_with_free_ports(built)[:2]
        sw = topo.add_switch("grown", 4)
        sm.routing_state.note_switch_addition(sw.index)
        for local_port, peer in enumerate(peers, start=1):
            topo.add_link(sw, local_port, peer, next(peer.free_ports()).num)
            sm.routing_state.note_link_addition(sw.index, peer.index)
        before = sm.routing_state.stats.snapshot()
        dist = sm.routing_state.distances()
        delta = sm.routing_state.stats.delta_since(before)
        assert delta["repairs"] == 1
        assert delta["full_recomputes"] == 0
        assert dist.shape == (topo.num_switches, topo.num_switches)
        assert np.array_equal(
            dist, all_pairs_switch_distances(topo.fabric_view())
        )

    def test_restore_after_failure_chains_in_one_sync(self):
        built, sm = make_sm("minhop")
        topo = built.topology
        link = safe_links(topo)[0]
        end_a, end_b = link.ends
        u, v = end_a.node.index, end_b.node.index
        topo.remove_link(link)
        sm.routing_state.note_link_failure(u, v)
        topo.restore_link(link)
        sm.routing_state.note_link_restored(u, v)
        before = sm.routing_state.stats.snapshot()
        dist = sm.routing_state.distances()
        delta = sm.routing_state.stats.delta_since(before)
        assert delta["repairs"] == 1
        assert delta["full_recomputes"] == 0
        assert np.array_equal(
            dist, all_pairs_switch_distances(topo.fabric_view())
        )

    def test_cable_between_two_added_switches_bails_to_full(self):
        built, sm = make_sm("minhop")
        topo = built.topology
        peers = self._spines_with_free_ports(built)[:2]
        added = []
        for i, peer in enumerate(peers):
            sw = topo.add_switch(f"pair{i}", 4)
            sm.routing_state.note_switch_addition(sw.index)
            topo.add_link(sw, 1, peer, next(peer.free_ports()).num)
            sm.routing_state.note_link_addition(sw.index, peer.index)
            added.append(sw)
        # A cable between the two new switches: both columns are still
        # placeholders, so the repair must refuse and recompute fully.
        topo.add_link(added[0], 2, added[1], 2)
        sm.routing_state.note_link_addition(added[0].index, added[1].index)
        before = sm.routing_state.stats.snapshot()
        dist = sm.routing_state.distances()
        delta = sm.routing_state.stats.delta_since(before)
        assert delta["full_recomputes"] == 1
        assert np.array_equal(
            dist, all_pairs_switch_distances(topo.fabric_view())
        )

    def test_remove_added_switch_in_same_chain_bails_to_full(self):
        built, sm = make_sm("minhop")
        topo = built.topology
        peers = self._spines_with_free_ports(built)[:2]
        sw = topo.add_switch("ephemeral", 4)
        sm.routing_state.note_switch_addition(sw.index)
        for local_port, peer in enumerate(peers, start=1):
            topo.add_link(sw, local_port, peer, next(peer.free_ports()).num)
            sm.routing_state.note_link_addition(sw.index, peer.index)
        removed_index = sw.index
        topo.remove_switch(sw)
        sm.routing_state.note_switch_removal(removed_index)
        before = sm.routing_state.stats.snapshot()
        dist = sm.routing_state.distances()
        delta = sm.routing_state.stats.delta_since(before)
        assert delta["full_recomputes"] == 1
        assert np.array_equal(
            dist, all_pairs_switch_distances(topo.fabric_view())
        )

    def test_hca_cabling_records_nothing(self):
        built, sm = make_sm("minhop")
        topo = built.topology
        sm.routing_state.distances()
        hca = topo.add_hca("late-host")
        # Leaves are fully cabled at this profile; any switch with a free
        # port works — HCA cabling never touches the switch graph.
        attach = self._spines_with_free_ports(built)[0]
        v = topo.version
        topo.add_link(hca, 1, attach, next(attach.free_ports()).num)
        sm.routing_state.note_link_addition(-1, attach.index)
        assert topo.version == v  # no bump, and...
        before = sm.routing_state.stats.snapshot()
        sm.routing_state.distances()
        delta = sm.routing_state.stats.delta_since(before)
        assert delta["repairs"] == 0  # ...no event recorded: cache warm
        assert delta["bfs_sweeps"] == 0


class TestTransportSharing:
    def test_transport_uses_shared_state(self):
        _, sm = make_sm("minhop")
        assert sm.transport._distance_source is sm.routing_state

    def test_transport_distances_cost_no_extra_sweeps(self):
        _, sm = make_sm("minhop")
        sm.transport.invalidate_distances()
        before = sm.routing_state.stats.snapshot()
        dist = sm.transport._switch_distances()
        delta = sm.routing_state.stats.delta_since(before)
        assert delta["bfs_sweeps"] == 0
        root = sm.transport._sm_root_switch().index
        assert np.array_equal(dist, sm.routing_state.distances()[root])


class TestRequestCaches:
    def test_trace_path_survives_later_mutations(self):
        built, sm = make_sm("minhop")
        tables = sm.current_tables
        request = sm.last_request
        t = endpoints(request)[0]
        path_before = trace_path(tables, request, 0, t.lid)
        # Mutate the topology after the fact: the old request must keep
        # describing the graph it was computed on.
        built.topology.add_switch("late-switch", 4)
        assert trace_path(tables, request, 0, t.lid) == path_before


class TestObservability:
    def test_span_and_metrics_report_cache_activity(self):
        from repro.obs import get_hub

        _, sm = make_sm("minhop")
        sm.compute_routing()
        exposition = get_hub().metrics.render_prometheus()
        assert "repro_routing_cache_hits_total" in exposition
        assert "repro_routing_bfs_sweeps_total" in exposition
        spans = [s for s in get_hub().all_spans() if s.name == "path_compute"]
        assert spans[-1].attributes.get("cache_hit") is True
        assert spans[-1].attributes.get("bfs_sweeps") == 0

    def test_counters_include_the_repair_discovery_pulled(self):
        """A converge's discovery sweep pulls the repaired distance row
        before the path computation: the ``repro_routing_*`` counters the
        compute publishes still count that repair."""
        from repro.obs import get_hub

        built, sm = make_sm("minhop")
        link = next(
            link for link in built.topology.links
            if isinstance(link.a.node, Switch) and isinstance(link.b.node, Switch)
        )
        metrics = get_hub().metrics
        names = ("repro_routing_cache_repairs_total", "repro_routing_repair_sources_total",
                 "repro_routing_candidate_rows_total")
        before = [metrics.counter(name).value for name in names]
        stats = sm.routing_state.stats.snapshot()
        sm.handle_link_failure(link)
        work = sm.routing_state.stats.delta_since(stats)
        assert work["repairs"] == 1 and work["sources_repaired"] > 0
        assert [metrics.counter(name).value - b for name, b in zip(names, before)] == [
            work["repairs"], work["sources_repaired"], work["candidate_rows"],
        ]


# -- property-based equivalence under random failures + churn -----------------


@pytest.mark.parametrize("engine", CACHED_ENGINES)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_cached_tables_equal_scratch_after_random_churn(engine, data):
    """After any survivable failure/churn sequence, cached == from-scratch."""
    built = scaled_fattree("2l-small")
    topo = built.topology
    sm = SubnetManager(topo, engine=engine, built=built)
    sm.initial_configure(with_discovery=False)
    extra_lids = []

    ops = data.draw(
        st.lists(
            st.sampled_from(
                ["fail_link", "fail_switch", "boot", "stop", "reroute"]
            ),
            min_size=1,
            max_size=6,
        )
    )
    for op in ops:
        if op == "fail_link":
            links = safe_links(topo)
            if not links:
                continue
            link = links[data.draw(st.integers(0, len(links) - 1))]
            sm.handle_link_failure(link)
        elif op == "fail_switch":
            victims = safe_switches(topo)
            if not victims or topo.num_switches <= 4:
                continue
            victim = victims[data.draw(st.integers(0, len(victims) - 1))]
            try:
                sm.handle_switch_failure(victim)
            except TopologyError:
                # Leaf/hosted guard tightened elsewhere; never expected here.
                raise
        elif op == "boot":
            terms = terminals(topo)
            t = terms[data.draw(st.integers(0, len(terms) - 1))]
            port = topo.port_of_lid(t.lid)
            extra_lids.append(sm.lid_manager.assign_extra_lid(port))
        elif op == "stop":
            if not extra_lids:
                continue
            sm.lid_manager.release_lid(extra_lids.pop())
        elif op == "reroute":
            sm.incremental_reroute()

    tables = sm.compute_routing()
    scratch = fresh_tables(topo, built, engine)
    assert tables.ports.tobytes() == scratch.ports.tobytes()


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(0, 2**32 - 1))
def test_ring_link_failures_repair_correctly(seed):
    """Non-tree graphs: repaired distances stay exact on cyclic fabrics."""
    rng = np.random.default_rng(seed)
    built = build_ring(6, 1)
    topo = built.topology
    sm = SubnetManager(topo, engine="minhop", built=built)
    sm.initial_configure(with_discovery=False)
    links = safe_links(topo)
    if links:
        sm.handle_link_failure(links[int(rng.integers(len(links)))])
    assert np.array_equal(
        sm.routing_state.distances(),
        all_pairs_switch_distances(topo.fabric_view()),
    )
