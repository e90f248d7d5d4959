"""The equal-cost candidate table: one kernel, kept and repaired like the
distance matrix.

* the kernel (:func:`repro.fabric.graph.candidate_table`) against the
  per-destination oracle — candidates in CSR row order, pad cells and
  counts all compared;
* the live table of a :class:`~repro.sm.routing.cache.RoutingState`
  after random mutation chains against one built from scratch, and the
  tables routed from it against a cold compute, byte for byte;
* the pitfalls by name: cable-end rows, degree shrink / grow, ``noop``
  events, the table never leaving the cache;
* structurally: a warm compute builds no row, a cable failure builds
  only the re-swept planes and the two end rows;
* ftree's distance columns, swept or derived from the neighbours',
  against the BFS columns.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.static.suite import preset_builders
from repro.constants import LFT_UNSET
from repro.errors import RoutingError, TopologyError
from repro.fabric.builders.fattree import BuiltTopology
from repro.fabric.builders.generic import build_random_regular, build_ring
from repro.fabric import graph as graph_module
from repro.fabric.graph import (
    all_pairs_switch_distances,
    bfs_distances,
    candidate_table,
)
from repro.fabric.presets import scaled_fattree
from repro.fabric.topology import SwitchFabricView, Topology, TopologyMutation
from repro.obs import get_hub
from repro.sm.routing import cache as cache_module
from repro.sm.routing.base import RoutingRequest
from repro.sm.routing.cache import RepairEvent, RoutingState
from repro.sm.routing.fattree import FatTreeRouting
from repro.sm.routing.registry import create_engine
from repro.sm.subnet_manager import SubnetManager
from tests.oracles.candidates import equal_cost_candidates
from tests.oracles.terminals import attachments, terminals
from tests.sm.test_mutation_properties import plan_op

PRESETS = sorted(set(preset_builders()) - {"paper-5832"})

#: Fabrics of the mutation chains: a builder, and whether ftree routes it.
CHAIN_FABRICS = {
    "2l-small": (lambda: scaled_fattree("2l-small"), True),
    "3l-small": (lambda: scaled_fattree("3l-small"), True),
    "ring6": (lambda: build_ring(6, 1, switch_radix=5), False),
}


def oracle_table(view, cols):
    """The kernel's answer assembled from the one-destination oracle."""
    n, k = cols.shape
    width = max(int(np.diff(view.indptr).max(initial=0)), 1)
    cand = np.full((n, k, width), LFT_UNSET, dtype=np.uint8)
    cnt = np.zeros((n, k), dtype=np.uint8)
    for j in range(k):
        ports, counts = equal_cost_candidates(view, cols[:, j])
        assert (ports >= 0).sum(axis=1).tolist() == counts.tolist()
        cand[:, j, : ports.shape[1]] = np.where(ports < 0, LFT_UNSET, ports)
        cnt[:, j] = counts
    return cand, cnt


def scratch_table(topology):
    view = topology.fabric_view()
    return candidate_table(view, all_pairs_switch_distances(view))


def assert_same_table(live, fresh):
    """Equal cell for cell; a live table may be wider than a fresh one
    (it keeps its width when the maximum degree shrinks) but only by
    pad cells."""
    (cand, cnt), (ref_cand, ref_cnt) = live, fresh
    width = ref_cand.shape[2]
    assert np.array_equal(cnt, ref_cnt)
    assert np.array_equal(cand[..., :width], ref_cand)
    assert (cand[..., width:] == LFT_UNSET).all()


def cold_ports(sm):
    """A stateless cold compute with the engine the SM settled on."""
    request = RoutingRequest.from_topology(sm.topology, built=sm.built)
    return create_engine(sm.current_tables.algorithm).compute(request).ports


def configured(built, engine="minhop"):
    sm = SubnetManager(
        built.topology, engine=engine, built=built, fallback_engine="minhop"
    )
    sm.initial_configure(with_discovery=False)
    return sm


def link_mutation(kind, a, port_a, b, port_b):
    return TopologyMutation(
        kind=kind, a=a.name, port_a=port_a, b=b.name, port_b=port_b
    )


# -- (i) kernel vs oracle ------------------------------------------------------


#: The kernel's batch sizings: as for real fabrics, one switch a batch
#: (the path a big fabric's every-destination build takes), every switch
#: in one batch.
BATCHINGS = {
    "default": (graph_module._CANDIDATE_BATCH_CELLS, graph_module._CANDIDATE_BATCH_MIN),
    "switch-a-batch": (1, 8),
    "one-batch": (1 << 40, 1),
}


@contextmanager
def batched(name):
    old = graph_module._CANDIDATE_BATCH_CELLS, graph_module._CANDIDATE_BATCH_MIN
    graph_module._CANDIDATE_BATCH_CELLS, graph_module._CANDIDATE_BATCH_MIN = BATCHINGS[name]
    try:
        yield
    finally:
        graph_module._CANDIDATE_BATCH_CELLS, graph_module._CANDIDATE_BATCH_MIN = old


@pytest.fixture(params=sorted(BATCHINGS))
def batching(request):
    with batched(request.param):
        yield


@pytest.mark.parametrize("preset", PRESETS)
def test_kernel_matches_oracle_on_presets(preset):
    view = preset_builders()[preset]().topology.fabric_view()
    dist = all_pairs_switch_distances(view)
    ref_cand, ref_cnt = oracle_table(view, dist)
    some = list(range(0, view.num_switches, 3))
    for name in sorted(BATCHINGS):
        with batched(name):
            cand, cnt = candidate_table(view, dist)
            # A partial build is the same rows, at the same width.
            part_cand, part_cnt = candidate_table(view, dist[:, ::2], switches=some)
        assert cand.dtype == cnt.dtype == np.uint8
        assert np.array_equal(cnt, ref_cnt), name
        assert np.array_equal(cand, ref_cand), name
        assert np.array_equal(part_cand, ref_cand[some][:, ::2]), name
        assert np.array_equal(part_cnt, ref_cnt[some][:, ::2]), name


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(4, 14),
    degree=st.integers(2, 5),
    seed=st.integers(0, 2**16),
)
def test_kernel_matches_oracle_on_random_regular(n, degree, seed):
    degree = min(degree, n - 1)
    if n * degree % 2:
        n += 1
    view = build_random_regular(n, degree, 0, seed=seed).topology.fabric_view()
    dist = all_pairs_switch_distances(view)
    ref_cand, ref_cnt = oracle_table(view, dist)
    for name in sorted(BATCHINGS):
        with batched(name):
            cand, cnt = candidate_table(view, dist)
        assert np.array_equal(cnt, ref_cnt), name
        assert np.array_equal(cand, ref_cand), name


def test_switches_without_cables_in_a_batch(batching):
    """Islands at the head, middle and tail of the switch order, and a
    batch of islands only: no candidates, and the cabled switches' ranks
    still restart per switch."""
    view = SwitchFabricView(
        num_switches=5,
        indptr=np.array([0, 0, 2, 2, 4, 4]),
        peer=np.array([3, 3, 1, 1], dtype=np.int32),
        out_port=np.array([1, 2, 3, 4], dtype=np.int32),
        in_port=np.array([3, 4, 1, 2], dtype=np.int32),
        link_latency=np.zeros(4),
    )
    dist = all_pairs_switch_distances(view)
    ref_cand, ref_cnt = oracle_table(view, dist)
    for rows in ([0, 1, 2, 3, 4], [0, 1, 2], [4, 3, 0, 1], [0, 2, 4], []):
        cand, cnt = candidate_table(view, dist, switches=rows)
        assert np.array_equal(cnt, ref_cnt[rows])
        assert np.array_equal(cand, ref_cand[rows])
    assert candidate_table(view, dist)[1][1, 3] == 2  # the parallel pair


def test_unreachable_and_own_cells_have_no_candidates():
    # Two cabled switches and an island: columns toward the island, and
    # the island's own row, stay empty.
    view = SwitchFabricView(
        num_switches=3,
        indptr=np.array([0, 1, 2, 2]),
        peer=np.array([1, 0], dtype=np.int32),
        out_port=np.array([1, 1], dtype=np.int32),
        in_port=np.array([1, 1], dtype=np.int32),
        link_latency=np.zeros(2),
    )
    dist = all_pairs_switch_distances(view)
    cand, cnt = candidate_table(view, dist)
    assert cnt.tolist() == [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    assert cand[0, 1, 0] == 1 and cand[1, 0, 0] == 1
    assert (cand[cnt == 0] == LFT_UNSET).all()


def test_port_beyond_uint8_is_a_routing_error():
    view = SwitchFabricView(
        num_switches=2,
        indptr=np.array([0, 1, 2]),
        peer=np.array([1, 0], dtype=np.int32),
        out_port=np.array([LFT_UNSET, 1], dtype=np.int32),
        in_port=np.array([1, LFT_UNSET], dtype=np.int32),
        link_latency=np.zeros(2),
    )
    with pytest.raises(RoutingError):
        candidate_table(view, all_pairs_switch_distances(view))


@pytest.mark.parametrize("preset", ("2l-small", "ring6", "torus4x4"))
def test_minhop_picks_csr_order_candidate_lid_mod_count(preset):
    """``ports[s, lid]`` is the ``lid % count``-th equal-cost port in the
    switch's CSR row order — never sorted, never load-based."""
    built = preset_builders()[preset]()
    sm = configured(built)
    view = built.topology.fabric_view()
    dist = all_pairs_switch_distances(view)
    ports = sm.current_tables.ports
    groups = {}
    for lid, (dest_sw, _) in attachments(built.topology).items():
        groups.setdefault(dest_sw, []).append(lid)
    for dest_sw, lids in groups.items():
        cand, counts = equal_cost_candidates(view, dist[:, dest_sw])
        for s in range(view.num_switches):
            if s == dest_sw:
                continue
            for lid in lids:
                assert ports[s, lid] == cand[s, lid % counts[s]]


@settings(max_examples=15, deadline=None)
@given(profile=st.sampled_from(("2l-small", "3l-small")), cuts=st.data())
def test_ftree_columns_equal_bfs_columns(profile, cuts):
    """ftree sweeps only the upper switches with a neighbour below them
    and derives the rest from their neighbours' columns: on a 3-level
    tree, whole or degraded, that is exactly the BFS column."""
    built = scaled_fattree(profile)
    sm = configured(built, "ftree")
    for _ in range(cuts.draw(st.integers(0, 3))):
        mutation = plan_op(
            sm, 0, cuts.draw(st.integers(0, 63)), [], [], link_ops_only=True
        )
        if mutation is not None:
            sm.apply_topology_mutation(mutation)
    request = RoutingRequest.from_topology(built.topology, built=built)
    level = np.array(
        [request.level[i] for i in range(request.num_switches)]
    )
    dests = np.flatnonzero(level > 0)
    swept = []
    request.bfs_row = lambda d: (
        swept.append(d) or bfs_distances(request.view, d)
    )
    cols = FatTreeRouting._columns_toward(request, level, dests)
    dist = all_pairs_switch_distances(request.view)
    assert np.array_equal(cols, dist[:, dests])
    assert set(swept) <= set(np.flatnonzero(level == 1).tolist())
    if profile == "3l-small":
        assert len(swept) < len(dests)


# -- (ii) live table vs rebuild under mutation chains -----------------------------

# plan_op's five topology ops, then the two that leave the graph alone.
NOOP, LID_CHURN = 5, 6

steps_strategy = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 63), st.booleans()),
    min_size=1,
    max_size=6,
)


def run_chain(sm, steps):
    """Apply *steps*; after every step flagged to sync (and after the
    last) the live table and the routed tables must equal a rebuild.
    Unsynced steps pile several events into one repair chain."""
    topo, state = sm.topology, sm.routing_state
    removed, grown, extra = [], [], []
    state.candidate_table()
    for i, (code, pick, sync) in enumerate(steps):
        if code == NOOP:
            # An out-of-band version bump noted as touching no switch pair.
            topo.invalidate_fabric_view()
            state.note_link_failure(-1, pick % topo.num_switches)
        elif code == LID_CHURN:
            if extra and pick % 2:
                sm.lid_manager.release_lid(extra.pop())
            else:
                terms = terminals(topo)
                port = topo.port_of_lid(terms[pick % len(terms)].lid)
                extra.append(sm.lid_manager.assign_extra_lid(port))
        else:
            mutation = plan_op(
                sm, code, pick, removed, grown, link_ops_only=False
            )
            if mutation is None:
                continue
            try:
                sm.apply_topology_mutation(mutation)
            except TopologyError:
                continue  # e.g. a restore whose port was re-cabled since
            if mutation.kind == "remove_link":
                removed.append(mutation)
        if sync or i == len(steps) - 1:
            tables = sm.compute_routing()
            assert_same_table(state.candidate_table(), scratch_table(topo))
            assert tables.ports.tobytes() == cold_ports(sm).tobytes()


@pytest.mark.parametrize("fabric", sorted(CHAIN_FABRICS))
@pytest.mark.parametrize("engine", ("minhop", "ftree"))
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=steps_strategy)
def test_live_table_equals_rebuild_after_mutation_chains(fabric, engine, steps):
    build, is_tree = CHAIN_FABRICS[fabric]
    if engine == "ftree" and not is_tree:
        pytest.skip("ftree needs tree levels")
    run_chain(configured(build(), engine), steps)


@pytest.mark.parametrize("fabric", sorted(CHAIN_FABRICS))
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=steps_strategy)
def test_live_table_equals_rebuild_after_every_step(fabric, steps):
    """The SM's own cadence — every event converged before the next, so
    every repair chain is one event long: after each step the table's
    scoped rows (moved distances, their neighbours, the cable ends) must
    equal a full rebuild, cand and cnt."""
    build, _ = CHAIN_FABRICS[fabric]
    run_chain(configured(build()), [(code, pick, True) for code, pick, _ in steps])


# -- (iii) the pitfalls, by name -----------------------------------------------------


def test_cable_end_rows_change_where_distances_do_not():
    """Losing a leaf-spine cable leaves every leaf-to-leaf distance alone,
    yet the leaf loses that spine as a candidate toward every other leaf:
    the two end rows are dirty for all destinations."""
    built = scaled_fattree("2l-small")
    sm = configured(built)
    state, topo = sm.routing_state, built.topology
    leaf, other = [
        sw for sw in topo.switches if built.level[sw.name] == 0
    ][:2]
    up = next(
        p for p in leaf.connected_ports() if p.remote.node in built.roots
    )
    before_dist = state.distances().copy()
    before_cnt = state.candidate_table()[1].copy()
    sm.handle_link_failure(up.link)
    after_cnt = state.candidate_table()[1]
    assert np.array_equal(
        state.distances()[:, other.index], before_dist[:, other.index]
    )
    assert after_cnt[leaf.index, other.index] == (
        before_cnt[leaf.index, other.index] - 1
    )
    assert_same_table(state.candidate_table(), scratch_table(topo))
    assert sm.current_tables.ports.tobytes() == cold_ports(sm).tobytes()


def chorded_ring():
    """ring6 with two spare ports per switch, routed; the table is two
    slots wide."""
    built = build_ring(6, 1, switch_radix=5)
    sm = configured(built)
    assert sm.routing_state.candidate_table()[0].shape[2] == 2
    return built, sm


def test_degree_grow_rebuilds_the_table():
    built, sm = chorded_ring()
    state, topo = sm.routing_state, built.topology
    r0, r3 = topo.node("r0"), topo.node("r3")
    before = state.stats.snapshot()
    sm.handle_topology_change(
        link_mutation("add_link", r0, 4, r3, 4), verify=False
    )
    delta = state.stats.delta_since(before)
    assert delta["full_recomputes"] == 0  # distances still repair
    assert delta["candidate_misses"] == 1  # the table does not fit: rebuilt
    assert state.candidate_table()[0].shape[2] == 3
    assert_same_table(state.candidate_table(), scratch_table(topo))
    assert sm.current_tables.ports.tobytes() == cold_ports(sm).tobytes()


def diamond():
    """``a`` and ``b`` joined through three middle switches, a host on
    every switch: the two ends have degree 3, and three equal-cost ports
    toward each other — every slot of those cells is in use."""
    topo = Topology("diamond")
    names = ("a", "b", "m1", "m2", "m3")
    sw = {name: topo.add_switch(name, 4) for name in names}
    for name in names:
        topo.connect(sw[name], 4, topo.add_hca(f"{name}-host"), 1)
    for port, mid in enumerate(("m1", "m2", "m3"), start=1):
        topo.connect(sw["a"], port, sw[mid], 1)
        topo.connect(sw["b"], port, sw[mid], 2)
    return BuiltTopology(topology=topo), sw


def test_degree_shrink_repads_the_rewritten_cells():
    built, sw = diamond()
    sm = configured(built)
    state, topo = sm.routing_state, built.topology
    cand, cnt = state.candidate_table()
    assert cand.shape[2] == 3 and cnt[sw["a"].index, sw["b"].index] == 3
    # One chain drops a cable at each degree-3 switch: the maximum degree
    # is 2 afterwards, and a's cell toward b shrinks from three ports to
    # one — its third slot must go back to padding.
    before = state.stats.snapshot()
    sm.apply_topology_mutation(
        link_mutation("remove_link", sw["a"], 3, sw["m3"], 1)
    )
    sm.apply_topology_mutation(
        link_mutation("remove_link", sw["b"], 1, sw["m1"], 2)
    )
    tables = sm.compute_routing()
    delta = state.stats.delta_since(before)
    assert delta["repairs"] == 1
    assert delta["candidate_misses"] == 0  # repaired in place ...
    assert state.candidate_table()[0] is cand  # ... at its built width
    assert scratch_table(topo)[0].shape[2] == 2
    assert cnt[sw["a"].index, sw["b"].index] == 1
    assert_same_table((cand, cnt), scratch_table(topo))
    assert tables.ports.tobytes() == cold_ports(sm).tobytes()


def test_switch_events_drop_the_table_for_a_lazy_rebuild():
    built = scaled_fattree("2l-small")
    sm = configured(built)
    state = sm.routing_state
    spine = built.roots[0]
    before = state.stats.snapshot()
    sm.handle_topology_change(
        TopologyMutation(kind="remove_switch", a=spine.name), verify=False
    )
    delta = state.stats.delta_since(before)
    assert delta["repairs"] == 1 and delta["full_recomputes"] == 0
    assert delta["candidate_misses"] == 1
    assert_same_table(state.candidate_table(), scratch_table(built.topology))


def test_table_is_never_handed_out_in_metadata():
    """The table is patched in place (unlike the copy-on-write distance
    matrix), so no routed result may alias it."""
    for engine in ("minhop", "ftree"):
        sm = configured(scaled_fattree("2l-small"), engine)
        cand, cnt = sm.routing_state.candidate_table()
        for value in sm.current_tables.metadata.values():
            if isinstance(value, np.ndarray):
                assert not np.shares_memory(value, cand)
                assert not np.shares_memory(value, cnt)


def test_repair_without_a_matrix_is_a_routing_error():
    topo = scaled_fattree("2l-small").topology
    state = RoutingState(topo)
    state._version = topo.version - 1
    event = RepairEvent("noop", -1, -1, topo.version)
    with pytest.raises(RoutingError):
        state._try_repair([event], topo.version)


# -- (iv) structure: what a compute builds ---------------------------------------------


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every kernel call the cache makes, as ``(planes, rows)`` built."""
    calls = []

    def counting(view, cols, *, switches=None):
        rows = view.num_switches if switches is None else len(switches)
        calls.append((cols.shape[1], rows))
        return candidate_table(view, cols, switches=switches)

    monkeypatch.setattr(cache_module, "candidate_table", counting)
    return calls


def test_warm_compute_builds_no_candidate_row(kernel_calls):
    sm = configured(scaled_fattree("3l-small"))
    n = sm.topology.num_switches
    assert kernel_calls == [(n, n)]  # the cold build, once
    del kernel_calls[:]
    sm.compute_routing()
    port = sm.topology.port_of_lid(terminals(sm.topology)[0].lid)
    sm.lid_manager.assign_extra_lid(port)  # LID churn: still warm
    sm.compute_routing()
    assert kernel_calls == []


def test_cable_failure_builds_repaired_planes_and_two_rows(kernel_calls):
    built = scaled_fattree("3l-small")
    sm = configured(built)
    n = built.topology.num_switches
    link = next(
        link
        for link in built.topology.links
        if all(end.node in built.topology.switches for end in link.ends)
    )
    del kernel_calls[:]
    before = sm.routing_state.stats.snapshot()
    dist_before = sm.routing_state.distances()
    sm.handle_link_failure(link)
    delta = sm.routing_state.stats.delta_since(before)
    repaired = delta["sources_repaired"]
    assert 0 < repaired < n
    # Columns outside the re-swept planes never move, so the switches
    # whose distance to one of them moved are the rows that differ.
    view = built.topology.fabric_view()
    near = (dist_before != sm.routing_state.distances()).any(axis=1)
    near[view.peer[np.repeat(near, np.diff(view.indptr))]] = True
    near[list(link.switch_ends)] = False
    rows = int(near.sum())
    assert 0 < rows < n - 2
    # One call for the two cable ends over every destination, one for the
    # planes of the re-swept sources over the switches near a moved
    # distance: those whose distance moved and their neighbours.
    assert kernel_calls == [(n, 2), (repaired, rows)]
    assert delta["candidate_rows"] == rows + 2


def test_candidate_rows_are_published_beside_sources_repaired():
    """A repair inside a path computation reports the rows it rebuilt on
    the ``path_compute`` span and in ``repro_routing_candidate_rows_total``."""
    built = scaled_fattree("3l-small")
    sm = configured(built)
    link = next(
        link
        for link in built.topology.links
        if all(end.node in built.topology.switches for end in link.ends)
    )
    sm.apply_topology_mutation(
        link_mutation("remove_link", link.a.node, link.a.num, link.b.node, link.b.num)
    )
    before = sm.routing_state.stats.snapshot()
    sm.compute_routing()
    delta = sm.routing_state.stats.delta_since(before)
    hub = get_hub()
    span = [s for s in hub.all_spans() if s.name == "path_compute"][-1]
    assert span.attributes["candidate_rows"] == delta["candidate_rows"] > 2
    assert span.attributes["sources_repaired"] == delta["sources_repaired"] > 0
    assert "repro_routing_candidate_rows_total" in hub.metrics.render_prometheus()


def test_noop_events_touch_nothing(kernel_calls):
    sm = configured(scaled_fattree("2l-small"))
    state, topo = sm.routing_state, sm.topology
    cand, cnt = state.candidate_table()
    snapshot = (cand.copy(), cnt.copy())
    del kernel_calls[:]
    topo.invalidate_fabric_view()
    state.note_link_failure(-1, 0)
    before = state.stats.snapshot()
    assert state.candidate_table()[0] is cand
    delta = state.stats.delta_since(before)
    assert delta["repairs"] == 1 and delta["sources_repaired"] == 0
    assert kernel_calls == []
    assert_same_table((cand, cnt), snapshot)
