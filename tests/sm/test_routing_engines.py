"""Cross-engine routing tests: validity, determinism, balancing, structure.

Every engine must produce complete, loop-free, correctly-delivering tables
on every topology it supports — checked with the slow reference validator.
"""

import numpy as np
import pytest

from repro.constants import LFT_UNSET
from repro.errors import RoutingError
from repro.fabric.builders.generic import (
    build_mesh_2d,
    build_random_regular,
    build_ring,
    build_single_switch,
    build_torus_2d,
)
from repro.fabric.presets import scaled_fattree
from repro.sm.routing.base import (
    RoutingRequest,
    all_pairs_switch_distances,
    bfs_distances,
    candidate_table,
)
from repro.sm.routing.registry import available_engines, create_engine, register_engine
from repro.sm.subnet_manager import SubnetManager
from tests.oracles.delivery import trace_path, validate

ALL_ENGINES = ("minhop", "ftree", "updn", "dfsssp", "lash")
#: Engines usable on arbitrary (non-tree) topologies.
AGNOSTIC_ENGINES = ("minhop", "updn", "dfsssp", "lash")


def request_for(built):
    sm = SubnetManager(built.topology, built=built)
    sm.assign_lids()
    return RoutingRequest.from_topology(built.topology, built=built)


@pytest.fixture(scope="module")
def ft_request():
    return request_for(scaled_fattree("2l-small"))


class TestValidityOnFatTree:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_routes_deliver_everything(self, engine, ft_request):
        tables = create_engine(engine).compute(ft_request)
        validate(tables, ft_request)

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_all_lids_programmed_on_all_switches(self, engine, ft_request):
        tables = create_engine(engine).compute(ft_request)
        lids = [t.lid for t in ft_request.terminals] + list(
            ft_request.switch_lids
        )
        sub = tables.ports[:, lids]
        assert (sub != LFT_UNSET).all()

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_deterministic(self, engine, ft_request):
        a = create_engine(engine).compute(ft_request)
        b = create_engine(engine).compute(ft_request)
        assert np.array_equal(a.ports, b.ports)


class TestValidityOnIrregular:
    @pytest.mark.parametrize("engine", AGNOSTIC_ENGINES)
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: build_single_switch(3),
            lambda: build_ring(5, 2),
            lambda: build_mesh_2d(3, 3, 1),
            lambda: build_torus_2d(3, 3, 1),
            lambda: build_random_regular(8, 3, 1, seed=3),
        ],
        ids=["single", "ring", "mesh", "torus", "randreg"],
    )
    def test_engine_on_topology(self, engine, builder):
        req = request_for(builder())
        tables = create_engine(engine).compute(req)
        validate(tables, req)

    def test_ftree_rejects_unstructured(self):
        # A ring has no levels once built metadata is dropped.
        built = build_ring(4, 1)
        sm = SubnetManager(built.topology)
        sm.assign_lids()
        req = RoutingRequest.from_topology(built.topology)  # no built
        with pytest.raises(RoutingError):
            create_engine("ftree").compute(req)


class TestMinHop:
    def test_paths_are_minimal(self, ft_request):
        tables = create_engine("minhop").compute(ft_request)
        dist = tables.metadata["switch_distances"]
        for t in ft_request.terminals[:10]:
            for src in range(ft_request.num_switches):
                path = trace_path(tables, ft_request, src, t.lid)
                assert len(path) - 1 == dist[src, t.switch_index]

    def test_lid_mod_spreads_consecutive_lids(self, ft_request):
        # The LMC-like multipathing of section V-A: consecutive LIDs on one
        # leaf leave a remote leaf through different up ports.
        tables = create_engine("minhop").compute(ft_request)
        groups = ft_request.terminals_by_switch()
        leaf, terms = next(iter(groups.items()))
        other_leaf = next(l for l in groups if l != leaf)
        ports = {tables.port_for(other_leaf, t.lid) for t in terms}
        assert len(ports) > 1

    def test_least_loaded_variant_valid(self, ft_request):
        tables = create_engine("minhop", balance="least-loaded").compute(
            ft_request
        )
        validate(tables, ft_request)

    def test_least_loaded_balances_evenly(self, ft_request):
        tables = create_engine("minhop", balance="least-loaded").compute(
            ft_request
        )
        # Up-port usage at one leaf should be near-uniform across spines.
        groups = ft_request.terminals_by_switch()
        leaf = next(iter(groups))
        all_lids = [t.lid for t in ft_request.terminals if t.switch_index != leaf]
        counts = {}
        for lid in all_lids:
            p = tables.port_for(leaf, lid)
            counts[p] = counts.get(p, 0) + 1
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_unknown_balance_rejected(self):
        with pytest.raises(RoutingError):
            create_engine("minhop", balance="nope")


class TestFatTreeEngine:
    def test_down_paths_unique(self, ft_request):
        tables = create_engine("ftree").compute(ft_request)
        # From a spine, every LID of one leaf exits the same (unique) port.
        groups = ft_request.terminals_by_switch()
        leaf, terms = next(iter(groups.items()))
        level = tables.metadata["levels"]
        spines = [s for s in range(ft_request.num_switches) if level[s] == 1]
        for spine in spines:
            ports = {tables.port_for(spine, t.lid) for t in terms}
            assert len(ports) == 1

    def test_up_ports_spread_by_lid(self, ft_request):
        tables = create_engine("ftree").compute(ft_request)
        groups = ft_request.terminals_by_switch()
        leaf, terms = next(iter(groups.items()))
        other = next(l for l in groups if l != leaf)
        ports = {tables.port_for(other, t.lid) for t in terms}
        assert len(ports) == min(len(terms), 6)  # 6 spines in 2l-small

    def test_three_level_valid(self):
        req = request_for(scaled_fattree("3l-small"))
        tables = create_engine("ftree").compute(req)
        # Full validation is expensive; spot-check paths from every pod.
        for src in range(0, req.num_switches, 7):
            for t in req.terminals[::29]:
                trace_path(tables, req, src, t.lid)


class TestUpDown:
    def test_no_down_up_turns(self, ft_request):
        tables = create_engine("updn").compute(ft_request)
        rank = tables.metadata["rank"]
        for t in ft_request.terminals[::3]:
            for src in range(ft_request.num_switches):
                path = trace_path(tables, ft_request, src, t.lid)
                gone_down = False
                for a, b in zip(path, path[1:]):
                    going_down = (rank[b], b) > (rank[a], a)
                    if gone_down and not going_down:
                        pytest.fail(f"down->up turn in {path}")
                    gone_down = gone_down or going_down

    def test_root_override(self, ft_request):
        tables = create_engine("updn", root_index=3).compute(ft_request)
        assert tables.metadata["root"] == 3
        validate(tables, ft_request)

    def test_bad_root_rejected(self, ft_request):
        with pytest.raises(RoutingError):
            create_engine("updn", root_index=99).compute(ft_request)


class TestDfsssp:
    def test_few_vls_on_fattree(self, ft_request):
        tables = create_engine("dfsssp").compute(ft_request)
        assert tables.num_vls <= 2

    def test_vl_assignment_covers_all_lids(self, ft_request):
        tables = create_engine("dfsssp").compute(ft_request)
        vl = tables.metadata["lid_to_vl"]
        for t in ft_request.terminals:
            assert t.lid in vl
        for lid in ft_request.switch_lids:
            assert vl[lid] == 15  # management lane

    def test_weights_grow(self, ft_request):
        tables = create_engine("dfsssp").compute(ft_request)
        weights = tables.metadata["edge_weights"]
        assert (weights >= 1).all()
        assert weights.max() > 1  # some edge carried traffic

    def test_works_on_ring(self):
        req = request_for(build_ring(6, 2))
        tables = create_engine("dfsssp").compute(req)
        validate(tables, req)
        # A ring needs >1 VL to stay deadlock free.
        assert tables.num_vls >= 2

    def test_vl_exhaustion_raises(self):
        req = request_for(build_ring(8, 2))
        with pytest.raises(RoutingError):
            create_engine("dfsssp", max_vls=1).compute(req)


class TestLash:
    def test_layers_assigned_per_leaf_pair(self, ft_request):
        tables = create_engine("lash").compute(ft_request)
        pair_to_vl = tables.metadata["pair_to_vl"]
        leaf_switches = {t.switch_index for t in ft_request.terminals}
        expected = len(leaf_switches) * (len(leaf_switches) - 1)
        assert len(pair_to_vl) == expected

    def test_single_layer_on_fattree(self, ft_request):
        # Leaf-to-leaf shortest paths in a fat-tree are up/down => acyclic.
        tables = create_engine("lash").compute(ft_request)
        assert tables.num_vls == 1

    def test_multiple_layers_on_ring(self):
        req = request_for(build_ring(6, 1))
        tables = create_engine("lash").compute(req)
        validate(tables, req)
        assert tables.num_vls >= 2


class TestRegistry:
    def test_available(self):
        names = available_engines()
        for expected in ALL_ENGINES:
            assert expected in names

    def test_unknown_engine(self):
        with pytest.raises(RoutingError):
            create_engine("nope")

    def test_register_custom_and_duplicate(self):
        from repro.sm.routing.minhop import MinHopRouting

        register_engine("custom-test-engine", MinHopRouting)
        assert "custom-test-engine" in available_engines()
        with pytest.raises(RoutingError):
            register_engine("custom-test-engine", MinHopRouting)


class TestGraphHelpers:
    def test_bfs_distances(self):
        built = build_ring(6, 1)
        view = built.topology.fabric_view()
        dist = bfs_distances(view, 0)
        assert list(dist) == [0, 1, 2, 3, 2, 1]

    def test_all_pairs_symmetric(self):
        built = build_mesh_2d(3, 3, 1)
        view = built.topology.fabric_view()
        dist = all_pairs_switch_distances(view)
        assert (dist == dist.T).all()
        assert (np.diag(dist) == 0).all()

    def test_candidate_table_counts(self):
        built = build_ring(4, 1)
        view = built.topology.fabric_view()
        dist = bfs_distances(view, 0)
        cand, cnt = candidate_table(view, dist[:, None])
        counts = cnt[:, 0]
        assert counts[0] == 0  # destination itself
        assert counts[1] == 1 and counts[3] == 1
        assert counts[2] == 2  # two equal-cost ways around the ring
        assert (cand[0, 0] == LFT_UNSET).all()

    def test_timed_compute_stamps_pct(self, ft_request):
        tables = create_engine("minhop").timed_compute(ft_request)
        assert tables.compute_seconds > 0
