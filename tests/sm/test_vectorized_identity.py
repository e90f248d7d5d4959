"""Byte-identity of the paper-scale fast paths against their references.

Three equivalences, each load-bearing for the Fig. 7 reproduction:

* LASH/DFSSSP == the pure-Python reference engines of ``tests/oracles``
  — same LFT bytes, same VL assignments, same metadata — on rings, tori,
  fat-trees and hypothesis-sampled random regular graphs (rings/tori
  exercise the multi-VL cyclic paths: relabel, rollback and layer
  rejection);
* sharded all-pairs computation (``workers > 1``) == the serial loop;
* the stacked numpy LFT block diff == the old per-switch block diff.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import LFT_BLOCK_SIZE, LFT_UNSET
from repro.errors import RoutingError
from repro.fabric.builders.generic import (
    build_random_regular,
    build_ring,
    build_torus_2d,
)
from repro.fabric.graph import all_pairs_switch_distances
from repro.fabric.lft import lft_block_of
from repro.fabric.presets import paper_fattree, scaled_fattree
from repro.sm.routing.base import RoutingRequest
from repro.sm.routing.cache import RoutingState
from repro.sm.routing.dfsssp import DFSSSPRouting
from repro.sm.routing.lash import LashRouting
import repro.sm.routing.parallel as parallel_mod
from repro.sm.routing.parallel import ParallelRouter
from repro.sm.subnet_manager import SubnetManager
from tests.oracles.dfsssp import ReferenceDFSSSPRouting
from tests.oracles.lash import ReferenceLashRouting

#: Engine under test -> its oracle.
REFERENCE = {
    LashRouting: ReferenceLashRouting,
    DFSSSPRouting: ReferenceDFSSSPRouting,
}

_settings = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def request_for(built):
    sm = SubnetManager(built.topology, built=built)
    sm.assign_lids()
    return RoutingRequest.from_topology(built.topology, built=built)


def assert_tables_identical(a, b, label):
    assert a.ports.dtype == b.ports.dtype, label
    assert np.array_equal(a.ports, b.ports), label
    assert a.num_vls == b.num_vls, label
    assert set(a.metadata) == set(b.metadata), label
    for k in a.metadata:
        va, vb = a.metadata[k], b.metadata[k]
        if isinstance(va, np.ndarray):
            assert va.dtype == vb.dtype and np.array_equal(va, vb), (label, k)
        else:
            assert va == vb, (label, k)


PRESETS = {
    "ring8": lambda: build_ring(8, hosts_per_switch=1),
    "torus33": lambda: build_torus_2d(3, 3, hosts_per_switch=1),
    "ftree-2l": lambda: paper_fattree(324),
    "ftree-3l": lambda: scaled_fattree("3l-small"),
}


class TestVectorizedEngineIdentity:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("engine_cls", [LashRouting, DFSSSPRouting])
    def test_identity_on_presets(self, preset, engine_cls):
        request = request_for(PRESETS[preset]())
        fast = engine_cls().compute(request)
        ref = REFERENCE[engine_cls]().compute(request)
        assert_tables_identical(fast, ref, (preset, engine_cls.__name__))

    @_settings
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        half_n=st.integers(min_value=3, max_value=6),
    )
    def test_identity_on_random_regular(self, seed, half_n):
        # 3-regular graphs need an even switch count (handshake lemma).
        built = build_random_regular(2 * half_n, 3, 1, seed=seed)
        request = request_for(built)
        for engine_cls in (LashRouting, DFSSSPRouting):
            fast = engine_cls().compute(request)
            ref = REFERENCE[engine_cls]().compute(request)
            assert_tables_identical(fast, ref, (seed, engine_cls.__name__))


class TestShardedIdentity:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("workers", [2, 4])
    def test_sharded_matrix_identical(self, preset, workers, monkeypatch):
        # Drop the spin-up threshold so the small test fabrics actually
        # exercise the process pool (or its sandbox fallback).
        monkeypatch.setattr(parallel_mod, "_MIN_PARALLEL_SWITCHES", 1)
        view = PRESETS[preset]().topology.fabric_view()
        serial = all_pairs_switch_distances(view)
        sharded = ParallelRouter(workers).all_pairs(view)
        assert sharded.dtype == serial.dtype
        assert np.array_equal(sharded, serial)

    def test_chunk_bounds_cover_range(self):
        for workers in (1, 2, 3, 7):
            for n in (1, 5, 64, 97, 1620):
                bounds = parallel_mod.chunk_bounds(n, workers)
                assert bounds[0][0] == 0 and bounds[-1][1] == n
                for (_, hi), (lo2, _) in zip(bounds, bounds[1:]):
                    assert hi == lo2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sharded_lfts_identical_end_to_end(self, workers, monkeypatch):
        monkeypatch.setattr(parallel_mod, "_MIN_PARALLEL_SWITCHES", 1)
        built = scaled_fattree("3l-small")
        sm = SubnetManager(built.topology, built=built, workers=workers)
        sm.initial_configure(with_discovery=False)
        serial_built = scaled_fattree("3l-small")
        serial_sm = SubnetManager(serial_built.topology, built=serial_built)
        serial_sm.initial_configure(with_discovery=False)
        assert np.array_equal(
            sm.current_tables.ports, serial_sm.current_tables.ports
        )

    def test_routing_state_threads_workers(self):
        built = PRESETS["ftree-2l"]()
        state = RoutingState(built.topology, workers=3)
        assert state.router.workers == 3

    def test_a_worker_without_its_view_is_a_typed_error(self, monkeypatch):
        # The one shard worker (all-pairs BFS and the per-VL build alike).
        monkeypatch.setattr(parallel_mod, "_WORKER", None)
        with pytest.raises(RoutingError, match="no state installed"):
            parallel_mod._run_chunk((0, 1))


class TestLftDiffEquivalence:
    """The stacked block diff must plan exactly the old per-switch sends."""

    def _plans_match(self, sm, tables, force_full):
        distributor = sm.distributor
        top_lid = tables.top_lid
        width = (lft_block_of(top_lid) + 1) * LFT_BLOCK_SIZE
        send, _ = distributor._diff_plan(tables, force_full)
        got = {
            sw.name: np.flatnonzero(row).tolist()
            for sw, row in zip(sm.topology.switches, send)
            if row.any()
        }
        expected = {}
        for sw in sm.topology.switches:
            current = sw.topology.lft[sw.index]
            full_width = max(width, len(current))
            desired = np.full(full_width, LFT_UNSET, dtype=np.int16)
            row = tables.ports[sw.index]
            desired[: len(row)] = row
            if force_full:
                differs = desired != LFT_UNSET
            else:
                cur = np.full(len(desired), LFT_UNSET, dtype=np.int16)
                cur[: len(current)] = current
                differs = cur != desired
            blocks = np.flatnonzero(
                differs.reshape(-1, LFT_BLOCK_SIZE).any(axis=1)
            ).tolist()
            if blocks:
                expected[sw.name] = blocks
        assert got == expected

    @pytest.mark.parametrize("force_full", [False, True])
    def test_plan_matches_reference_diff(self, force_full):
        built = PRESETS["ftree-2l"]()
        sm = SubnetManager(built.topology, built=built)
        sm.assign_lids()
        tables = sm.compute_routing()
        # Cold switches: everything pending.
        self._plans_match(sm, tables, force_full)
        sm.distribute()
        # Warm switches: diff plan must now be empty / full respectively.
        self._plans_match(sm, tables, force_full)

    def test_plan_after_partial_mutation(self):
        built = PRESETS["torus33"]()
        sm = SubnetManager(built.topology, built=built)
        sm.initial_configure(with_discovery=False)
        tables = sm.current_tables
        # Corrupt one block on one switch; only that block may be resent.
        sw = sm.topology.switches[2]
        block = 0
        entries = sm.topology.lft_blocks([sw.index], [block])
        entries[0, 0] = 1 if entries[0, 0] != 1 else 2
        sm.topology.load_lft_blocks(sw.index, [block], entries)
        self._plans_match(sm, tables, False)
        assert sm.distributor.pending_blocks(tables) == 1
