"""The array CDG kernel against the dict/DFS oracle.

``repro.sm.routing.cdg_array`` holds the one Kahn peel every acyclicity
question goes through (``acyclic``, ``find_cycle``, ``ArrayCdg`` "kahn"
mode); ``tests/oracles/cdg.py`` is the dict graph it replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.sm.routing.cdg_array import ArrayCdg, acyclic, find_cycle
from tests.oracles.cdg import ChannelDependencyGraph

_settings = settings(max_examples=200, deadline=None)

#: Random digraphs over up to 12 channels, self-loops and repeats included.
digraphs = st.integers(min_value=1, max_value=12).flatmap(
    lambda c: st.tuples(
        st.just(c),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=c - 1),
                st.integers(min_value=0, max_value=c - 1),
            ),
            max_size=40,
        ),
    )
)


def keys_of(edges, c):
    return np.unique(np.asarray([s * c + d for s, d in edges], dtype=np.int64))


def oracle_of(edges):
    # Channel i is spelled (i, i); add_edge skips the consecutiveness rule.
    cdg = ChannelDependencyGraph()
    for s, d in edges:
        cdg.add_edge((s, s), (d, d))
    return cdg


class TestKernelAgainstOracle:
    @_settings
    @given(digraphs)
    def test_find_cycle_iff_oracle_does(self, graph):
        c, edges = graph
        keys = keys_of(edges, c)
        cycle = find_cycle(keys, c)
        assert (cycle is None) == (oracle_of(edges).find_cycle() is None)
        assert acyclic(keys, c) == (cycle is None)
        if cycle is not None:
            present = set(keys.tolist())
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert a * c + b in present

    @pytest.mark.parametrize("mode", ["kahn", "levels"])
    @_settings
    @given(digraphs)
    def test_layer_accepts_like_the_oracle(self, mode, graph):
        # One edge per batch: the layer must accept, reject and count
        # exactly like the transactional dict graph.
        c, edges = graph
        layer = ArrayCdg(c, mode=mode)
        oracle = ChannelDependencyGraph()
        for s, d in edges:
            assert layer.try_add(
                np.asarray([s]), np.asarray([d])
            ) == oracle.try_add_dependencies([((s, s), (d, d))])
            assert layer.num_dependencies == oracle.num_dependencies


class TestEdges:
    def test_empty_set_is_acyclic(self):
        none = np.empty(0, dtype=np.int64)
        assert acyclic(none, 5) and find_cycle(none, 5) is None

    def test_self_loop_is_a_cycle_of_one(self):
        assert find_cycle(np.asarray([2 * 4 + 2]), 4) == [2]

    def test_residue_downstream_of_a_cycle_is_not_reported(self):
        # 0 -> 1 -> 0 feeds 2 -> 3: the peel leaves all four, the walk
        # must still return the loop, not the tail.
        c = 4
        keys = keys_of([(0, 1), (1, 0), (1, 2), (2, 3)], c)
        assert sorted(find_cycle(keys, c)) == [0, 1]

    def test_unknown_mode_is_a_routing_error(self):
        with pytest.raises(RoutingError):
            ArrayCdg(4, mode="dfs")
