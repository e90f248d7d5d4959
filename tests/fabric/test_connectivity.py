"""``SwitchFabricView.unreached`` — the one switch-graph connectivity check
(behind ``Topology.validate``, the SM's cut-vertex refusal and the chaos
victim pools) — held to networkx on random fabrics."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.fabric.builders.generic import build_random_regular
from repro.fabric.topology import Topology


def switch_multigraph(topo):
    graph = nx.MultiGraph()
    graph.add_nodes_from(range(topo.num_switches))
    for link in topo.links:
        u, v = link.switch_ends
        if u >= 0 and v >= 0:
            graph.add_edge(u, v)
    return graph


def unreached_oracle(graph, first):
    return sorted(set(graph) - nx.node_connected_component(graph, first))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 50), cuts=st.lists(st.integers(0, 63), max_size=8))
def test_unreached_matches_networkx(seed, cuts):
    topo = build_random_regular(8, 3, 1, seed=seed).topology
    for pick in cuts:  # degrade it, partitions welcome
        cables = [l for l in topo.links if min(l.switch_ends) >= 0]
        if cables:
            topo.remove_link(cables[pick % len(cables)])
    view, graph = topo.fabric_view(), switch_multigraph(topo)
    assert view.unreached() == unreached_oracle(graph, 0)
    for w in range(topo.num_switches):
        rest = graph.copy()
        rest.remove_node(w)
        assert view.unreached(without_switch=w) == unreached_oracle(
            rest, 0 if w else 1
        )
    for link in topo.links:
        u, v = link.switch_ends
        if u < 0 or v < 0:
            continue
        rest = graph.copy()
        rest.remove_edge(u, v)  # one cable of the pair
        assert view.unreached(without_link=(u, v)) == unreached_oracle(rest, 0)
        assert view.unreached(without_link=(v, u)) == unreached_oracle(rest, 0)


def test_parallel_cable_keeps_the_pair_adjacent():
    topo = Topology("pair")
    a, b = topo.add_switch("a", 4), topo.add_switch("b", 4)
    topo.connect(a, 1, b, 1)
    assert topo.fabric_view().unreached(without_link=(0, 1)) == [1]
    topo.connect(a, 2, b, 2)
    assert topo.fabric_view().unreached(without_link=(0, 1)) == []


def test_degenerate_views():
    topo = Topology("tiny")
    assert topo.fabric_view().unreached() == []
    topo.add_switch("only", 4)
    view = topo.fabric_view()
    assert view.unreached() == [] and view.unreached(without_switch=0) == []


def test_validate_names_the_unreachable_switches():
    topo = Topology("split")
    for name in "abcd":
        topo.add_switch(name, 4)
    topo.connect("a", 1, "b", 1)
    topo.connect("c", 1, "d", 1)
    with pytest.raises(TopologyError, match=r"unreachable: \['c', 'd'\]"):
        topo.validate()
