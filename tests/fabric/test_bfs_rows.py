"""The one BFS-distance kernel: ``bfs_rows`` against a per-source deque BFS.

``bfs_rows(view, S)`` must equal the rows of a textbook queue BFS from
each source in ``S``, stacked in ``S`` order: duplicates included, the
empty set giving no rows, a cut graph giving -1 where a switch is out of
reach, and the result independent of how many rows one batch sweeps.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.static.suite import preset_builders
from repro.fabric import graph
from repro.fabric.builders.generic import build_random_regular
from repro.fabric.graph import bfs_distances, bfs_rows
from repro.fabric.node import Switch


def deque_row(view, source):
    """Hop distances from *source* by a FIFO walk of the CSR rows."""
    dist = [-1] * view.num_switches
    dist[source] = 0
    queue = deque([source])
    while queue:
        s = queue.popleft()
        for t in view.peer[view.indptr[s] : view.indptr[s + 1]].tolist():
            if dist[t] < 0:
                dist[t] = dist[s] + 1
                queue.append(t)
    return dist


def oracle_rows(view, sources):
    return np.array(
        [deque_row(view, s) for s in sources], dtype=np.int32
    ).reshape(len(sources), view.num_switches)


def cut_fabric(seed):
    """A random-regular fabric with some switch cables removed: drawn
    cuts may leave islands, so rows hold -1 entries."""
    topo = build_random_regular(10, 3, 0, seed=seed).topology
    cables = [
        link for link in topo.links
        if isinstance(link.a.node, Switch) and isinstance(link.b.node, Switch)
    ]
    for link in cables[seed % 3 :: 3]:
        topo.remove_link(link)
    return topo.fabric_view()


@pytest.fixture(params=[None, 1, 200], ids=["one-batch", "row-a-batch", "few-a-batch"])
def batch_edges(request, monkeypatch):
    """Sweep all rows in one batch, one row a batch, or a few."""
    if request.param is not None:
        monkeypatch.setattr(graph, "_BFS_BATCH_EDGES", request.param)
    return request.param


@pytest.mark.parametrize("preset", ["2l-small", "3l-small", "ring6", "torus4x4"])
def test_every_source_at_once_equals_the_deque_walk(preset, batch_edges):
    view = preset_builders()[preset]().topology.fabric_view()
    sources = list(range(view.num_switches))
    rows = bfs_rows(view, sources)
    assert rows.dtype == np.int32
    assert np.array_equal(rows, oracle_rows(view, sources))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**10),
    picks=st.lists(st.integers(0, 9), max_size=14),
    batch=st.sampled_from([None, 1, 7, 25]),
)
def test_drawn_sources_on_a_cut_graph(seed, picks, batch):
    """Duplicates, any order, the empty set, unreachable switches."""
    view = cut_fabric(seed)
    old = graph._BFS_BATCH_EDGES
    if batch is not None:
        graph._BFS_BATCH_EDGES = batch
    try:
        rows = bfs_rows(view, picks)
    finally:
        graph._BFS_BATCH_EDGES = old
    assert rows.shape == (len(picks), view.num_switches)
    assert rows.dtype == np.int32
    assert np.array_equal(rows, oracle_rows(view, picks))


def test_one_source_is_its_one_row_case():
    topo = build_random_regular(10, 3, 0, seed=3).topology
    for port in list(topo.switches[0].connected_ports()):
        topo.remove_link(port.link)  # switch 0 becomes an island
    view = topo.fabric_view()
    for s in range(view.num_switches):
        row = bfs_distances(view, s)
        assert row.shape == (view.num_switches,)
        assert row.tolist() == deque_row(view, s)
    assert bfs_distances(view, 0).tolist() == [0] + [-1] * 9
