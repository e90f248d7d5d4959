"""The CSR switch-graph view a cable event patches instead of rebuilding.

``Topology.fabric_view`` builds the view once; plugging or unplugging a
switch-to-switch cable then patches the two CSR rows of its ends in port
order, and adding or removing a switch drops it for a rebuild. After
every drawn step of a random event sequence the cached view must equal
one built from scratch in all five arrays (dtypes included), the version
must have moved exactly once per switch-graph event, and a view handed
out earlier must not have changed.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fabric.builders.generic import (
    build_random_regular,
    build_ring,
    build_torus_2d,
)
from repro.fabric.node import Switch
from repro.fabric.presets import scaled_fattree

FABRICS = {
    "fattree": lambda: scaled_fattree("2l-small"),
    "ring": lambda: build_ring(6, 1, switch_radix=6),
    "torus": lambda: build_torus_2d(3, 3, 1),
    "random-regular": lambda: build_random_regular(8, 3, 1, seed=5),
}

ARRAYS = ("indptr", "peer", "out_port", "in_port", "link_latency")

REMOVE_LINK, RESTORE_LINK, ADD_LINK, ADD_SWITCH, REMOVE_SWITCH, HCA_CABLE = range(6)


def snapshot(view):
    return {name: getattr(view, name).copy() for name in ARRAYS}


def assert_same_view(view, fresh):
    assert view.num_switches == fresh.num_switches
    for name in ARRAYS:
        got, want = getattr(view, name), getattr(fresh, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def switch_cables(topo):
    return [
        link for link in topo.links
        if isinstance(link.a.node, Switch) and isinstance(link.b.node, Switch)
    ]


def free_ports(topo):
    return [(sw, p.num) for sw in topo.switches for p in sw.free_ports()]


def step(topo, code, pick, removed, state):
    """Apply one drawn event; returns the switch-graph events it made
    (each must move the version once), or None when nothing applies."""
    if code == REMOVE_LINK:
        cables = switch_cables(topo)
        if not cables:
            return None
        removed.append(topo.remove_link(cables[pick % len(cables)]))
        return 1
    if code == RESTORE_LINK:
        viable = [link for link in removed if all(end.link is None for end in link.ends)]
        if not viable:
            return None
        link = viable[pick % len(viable)]
        removed.remove(link)
        topo.restore_link(link, latency=(1 + pick % 3) * 1e-7)
        return 1
    if code == ADD_LINK:
        frees = free_ports(topo)
        pairs = [(a, b) for a in frees for b in frees if a[0] is not b[0]]
        if not pairs:
            return None
        (a, pa), (b, pb) = pairs[pick % len(pairs)]
        topo.add_link(a, pa, b, pb, latency=2e-7)
        return 1
    if code == ADD_SWITCH:
        frees = free_ports(topo)
        state["grown"] += 1
        sw = topo.add_switch(f"new{state['grown']}", 4)
        # Cabled while the view is dropped: these patch nothing.
        cables = frees[pick % max(len(frees), 1) :][:2]
        for port, (peer, peer_port) in enumerate(cables, start=1):
            topo.add_link(sw, port, peer, peer_port)
        return 1 + len(cables)
    if code == REMOVE_SWITCH:
        viable = [sw for sw in topo.switches if not sw.attached_hcas() and sw.lid is None]
        if not viable:
            return None
        sw = viable[pick % len(viable)]
        removed[:] = [link for link in removed if sw not in (link.a.node, link.b.node)]
        topo.remove_switch(sw)
        return 1
    # An HCA re-cabled to its own port: the switch graph is untouched.
    hca = topo.hcas[pick % len(topo.hcas)]
    link = hca.port(1).link
    if link is None:
        return None
    topo.restore_link(topo.remove_link(link))
    return 0


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    fabric=st.sampled_from(sorted(FABRICS)),
    steps=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 255)), min_size=1, max_size=25
    ),
)
def test_patched_view_equals_a_rebuild_after_every_event(fabric, steps):
    topo = FABRICS[fabric]().topology
    removed, state = [], {"grown": 0}
    for code, pick in steps:
        before = topo.fabric_view()
        frozen = snapshot(before)
        version = topo.version
        events = step(topo, code, pick, removed, state)
        if events is None:
            continue
        assert topo.version == version + events
        if code in (REMOVE_LINK, RESTORE_LINK, ADD_LINK):
            # A cable event patches the cached view in place of a rebuild.
            assert topo._fabric_view is not None and topo._fabric_view is not before
        elif code == HCA_CABLE:
            assert topo.fabric_view() is before
        assert_same_view(topo.fabric_view(), topo._build_fabric_view())
        # A view handed out before the event is a frozen snapshot.
        for name in ARRAYS:
            assert np.array_equal(getattr(before, name), frozen[name])


def test_switch_events_and_invalidation_drop_the_view():
    topo = scaled_fattree("2l-small").topology
    view = topo.fabric_view()
    topo.invalidate_fabric_view()
    assert topo._fabric_view is None
    rebuilt = topo.fabric_view()
    assert rebuilt is not view
    topo.add_switch("extra", 4)
    assert topo._fabric_view is None
    assert_same_view(topo.fabric_view(), topo._build_fabric_view())


def test_an_out_of_band_unplug_is_caught_by_the_patch():
    """A cable unplugged behind the topology's back, then removed through
    it: the cached view still holds the cable, so the patch takes it out;
    after an invalidation (the view no longer holds it) the patch finds
    nothing to take out and leaves the rebuild to the next read."""
    topo = scaled_fattree("2l-small").topology
    first, second = switch_cables(topo)[:2]
    topo.fabric_view()
    first.disconnect()
    topo.remove_link(first)
    assert topo._fabric_view is not None
    assert_same_view(topo.fabric_view(), topo._build_fabric_view())
    second.disconnect()
    topo.invalidate_fabric_view()
    topo.fabric_view()
    topo.remove_link(second)
    assert topo._fabric_view is None
    assert_same_view(topo.fabric_view(), topo._build_fabric_view())
