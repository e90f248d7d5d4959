"""Property-based check for live topology mutation.

The invariant: after *any* viable sequence of runtime mutations —
applied one at a time through the deferred trap pipeline, each followed
by a reroute — the warm (incrementally repaired) routing tables are
byte-identical to a cold recompute on the final topology, for the
vectorized minhop engine and for the structured ftree engine, with and
without sharded path-computation workers. Events the SM must *refuse*
(a bridge cable or cut-vertex switch dying, an HCA's only cable, a leaf
with hosts) are interleaved through every entry point: each raises,
leaves the subnet exactly as it was, and the chain carries on.

MinHop sequences also draw edits that change what its kept table fill
read without bumping the topology version (an HCA re-cabled, LIDs bound
and unbound, a switch LID re-assigned) and in-place edits of the tables
it handed out; after every step the warm compute must equal a stateless
one.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.fabric.builders.generic import build_random_regular
from repro.fabric.lft import apply_column_op
from repro.fabric.node import Switch
from repro.fabric.presets import scaled_fattree
from repro.fabric.topology import TopologyMutation
from repro.sm.routing.base import RoutingRequest
from repro.sm.routing.registry import create_engine
from repro.sm.subnet_manager import SubnetManager
from repro.sm.traps import FabricEventManager
from tests.conftest import subnet_fingerprint as fingerprint

# Op codes the hypothesis sequence draws from; the interpreter skips any
# op that is not viable in the current state, so every sequence is legal.
REMOVE_LINK, RESTORE_LINK, ADD_LINK, ADD_SWITCH, REMOVE_SWITCH = range(5)
# ... and two that pick an event the SM has to refuse.
REFUSED_LINK, REFUSED_SWITCH = 5, 6
# ... and, for minhop, edits of the fill's inputs and of its output.
RECABLE_HCA, BIND_LID, UNBIND_LID, RELID_SWITCH, EDIT_TABLES = range(7, 12)


def switch_links(topo):
    return [
        link
        for link in topo.links
        if isinstance(link.a.node, Switch) and isinstance(link.b.node, Switch)
    ]


def removal_keeps_connected(topo, link):
    """BFS over the switch graph without *link*."""
    adjacency = {}
    for other in switch_links(topo):
        if other is link:
            continue
        a, b = other.a.node.name, other.b.node.name
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    names = [sw.name for sw in topo.switches]
    if not names:
        return True
    seen = {names[0]}
    frontier = [names[0]]
    while frontier:
        nxt = frontier.pop()
        for peer in adjacency.get(nxt, ()):
            if peer not in seen:
                seen.add(peer)
                frontier.append(peer)
    return len(seen) == len(names)


def free_switch_ports(topo):
    out = []
    for sw in topo.switches:
        port = next(sw.free_ports(), None)
        if port is not None:
            out.append((sw, port.num))
    return out


def plan_op(sm, code, pick, removed, grown, *, link_ops_only):
    """Turn (op code, pick) into a viable mutation, or None to skip."""
    topo = sm.topology
    if code == REMOVE_LINK:
        viable = [
            link
            for link in switch_links(topo)
            if removal_keeps_connected(topo, link)
        ]
        if not viable:
            return None
        link = viable[pick % len(viable)]
        return TopologyMutation(
            kind="remove_link",
            a=link.a.node.name,
            port_a=link.a.num,
            b=link.b.node.name,
            port_b=link.b.num,
        )
    if code == RESTORE_LINK:
        if not removed:
            return None
        candidate = removed.pop(pick % len(removed))
        return TopologyMutation(
            kind="restore_link",
            a=candidate.a,
            port_a=candidate.port_a,
            b=candidate.b,
            port_b=candidate.port_b,
        )
    if link_ops_only:
        return None
    if code == ADD_LINK:
        frees = free_switch_ports(topo)
        pairs = [
            (a, pa, b, pb)
            for i, (a, pa) in enumerate(frees)
            for (b, pb) in frees[i + 1 :]
            if topo.node(a.name).port(pa).link is None
        ]
        pairs = [
            (a, pa, b, pb)
            for (a, pa, b, pb) in pairs
            if b.name
            not in {
                p.remote.node.name
                for p in a.connected_ports()
                if p.remote is not None
            }
        ]
        if not pairs:
            return None
        a, pa, b, pb = pairs[pick % len(pairs)]
        return TopologyMutation(
            kind="add_link", a=a.name, port_a=pa, b=b.name, port_b=pb
        )
    if code == ADD_SWITCH:
        frees = free_switch_ports(topo)
        if len(frees) < 2:
            return None
        (a, pa), (b, pb) = frees[pick % len(frees)], frees[(pick + 1) % len(frees)]
        if a is b:
            return None
        name = f"grown{len(grown)}"
        grown.append(name)
        return TopologyMutation(
            kind="add_switch",
            a=name,
            num_ports=4,
            cables=((1, a.name, pa), (2, b.name, pb)),
        )
    if code == REMOVE_SWITCH:
        victims = [
            name
            for name in grown
            if name in topo
            and removal_ok_for_switch(topo, topo.node(name))
        ]
        if not victims:
            return None
        return TopologyMutation(
            kind="remove_switch", a=victims[pick % len(victims)]
        )
    return None


def removal_ok_for_switch(topo, sw):
    """All cables of *sw* can go and the rest stays connected."""
    adjacency = {}
    for link in switch_links(topo):
        a, b = link.a.node.name, link.b.node.name
        if sw.name in (a, b):
            continue
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    names = [s.name for s in topo.switches if s is not sw]
    if not names:
        return False
    seen = {names[0]}
    frontier = [names[0]]
    while frontier:
        nxt = frontier.pop()
        for peer in adjacency.get(nxt, ()):
            if peer not in seen:
                seen.add(peer)
                frontier.append(peer)
    return len(seen) == len(names)


def refused_event(sm, events, code, pick):
    """A callable carrying an event the SM must refuse, through an entry
    point chosen by *pick*."""
    topo = sm.topology
    if code == REFUSED_LINK:
        bridges = [
            link
            for link in switch_links(topo)
            if not removal_keeps_connected(topo, link)
        ]
        # No bridge around: an HCA's only cable is always there to strand.
        link = (
            bridges[pick % len(bridges)]
            if bridges
            else topo.hcas[pick % topo.num_hcas].port(1).link
        )
        mutation = TopologyMutation.cable("remove_link", link)
        entries = [
            lambda: sm.handle_link_failure(link),
            lambda: sm.handle_topology_change(mutation, verify=False),
            lambda: events.report_topology_change(mutation),
        ]
        if bridges:  # the trap paths model inter-switch cables only
            entries += [
                lambda: events.link_down(link),
                lambda: events.report_link_down(link),
            ]
    else:
        doomed = [
            sw
            for sw in topo.switches
            if sw.attached_hcas() or not removal_ok_for_switch(topo, sw)
        ]
        sw = doomed[pick % len(doomed)]
        mutation = TopologyMutation(kind="remove_switch", a=sw.name)
        entries = [
            lambda: sm.handle_switch_failure(sw),
            lambda: sm.handle_topology_change(mutation, verify=False),
            lambda: events.report_topology_change(mutation),
        ]
    return entries[(pick // 8) % len(entries)]


def fill_edit(sm, code, pick, extra):
    """Apply one edit the switch graph does not see; False if not viable.

    *extra* holds the LIDs bound by earlier ``BIND_LID`` steps. The table
    edit goes through :func:`apply_column_op` on ``current_tables`` as
    the vSwitch reconfigurer records its column moves.
    """
    topo, lids = sm.topology, sm.lid_manager
    if code == RECABLE_HCA:
        movable = [
            hca
            for hca in topo.hcas
            if next(hca.uplink_switch().free_ports(), None) is not None
        ]
        if not movable:
            return False
        hca = movable[pick % len(movable)]
        leaf = hca.uplink_switch()
        free = next(leaf.free_ports()).num
        topo.remove_link(hca.port(1).link)
        topo.connect(hca, 1, leaf, free)
    elif code == BIND_LID:
        extra.append(lids.assign_extra_lid(topo.hcas[pick % topo.num_hcas].port(1)))
    elif code == UNBIND_LID:
        if not extra:
            return False
        lids.release_lid(extra.pop(pick % len(extra)))
    elif code == RELID_SWITCH:
        sw = topo.switches[pick % topo.num_switches]
        new = lids.assign_extra_lid(sw.management_port)
        lids.release_lid(sw.lid)
        sw.lid = new
    else:
        tables = sm.current_tables
        top = tables.top_lid
        op = {"op": "swap", "lid_a": 1 + pick % top, "lid_b": 1 + (pick * 7) % top}
        tables.ports, tables.lanes = apply_column_op(tables.ports, op, tables.lanes)
    return True


def assert_warm_equals_cold(sm):
    """The SM's (cached) compute equals a stateless one on the same subnet."""
    warm = sm.compute_routing()
    sm.distribute()
    request = RoutingRequest.from_topology(sm.topology, built=sm.built)
    cold = create_engine(warm.algorithm).compute(request)
    assert warm.ports.shape == cold.ports.shape
    assert warm.ports.tobytes() == cold.ports.tobytes()


def run_sequence(sm, engine, ops, *, link_ops_only=False):
    events = FabricEventManager(sm)
    removed = []
    grown = []
    extra = []
    performed = 0
    for code, pick in ops:
        if code >= RECABLE_HCA:
            if fill_edit(sm, code, pick, extra):
                assert_warm_equals_cold(sm)
                performed += 1
            continue
        if code in (REFUSED_LINK, REFUSED_SWITCH):
            attempt = refused_event(sm, events, code, pick)
            before = fingerprint(sm)
            with pytest.raises(TopologyError):
                attempt()
            assert fingerprint(sm) == before
            assert events.pending_events == 0
            continue
        mutation = plan_op(
            sm, code, pick, removed, grown, link_ops_only=link_ops_only
        )
        if mutation is None:
            continue
        try:
            events.report_topology_change(mutation)
        except TopologyError:
            continue  # refused and rolled back — state unchanged
        if mutation.kind == "remove_link":
            removed.append(mutation)
        events.pump(force=True)
        assert_warm_equals_cold(sm)
        performed += 1
    # Warm (event-chain repaired) tables vs a from-scratch cold compute.
    # Compare with whatever algorithm the SM actually selected: a
    # degraded tree makes ftree fall back, and the fallback must be
    # byte-stable too.
    request = RoutingRequest.from_topology(sm.topology, built=sm.built)
    cold = create_engine(sm.current_tables.algorithm).compute(request)
    assert sm.current_tables.ports.shape == cold.ports.shape
    assert sm.current_tables.ports.tobytes() == cold.ports.tobytes()
    from repro.analysis.verification import verify_subnet

    # static=False: minhop on an unstructured (Jellyfish) graph is
    # legitimately deadlock-prone — the CDG finding is an engine
    # property, not a mutation-repair defect. Delivery and SM/hardware
    # consistency still run in full.
    verify_subnet(sm, static=False).raise_if_failed()
    return performed


ops_strategy = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 63)),
    min_size=1,
    max_size=6,
)


minhop_ops_strategy = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 63)),
    min_size=1,
    max_size=8,
)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=minhop_ops_strategy, seed=st.integers(0, 3))
@pytest.mark.parametrize("workers", (1, 2))
def test_minhop_mutation_sequences_match_cold(ops, seed, workers):
    built = build_random_regular(8, 3, 2, seed=seed)
    sm = SubnetManager(
        built.topology, engine="minhop", built=built, workers=workers
    )
    sm.initial_configure(with_discovery=False)
    run_sequence(sm, "minhop", ops)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=ops_strategy)
@pytest.mark.parametrize("workers", (1, 2))
def test_ftree_flap_sequences_match_cold(ops, workers):
    """Structure-preserving sequences (cable out / cable back) on a real
    fat-tree keep the structured engine byte-stable too."""
    built = scaled_fattree("2l-small")
    sm = SubnetManager(
        built.topology,
        engine="ftree",
        built=built,
        workers=workers,
        fallback_engine="minhop",
    )
    sm.initial_configure(with_discovery=False)
    run_sequence(sm, "ftree", ops, link_ops_only=True)
