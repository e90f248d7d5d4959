"""The mutation-first Topology API and the remove/re-add round-trip.

The regression this file pins down: removing a switch used to leave three
kinds of stale state behind — the dead Link objects stayed in the
topology's link registry, the removed switch kept its LFT and PMA
counters, and builder metadata (``built.roots``) kept pointing at the
stale object whose dense index had been reset to -1. A later re-add of
the same switch then silently routed on wrong state. The round-trip test
asserts byte-identical routing after remove -> re-add.
"""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.fabric.node import Switch
from repro.fabric.presets import scaled_fattree
from repro.fabric.topology import (
    MUTATION_KINDS,
    Topology,
    TopologyMutation,
)
from repro.sm.routing.base import RoutingRequest
from repro.sm.routing.registry import create_engine


def ring(n: int = 4, hosts: int = 1) -> Topology:
    topo = Topology("ring")
    sws = [topo.add_switch(f"s{i}", 8) for i in range(n)]
    for i in range(n):
        topo.connect(sws[i], 1, sws[(i + 1) % n], 2)
    for i in range(n):
        for h in range(hosts):
            hca = topo.add_hca(f"h{i}-{h}")
            topo.connect(hca, 1, sws[i], 3 + h)
    return topo


class TestMutationDataclass:
    def test_kinds_are_validated(self):
        with pytest.raises(TopologyError):
            TopologyMutation(kind="teleport_switch")
        for kind in MUTATION_KINDS:
            assert TopologyMutation(kind=kind).kind == kind

    def test_dict_round_trip(self):
        mutation = TopologyMutation(
            kind="add_switch",
            a="grown",
            num_ports=8,
            level=2,
            cables=((1, "s0", 5), (2, "s1", 5)),
        )
        assert TopologyMutation.from_dict(mutation.as_dict()) == mutation

    def test_describe_mentions_endpoints(self):
        mutation = TopologyMutation(
            kind="add_link", a="s0", port_a=4, b="s2", port_b=4
        )
        assert "s0:4" in mutation.describe()
        assert "s2:4" in mutation.describe()


class TestLinkMutations:
    def test_add_link_bumps_version_once_for_switch_cables(self):
        topo = ring()
        v = topo.version
        topo.add_link("s0", 5, "s2", 5)
        assert topo.version == v + 1

    def test_remove_link_drops_it_from_the_registry(self):
        topo = ring()
        link = topo.node("s0").port(1).link
        count = len(topo.links)
        v = topo.version
        removed = topo.remove_link(link)
        assert removed is link
        assert len(topo.links) == count - 1
        assert link not in topo.links
        assert topo.version == v + 1
        with pytest.raises(TopologyError):
            topo.remove_link(link)  # already gone

    def test_restore_link_replugs_original_ports(self):
        topo = ring()
        link = topo.node("s0").port(1).link
        removed = topo.remove_link(link)
        fresh = topo.restore_link(removed)
        end_a, end_b = fresh.ends
        assert {(p.node.name, p.num) for p in (end_a, end_b)} == {
            ("s0", 1),
            ("s1", 2),
        }
        assert fresh.latency == removed.latency

    def test_hca_cable_removal_does_not_bump(self):
        topo = ring()
        link = topo.node("h0-0").port(1).link
        v = topo.version
        topo.remove_link(link)
        assert topo.version == v


class TestRemoveSwitchCleanDetach:
    def test_removed_switch_forgets_forwarding_state(self):
        topo = ring()
        victim = topo.node("s2")
        assert isinstance(victim, Switch)
        topo.set_lft(victim.index, 5, 3)
        victim.port_counters(1).xmit_packets = 99
        # Detach its hosts first (leaf removal is refused otherwise).
        for hca in victim.attached_hcas():
            topo.remove_link(hca.port(1).link)
            # Re-home the stranded host so validate() stays happy.
            topo.auto_connect(hca, "s1")
        topo.remove_switch(victim)
        assert victim.index == -1
        assert victim.lid is None
        from repro.constants import LFT_UNSET

        assert victim.route(5) == LFT_UNSET  # row dropped with the switch
        assert victim.topology is None and topo.lft.shape[0] == topo.num_switches
        assert victim.port_counters(1).xmit_packets == 0
        assert all(
            victim not in (p.node for p in link.ends) for link in topo.links
        )


class TestRemoveReAddRoundTrip:
    """Satellite regression: remove -> re-add must be byte-identical."""

    @pytest.mark.parametrize("engine", ("minhop", "updn", "ftree"))
    def test_round_trip_routing_identical(self, engine):
        from repro.sm.subnet_manager import SubnetManager

        built = scaled_fattree("2l-small")
        topo = built.topology
        sm = SubnetManager(topo, engine=engine, built=built)
        sm.initial_configure(with_discovery=False)
        lids_before = {sw.name: sw.lid for sw in topo.switches}

        # Remove a spine (a root for updn/ftree), then re-add it with
        # exactly the cables it had.
        victim = built.roots[0]
        cables = [
            (p.num, p.remote.node.name, p.remote.num)
            for p in victim.connected_ports()
        ]
        # A switch death drops the switch's level entry like a planned
        # removal does (one state kernel), so note it beforehand.
        level = built.level.get(victim.name, -1)
        sm.handle_switch_failure(victim)
        assert victim.index == -1
        assert victim.name not in built.level

        re_add = TopologyMutation(
            kind="add_switch",
            a=victim.name,
            num_ports=victim.num_ports,
            level=level,
            cables=tuple(cables),
        )
        # verify=True runs the full delivery + SM-consistency audit, so
        # the distributed hardware LFTs provably match the tables.
        sm.handle_topology_change(re_add, verify=True)

        # Every LID (incl. the re-added switch's) comes back unchanged.
        assert {sw.name: sw.lid for sw in topo.switches} == lids_before
        # The regression: any stale state left by the removal — dead
        # links in the registry, a retained LFT, the stale root object in
        # built.roots — makes the live tables diverge from a cold
        # recompute on the re-grown fabric. They must be byte-identical.
        request = RoutingRequest.from_topology(topo, built=built)
        cold = create_engine(engine).compute(request)
        assert sm.current_tables.ports.tobytes() == cold.ports.tobytes()

    def test_re_added_root_is_seen_by_level_engines(self):
        """built.roots held a stale object after remove -> re-add; the
        request must resolve roots by *name* against the live topology."""
        from repro.sm.subnet_manager import SubnetManager

        built = scaled_fattree("2l-small")
        topo = built.topology
        SubnetManager(topo, built=built).assign_lids()
        victim = built.roots[0]
        cables = [
            (p.num, p.remote.node.name, p.remote.num)
            for p in victim.connected_ports()
        ]
        topo.unbind_lid(victim.lid)
        victim.lid = None
        topo.remove_switch(victim)
        fresh = topo.add_switch(victim.name, victim.num_ports)
        for local_port, peer, peer_port in cables:
            topo.connect(fresh, local_port, peer, peer_port)
        request = RoutingRequest.from_topology(topo, built=built)
        assert fresh.index in request.root_indices
        # And the whole fabric still routes with the level-aware engine.
        create_engine("ftree").compute(request)
