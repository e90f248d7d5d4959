"""Property-based routing validation on randomized topologies.

The paper's reconfiguration is topology agnostic; the agnostic routing
engines (and the migration machinery) must therefore hold up on arbitrary
connected switch graphs, not just the shapes we hand-picked. Hypothesis
samples random regular graphs and random migrations.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.static import FabricSnapshot, check_deadlock_freedom
from repro.fabric.builders.generic import build_random_regular
from repro.sm.routing.base import RoutingRequest
from repro.sm.routing.registry import create_engine
from repro.sm.subnet_manager import SubnetManager
from repro.core.reconfig import VSwitchReconfigurer
from repro.core.skyline import minimal_update_set
from repro.virt.cloud import CloudManager
from tests.oracles.delivery import validate

_settings = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_and_route(n_switches, degree, seed, engine):
    built = build_random_regular(n_switches, degree, 2, seed=seed)
    sm = SubnetManager(built.topology, built=built, engine=engine)
    sm.initial_configure(with_discovery=False)
    request = RoutingRequest.from_topology(built.topology, built=built)
    return built, sm, request


class TestRandomTopologies:
    @_settings
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        engine=st.sampled_from(["minhop", "updn"]),
    )
    def test_engines_valid_on_random_regular(self, seed, engine):
        built, sm, request = build_and_route(8, 3, seed, engine)
        validate(sm.current_tables, request)

    @_settings
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_updn_deadlock_free_on_random_regular(self, seed):
        built, sm, _ = build_and_route(8, 3, seed, "updn")
        snap = FabricSnapshot.from_topology(
            built.topology, sm.current_tables.ports
        )
        assert check_deadlock_freedom(snap, lids=snap.lids) == []

    @_settings
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        src=st.integers(min_value=0, max_value=15),
        dst=st.integers(min_value=0, max_value=15),
    )
    def test_swap_preserves_validity(self, seed, src, dst):
        built, sm, request = build_and_route(8, 3, seed, "minhop")
        topo = built.topology
        hcas = topo.hcas
        h_src, h_dst = hcas[src % len(hcas)], hcas[dst % len(hcas)]
        lid_a = sm.lid_manager.assign_extra_lid(h_src.port(1))
        lid_b = sm.lid_manager.assign_extra_lid(h_dst.port(1))
        sm.compute_routing()
        sm.distribute()
        VSwitchReconfigurer(sm).swap_lids(lid_a, lid_b)
        # After the swap, lid_a must deliver at h_dst's switch port and
        # lid_b at h_src's — walk the hardware LFTs from every switch.
        for lid, host in ((lid_a, h_dst), (lid_b, h_src)):
            attach = host.port(1).remote
            switches = topo.switches
            p2p = {}
            for sw in switches:
                for port in sw.connected_ports():
                    if port.remote.node.is_switch:
                        p2p[(sw.index, port.num)] = port.remote.node.index
            for start in switches:
                cur = start
                hops = 0
                while cur is not attach.node:
                    nxt = p2p.get((cur.index, cur.route(lid)))
                    assert nxt is not None
                    cur = switches[nxt]
                    hops += 1
                    assert hops <= len(switches)
                assert cur.route(lid) == attach.num

    @_settings
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        pick=st.integers(min_value=0, max_value=1_000),
    )
    def test_minimal_update_set_sound_on_random_regular(self, seed, pick):
        built, sm, request = build_and_route(8, 3, seed, "minhop")
        topo = built.topology
        hcas = topo.hcas
        src = hcas[pick % len(hcas)]
        dst = hcas[(pick // 7 + 1) % len(hcas)]
        vm_lid = sm.lid_manager.assign_extra_lid(src.port(1))
        sm.compute_routing()
        sm.distribute()
        updates = minimal_update_set(topo, vm_lid, dst.port(1).lid and dst.port(1))
        # Soundness: apply new entries (dst's own routing) on the update
        # set, leave stale entries elsewhere, and verify delivery from all
        # switches.
        template = dst.port(1).lid
        attach = dst.port(1).remote
        switches = topo.switches
        p2p = {}
        for sw in switches:
            for port in sw.connected_ports():
                if port.remote.node.is_switch:
                    p2p[(sw.index, port.num)] = port.remote.node.index
        for start in switches:
            cur = start
            hops = 0
            while True:
                if cur is attach.node:
                    break
                out = (
                    cur.route(template)
                    if cur.index in updates
                    else cur.route(vm_lid)
                )
                nxt = p2p.get((cur.index, out))
                assert nxt is not None, (
                    f"stale mixture strands LID {vm_lid} at {cur.name}"
                )
                cur = switches[nxt]
                hops += 1
                assert hops <= len(switches)


class TestCloudOnRandomRegular:
    def test_migration_is_topology_agnostic(self):
        # The paper's reconfiguration is topology agnostic: the same cloud
        # stack migrates a VM on a Jellyfish-style graph unchanged.
        built = build_random_regular(8, 3, 2, seed=7)
        cloud = CloudManager(
            built.topology, built=built, lid_scheme="prepopulated", num_vfs=2
        )
        cloud.adopt_all_hcas()
        cloud.bring_up_subnet()
        first, *_, last = sorted(cloud.hypervisors)
        vm = cloud.boot_vm(on=first)
        report = cloud.live_migrate(vm.name, last)
        assert report.reconfig.path_compute_seconds == 0.0
        assert 1 <= report.reconfig.lft_smps <= 2 * built.topology.num_switches
        assert vm.lid == report.vm_lid
