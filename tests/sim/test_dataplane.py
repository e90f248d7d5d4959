"""Tests for the credit-based data-plane simulator (section VI-C claims)."""

import pytest

from repro.core.reconfig import VSwitchReconfigurer
from repro.errors import SimulationError
from repro.fabric.builders.generic import build_ring
from repro.fabric.presets import scaled_fattree
from repro.sim.dataplane import DataPlaneSimulator
from repro.sm.subnet_manager import SubnetManager
from repro.workloads.traffic import all_to_all_flows


def routed_subnet(built, engine="minhop"):
    sm = SubnetManager(built.topology, built=built, engine=engine)
    sm.initial_configure(with_discovery=False)
    return sm


class TestBasics:
    def test_single_packet_delivered(self, small_fattree):
        sm = routed_subnet(small_fattree)
        topo = small_fattree.topology
        sim = DataPlaneSimulator(topo)
        src = topo.hcas[0].lid
        dst = topo.hcas[-1].lid
        sim.inject(src, dst)
        stats = sim.run()
        assert stats.delivered == 1
        assert stats.in_flight == 0
        assert stats.latencies[0] > 0

    def test_all_to_all_on_fattree_all_delivered(self, small_fattree):
        sm = routed_subnet(small_fattree)
        topo = small_fattree.topology
        lids = [h.lid for h in topo.hcas[:12]]
        sim = DataPlaneSimulator(topo, channel_credits=2)
        sim.inject_flows(all_to_all_flows(lids), spacing=1e-7)
        stats = sim.run()
        assert stats.delivered == stats.injected
        assert stats.dropped_timeout == 0

    def test_intra_leaf_faster_than_cross_leaf(self, small_fattree):
        sm = routed_subnet(small_fattree)
        topo = small_fattree.topology
        sim = DataPlaneSimulator(topo)
        sim.inject(topo.hcas[0].lid, topo.hcas[1].lid)  # same leaf
        sim.run()
        near = sim.stats.latencies[-1]
        sim.inject(topo.hcas[0].lid, topo.hcas[-1].lid)  # across spines
        sim.run()
        far = sim.stats.latencies[-1]
        assert far > near

    def test_unrouted_destination_dropped(self, small_fattree):
        # An unprogrammed LFT entry IS the drop port (255) on real
        # hardware, so unrouted traffic counts as a port-255 drop.
        sm = routed_subnet(small_fattree)
        topo = small_fattree.topology
        sim = DataPlaneSimulator(topo)
        sim.inject(topo.hcas[0].lid, 40000)
        stats = sim.run()
        assert stats.dropped_port255 == 1
        assert stats.in_flight == 0

    def test_a_lid_beyond_every_table_drops_as_port255(self, small_fattree):
        # LFT_UNSET == LFT_DROP_PORT: an entry past the table is the drop
        # port, charged to port 0 of the source's leaf; ``no_route`` is
        # only ever a dead port's HOQ expiry.
        sm = routed_subnet(small_fattree)
        topo = small_fattree.topology
        host = topo.hcas[0]
        assert topo.lft.shape[1] <= 40000
        sim = DataPlaneSimulator(topo)
        sim.inject(host.lid, 40000)
        stats = sim.run()
        leaf = host.ports[1].remote.node.name
        assert stats.dropped_by_port == {(leaf, 0, "port255"): 1}
        assert (stats.dropped_port255, stats.dropped_no_route) == (1, 0)

    def test_validation(self, small_fattree):
        topo = small_fattree.topology
        with pytest.raises(SimulationError):
            DataPlaneSimulator(topo, channel_credits=0)
        with pytest.raises(SimulationError):
            DataPlaneSimulator(topo, hop_time=0)
        sim = DataPlaneSimulator(topo)
        with pytest.raises(SimulationError):
            sim.inject(40000, 1)


class TestPort255Invalidation:
    def test_invalidated_lid_traffic_dropped(self, small_fattree):
        # Section VI-C: the partially-static mitigation forwards the
        # migrating LID to port 255 so packets are dropped, not deadlocked.
        sm = routed_subnet(small_fattree)
        topo = small_fattree.topology
        victim = topo.hcas[-1].lid
        VSwitchReconfigurer(sm).invalidate_lid(victim)
        sim = DataPlaneSimulator(topo)
        sim.inject(topo.hcas[0].lid, victim)
        sim.inject(topo.hcas[0].lid, topo.hcas[1].lid)  # bystander
        stats = sim.run()
        assert stats.dropped_port255 == 1
        assert stats.delivered == 1  # only the victim's traffic is affected


class TestDeadlockAndTimeouts:
    def _ring_sim(self, engine, credits=1):
        built = build_ring(6, 1)
        sm = routed_subnet(built, engine=engine)
        topo = built.topology
        lids = [h.lid for h in topo.hcas]
        sim = DataPlaneSimulator(
            topo, channel_credits=credits, hop_time=1e-6, hoq_timeout=50e-6
        )
        # Every host sends to the host 3 ahead: minimal routes chase each
        # other around the ring and fill every channel.
        flows = [(lids[i], lids[(i + 3) % 6]) for i in range(6)] * 4
        sim.inject_flows(flows)
        return sim

    def test_minhop_ring_deadlocks_resolved_by_timeouts(self):
        # The paper: "deadlocks could possibly occur ... and they will be
        # resolved by IB timeouts".
        sim = self._ring_sim("minhop", credits=1)
        stats = sim.run()
        assert stats.in_flight == 0  # nothing stuck forever
        assert stats.dropped_timeout > 0  # the deadlock was real
        assert stats.delivered > 0  # and the timeouts un-stuck the rest

    def test_updn_ring_never_times_out(self):
        # Up*/Down* breaks the cycle: same traffic, zero timeouts.
        sim = self._ring_sim("updn", credits=1)
        stats = sim.run()
        assert stats.dropped_timeout == 0
        assert stats.delivered == stats.injected

    def test_more_credits_reduce_blocking(self):
        lean = self._ring_sim("minhop", credits=1)
        lean_stats = lean.run()
        roomy = self._ring_sim("minhop", credits=8)
        roomy_stats = roomy.run()
        assert roomy_stats.dropped_timeout <= lean_stats.dropped_timeout


class TestMidFlightReconfiguration:
    def test_traffic_follows_migrated_lid(self, small_fattree):
        # Reconfigure while packets are in flight: late packets follow the
        # updated LFTs to the VM's new location.
        sm = routed_subnet(small_fattree)
        topo = small_fattree.topology
        h_src = topo.hcas[0]
        h_old = topo.hcas[-1]
        h_new = topo.hcas[-7]  # different leaf
        vm_lid = sm.lid_manager.assign_extra_lid(h_old.port(1))
        sm.compute_routing()
        sm.distribute()
        rec = VSwitchReconfigurer(sm)

        sim = DataPlaneSimulator(topo, hop_time=1e-6)
        for i in range(10):
            sim.inject(h_src.lid, vm_lid, delay=i * 5e-6)

        def migrate() -> None:
            rec.copy_path(h_new.port(1).lid, vm_lid)
            sm.lid_manager.move_lid(vm_lid, h_new.port(1))

        sim.engine.schedule(22e-6, migrate)
        stats = sim.run()
        # All packets delivered: early ones at the old host, late ones at
        # the new one, none lost to the reconfiguration itself.
        assert stats.delivered == stats.injected
        assert stats.dropped_timeout == 0


class TestVirtualLanes:
    def test_dfsssp_vl_separation_prevents_deadlock(self):
        # DFSSSP on a ring is cyclic per-CDG on one lane but splits
        # destinations over VLs; giving each VL its own credits makes the
        # simulated traffic deadlock free where single-lane minhop stalls.
        built = build_ring(6, 1)
        sm = SubnetManager(built.topology, built=built, engine="dfsssp")
        sm.initial_configure(with_discovery=False)
        lid_to_vl = sm.current_tables.metadata["lid_to_vl"]
        assert sm.current_tables.num_vls >= 2
        topo = built.topology
        lids = [h.lid for h in topo.hcas]
        flows = [(lids[i], lids[(i + 3) % 6]) for i in range(6)] * 4
        sim = DataPlaneSimulator(
            topo,
            channel_credits=1,
            hop_time=1e-6,
            hoq_timeout=50e-6,
            lid_to_vl=lid_to_vl,
        )
        sim.inject_flows(flows)
        stats = sim.run()
        assert stats.dropped_timeout == 0
        assert stats.delivered == stats.injected

    def test_same_routes_without_vls_deadlock(self):
        # Ablation: identical DFSSSP routes but all traffic forced onto one
        # lane -> the deadlock reappears and timeouts fire.
        built = build_ring(6, 1)
        sm = SubnetManager(built.topology, built=built, engine="dfsssp")
        sm.initial_configure(with_discovery=False)
        topo = built.topology
        lids = [h.lid for h in topo.hcas]
        flows = [(lids[i], lids[(i + 3) % 6]) for i in range(6)] * 4
        sim = DataPlaneSimulator(
            topo, channel_credits=1, hop_time=1e-6, hoq_timeout=50e-6
        )
        sim.inject_flows(flows)
        stats = sim.run()
        assert stats.in_flight == 0
        assert stats.dropped_timeout > 0


class TestSafeSwapUnderTraffic:
    def test_safe_swap_drops_instead_of_misroutes(self, small_fattree):
        # The section VI-C partially-static swap: packets racing the
        # reconfiguration are dropped at the invalidated entries (port 255)
        # and nothing deadlocks; packets after the swap deliver at the new
        # attachment.
        sm = routed_subnet(small_fattree)
        topo = small_fattree.topology
        h_src = topo.hcas[0]
        h_a, h_b = topo.hcas[10], topo.hcas[-1]
        lid_a = sm.lid_manager.assign_extra_lid(h_a.port(1))
        lid_b = sm.lid_manager.assign_extra_lid(h_b.port(1))
        sm.compute_routing()
        sm.distribute()
        rec = VSwitchReconfigurer(sm)

        sim = DataPlaneSimulator(topo, hop_time=1e-6)
        for i in range(40):
            sim.inject(h_src.lid, lid_a, delay=i * 2e-6)

        # Phase 1 (t=15us): invalidate — the reconfiguration window opens
        # and traffic toward the moving LID is dropped at the switches.
        sim.engine.schedule(15e-6, lambda: rec.invalidate_lid(lid_a))

        # Phase 2 (t=40us): the actual swap lands and the window closes.
        def finish_swap():
            rec.swap_lids(lid_a, lid_b)
            sm.lid_manager.move_lid(lid_a, h_b.port(1))
            sm.lid_manager.move_lid(lid_b, h_a.port(1))
            # The freed VF LID inherited the invalidated (port-255) column;
            # re-establish it along its new hypervisor's path, as the next
            # VM boot would (the production safe_swap_lids does this in one
            # step by recomputing from the SM's recorded tables).
            rec.copy_path(h_a.port(1).lid, lid_b)

        sim.engine.schedule(40e-6, finish_swap)
        stats = sim.run()
        assert stats.in_flight == 0
        assert stats.dropped_timeout == 0  # never wedged
        # Everything either delivered or was cleanly dropped by port 255.
        assert stats.delivered + stats.dropped_port255 == stats.injected
        # Packets genuinely hit the invalidation window...
        assert stats.dropped_port255 > 0
        # ...and traffic before and after the window delivered.
        assert stats.delivered > 0
