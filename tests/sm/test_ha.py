"""Tests for the SM high-availability protocol: leases, failover,
replication, split-brain fencing — plus the property that losing the
master at *any* point during a transactional distribution leaves the
subnet in exactly the old or the new routing with exactly one master.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.static.suite import preset_builders
from repro.analysis.verification import verify_sm_consistency, verify_subnet
from repro.core.reconfig import VSwitchReconfigurer
from repro.errors import DistributionError, HighAvailabilityError
from repro.fabric.node import Switch
from repro.fabric.presets import scaled_fattree
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.mad.reliable import ReliableSmpSender, RetryPolicy
from repro.sm.ha import (
    HighAvailabilityManager,
    ReplicationJournal,
    SmHaState,
    StandbyReplica,
)
from repro.sm.subnet_manager import SubnetManager


def lft_snapshot(sm):
    return {
        sw.name: sw.topology.lft[sw.index].copy()
        for sw in sm.topology.switches
    }


def lfts_equal(a, b):
    return set(a) == set(b) and all(
        np.array_equal(a[name], b[name]) for name in a
    )


def build_ha_sm(*, retries=1, lease_misses=2, journal_capacity=2048):
    """Configured fat-tree SM with three registered HA participants."""
    built = scaled_fattree("2l-small")
    sm = SubnetManager(built.topology, engine="minhop", built=built)
    sm.enable_resilience(RetryPolicy(retries=retries))
    sm.initial_configure(with_discovery=False)
    ha = HighAvailabilityManager(
        sm, lease_misses=lease_misses, journal_capacity=journal_capacity
    )
    hcas = built.topology.hcas
    ha.register(hcas[0].name, guid=10, priority=10)
    ha.register(hcas[1].name, guid=20, priority=5)
    ha.register(hcas[2].name, guid=30, priority=1)
    ha.bootstrap()
    return sm, ha


def first_interswitch_link(sm):
    for link in sm.topology.links:
        if all(isinstance(p.node, Switch) for p in link.ends):
            return link
    raise AssertionError("no inter-switch link")


#: One Algorithm-1 edit: (kind, HCA index, HCA index).
vswitch_op = st.tuples(
    st.sampled_from(["swap", "copy", "invalidate", "skyline-swap"]),
    st.integers(min_value=0, max_value=11),
    st.integers(min_value=0, max_value=11),
)


class TestMembershipAndBootstrap:
    def test_bootstrap_elects_highest_priority(self):
        sm, ha = build_ha_sm()
        master = ha.master
        assert master is not None and master.priority == 10
        assert sm.transport.sm_node.name == master.node_name
        assert sm.ha is ha

    def test_bootstrap_seeds_standby_replicas(self):
        sm, ha = build_ha_sm()
        standbys = [
            p for p in ha.participants() if p.state is SmHaState.STANDBY
        ]
        assert len(standbys) == 2
        for p in standbys:
            replica = ha.replica(p.node_name)
            assert replica is not None
            assert replica.is_current(ha.journal)
            assert replica.tables_payload is not None

    def test_register_unknown_node_rejected(self):
        sm, ha = build_ha_sm()
        with pytest.raises(HighAvailabilityError):
            ha.register("no-such-node", guid=99)


class TestLeaseDetection:
    def test_healthy_master_is_not_suspected(self):
        sm, ha = build_ha_sm()
        for _ in range(4):
            assert ha.tick() is None
        assert ha.failovers == 0

    def test_dead_master_detected_only_after_lease_expiry(self):
        sm, ha = build_ha_sm(lease_misses=2)
        ha.kill_master()
        # First missed lease: still only a suspicion.
        assert ha.tick() is None
        assert ha.failovers == 0
        # Second miss expires the lease and triggers the takeover.
        report = ha.tick()
        assert report is not None
        assert ha.failovers == 1
        assert ha.has_master

    def test_current_replica_gives_light_sweep(self):
        sm, ha = build_ha_sm()
        ha.kill_master()
        report = None
        while report is None:
            report = ha.tick()
        assert report.sweep_mode == "light"
        assert report.path_compute_seconds == 0.0
        assert report.handshake_smps > 0
        assert report.journal_entries_replayed > 0
        # Acceptance: a light failover programs at most the pending diff.
        assert (
            ha.last_failover_distributed_blocks
            <= ha.last_failover_pending_blocks
        )
        assert verify_sm_consistency(sm, static=False).ok

    def test_stale_replica_forces_heavy_sweep(self):
        sm, ha = build_ha_sm()
        injector = FaultInjector(FaultPlan(seed=5))
        sm.transport.set_fault_injector(injector)
        successor = min(
            (p for p in ha.participants() if not p.is_master),
            key=lambda p: p.election_key(),
        )
        # Replication to the successor is lost: its replica goes stale.
        injector.isolate([successor.node_name])
        sm.compute_routing()
        assert ha.replication_failures > 0
        injector.heal()
        ha.kill_master()
        report = None
        while report is None:
            report = ha.tick()
        assert report.sweep_mode == "heavy"
        assert report.path_compute_seconds > 0
        assert verify_sm_consistency(sm, static=False).ok


class TestLightFailoverKeepsLanes:
    @pytest.mark.parametrize("preset", ("ring6", "torus4x4"))
    @pytest.mark.parametrize("engine", ("lash", "dfsssp"))
    def test_successor_audits_the_lanes_it_inherited(self, preset, engine):
        # A VL-routed ring or torus is cyclic on one lane: a successor that
        # inherits the ports without the assignment reads CDG001.
        built = preset_builders()[preset]()
        sm = SubnetManager(built.topology, engine=engine, built=built)
        sm.initial_configure()
        ha = HighAvailabilityManager(sm)
        hcas = built.topology.hcas
        ha.register(hcas[0].name, guid=10, priority=10)
        ha.register(hcas[1].name, guid=20, priority=5)
        ha.bootstrap()
        lanes = sm.current_tables.lanes
        assert verify_subnet(sm).ok
        old_master = ha.master
        ha.kill_master()
        assert ha.failover(old_master).sweep_mode == "light"
        inherited = sm.current_tables.lanes
        assert inherited is not None and inherited is not lanes
        assert np.array_equal(inherited, lanes)
        report = verify_subnet(sm)
        assert report.ok, report.problems()


class TestReplication:
    def test_journal_truncation_blocks_incremental_resync(self):
        journal = ReplicationJournal(capacity=4)
        for i in range(8):
            journal.append("lid", {"h": i})
        assert journal.oldest_seq == 5
        assert journal.entries_since(2) is None
        assert [e.seq for e in journal.entries_since(6)] == [7, 8]

    def test_journal_misuse_raises_typed_errors(self):
        with pytest.raises(HighAvailabilityError, match="capacity"):
            ReplicationJournal(capacity=0)
        journal = ReplicationJournal()
        with pytest.raises(HighAvailabilityError, match="unknown journal entry"):
            journal.append("bogus", {})
        assert len(journal) == 0 and journal.head_seq == 0

    def test_replica_refuses_gaps(self):
        replica = StandbyReplica("h")
        replica.apply([{"seq": 1, "kind": "lid", "payload": {"a": 1}}])
        # Seq 2 was lost; 3 must be refused.
        applied = replica.apply(
            [{"seq": 3, "kind": "lid", "payload": {"b": 2}}]
        )
        assert applied == 0
        assert replica.gaps == 1
        assert replica.applied_seq == 1

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=st.lists(vswitch_op, min_size=1, max_size=6))
    def test_replica_mirrors_vswitch_ops(self, ops):
        """master == replica == hardware after every Algorithm-1 edit:
        the SM's recorded tables and a standby's replica take the same
        column op through the same function, and both agree with the
        switches' LFTs on every column touched so far."""
        sm, ha = build_ha_sm()
        reconfigurer = VSwitchReconfigurer(sm)
        standby = next(
            p for p in ha.participants() if p.state is SmHaState.STANDBY
        )
        hcas = sm.topology.hcas
        leaf = hcas[0].ports[1].remote.node
        same_leaf = [
            h.lid for h in hcas if h.ports[1].remote.node is leaf
        ]
        far = sm.current_tables.top_lid + 70  # beyond the recorded matrix
        touched = set()
        for kind, i, j in ops:
            a, b = hcas[i].lid, hcas[j].lid
            if kind == "swap" and a != b:
                reconfigurer.swap_lids(a, b)
                touched |= {a, b}
            elif kind == "copy":
                reconfigurer.copy_path(a, far + j)  # grows on first use
                touched |= {a, far + j}
            elif kind == "invalidate":
                reconfigurer.invalidate_lid(a)
                touched.add(a)
            elif kind == "skyline-swap":
                a, b = same_leaf[i % 2], same_leaf[2 + j % 2]
                reconfigurer.swap_lids(a, b, limit_switches={leaf.index})
                touched |= {a, b}
            recorded = sm.current_tables.ports
            replica = ha.replica(standby.node_name)
            assert replica.is_current(ha.journal)
            assert np.array_equal(replica.routing_tables().ports, recorded)
            for sw in sm.topology.switches:
                for lid in touched:
                    assert sw.route(lid) == recorded[sw.index, lid]

    def test_standby_the_ring_truncated_past_pays_the_heavy_sweep(self):
        """A standby that fell further behind than the journal's ring
        keeps can never be caught up from it: resync says so (``None``,
        not ``0``) and sends nothing, and a failover onto that standby is
        the heavy sweep — after which the fabric verifies clean and the
        surviving standby holds a current replica of the new master."""
        sm, ha = build_ha_sm(journal_capacity=4)
        injector = FaultInjector(FaultPlan(seed=5))
        sm.transport.set_fault_injector(injector)
        successor, survivor = sorted(
            (p for p in ha.participants() if not p.is_master),
            key=lambda p: p.election_key(),
        )
        replica = ha.replica(successor.node_name)
        assert replica.applied_seq == 2  # the bootstrap seed: LIDs, tables
        injector.isolate([successor.node_name])
        for i in range(6):
            ha.note_lids({f"extra-{i}": 900 + i})
        injector.heal()
        assert ha.journal.head_seq >= 8 and ha.journal.oldest_seq > 3
        before = sm.transport.stats.snapshot()
        assert ha.resync_standby(successor.node_name) is None
        assert sm.transport.stats.delta_since(before).total_smps == 0
        assert ha.replica(successor.node_name) is replica
        assert replica.applied_seq == 2 and "extra-0" not in replica.lids
        assert not replica.is_current(ha.journal)
        ha.kill_master()
        report = None
        while report is None:
            report = ha.tick()
        assert ha.master is successor
        assert report.sweep_mode == "heavy"
        assert report.path_compute_seconds > 0
        assert verify_subnet(sm).ok
        assert ha.replica(successor.node_name) is None  # it is the master now
        assert ha.replica(survivor.node_name).is_current(ha.journal)

    def test_resync_catches_a_standby_up(self):
        sm, ha = build_ha_sm()
        injector = FaultInjector(FaultPlan(seed=5))
        sm.transport.set_fault_injector(injector)
        standby = next(
            p for p in ha.participants() if p.state is SmHaState.STANDBY
        )
        injector.isolate([standby.node_name])
        sm.assign_lids()
        injector.heal()
        replica = ha.replica(standby.node_name)
        assert not replica.is_current(ha.journal)
        sent = ha.resync_standby(standby.node_name)
        assert sent > 0
        assert ha.replica(standby.node_name).is_current(ha.journal)


class TestSplitBrainFencing:
    def test_partitioned_master_is_fenced_and_demoted(self):
        sm, ha = build_ha_sm()
        injector = FaultInjector(FaultPlan(seed=9))
        sm.transport.set_fault_injector(injector)
        old_master = ha.master
        injector.isolate([old_master.node_name])
        report = None
        for _ in range(5):
            report = ha.tick()
            if report is not None:
                break
        assert report is not None
        assert len(ha.masters()) == 2  # split brain while partitioned
        injector.heal()
        before = sm.transport.stats.snapshot()
        assert ha.reassert_stale_master(old_master.node_name) == "demoted"
        delta = sm.transport.stats.delta_since(before)
        assert delta.stale_rejected >= 1
        assert len(ha.masters()) == 1
        assert old_master.state is SmHaState.STANDBY
        assert ha.demotions == 1

    def test_generation_is_monotonic_across_failovers(self):
        sm, ha = build_ha_sm()
        g0 = ha.generation
        ha.kill_master()
        while ha.tick() is None:
            pass
        assert ha.generation > g0


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    victim_idx=st.integers(min_value=0, max_value=11),
    mode=st.sampled_from(["death", "partition"]),
)
def test_master_loss_mid_distribution_is_atomic(victim_idx, mode):
    """Losing the master at any point during a transactional LFT
    distribution leaves the subnet in exactly the old or the new routing,
    and the HA protocol converges on exactly one master.
    """
    sm, ha = build_ha_sm()
    old = lft_snapshot(sm)
    # A topology change makes the next routing genuinely different.
    events_link = first_interswitch_link(sm)
    from repro.sm.traps import FabricEventManager

    FabricEventManager(sm).report_link_down(events_link)
    sm.compute_routing()
    # The master dies after having programmed only the switches the
    # injector lets through: all writes to the victim switch are lost,
    # so the transactional pass rolls back partway in.
    victim = sm.topology.switches[victim_idx].name
    sm.transport.set_fault_injector(
        FaultInjector(FaultPlan(seed=3, per_target_drop={victim: 1.0}))
    )
    try:
        sm.distribute()
        interrupted = False
    except DistributionError:
        interrupted = True
    sm.transport.set_fault_injector(None)
    mid = lft_snapshot(sm)
    if interrupted:
        # Rolled back: still exactly the old routing, not a hybrid.
        assert lfts_equal(mid, old)
    old_master = ha.master
    if mode == "death":
        ha.kill_master()
    else:
        injector = FaultInjector(FaultPlan(seed=4))
        sm.transport.set_fault_injector(injector)
        injector.isolate([old_master.node_name])
    report = None
    for _ in range(2 * ha.lease_misses + 1):
        report = ha.tick()
        if report is not None:
            break
    assert report is not None, "lease expiry never triggered a failover"
    if mode == "partition":
        injector.heal()
        assert ha.reassert_stale_master(old_master.node_name) == "demoted"
        sm.transport.set_fault_injector(None)
    # Exactly one master, and it is alive.
    assert len(ha.masters()) == 1
    assert ha.has_master
    assert ha.master is not old_master
    # The successor completed the distribution: the fabric forwards
    # exactly the new routing (the transactional guarantee end-to-end).
    assert verify_sm_consistency(sm, static=False).ok
    new = lft_snapshot(sm)
    assert not lfts_equal(new, old)


def test_stale_sender_generation_blocks_lft_writes():
    """A sender stamped with an old generation cannot program LFTs."""
    from repro.errors import StaleGenerationError
    from repro.mad.smp import Smp, SmpKind, SmpMethod

    sm, ha = build_ha_sm()
    stale_gen = ha.generation
    ha.kill_master()
    while ha.tick() is None:
        pass
    stale = ReliableSmpSender(
        sm.transport, RetryPolicy(retries=1), generation=stale_gen
    )
    target = sm.topology.switches[0].name
    with pytest.raises(StaleGenerationError):
        stale.send(
            Smp(
                SmpMethod.SET,
                SmpKind.LFT_BLOCK,
                target,
                payload={"block": 0, "entries": [0] * 64},
            )
        )
