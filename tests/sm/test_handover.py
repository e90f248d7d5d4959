"""SM election, lease polling and takeover on the HA manager.

These are the behaviours the pre-HA ``SmRedundancyManager`` stub was
tested for (election order, polling through real SMPs, what a
state-sharing takeover costs against a re-sweeping one, where an SM may
run), asserted against :class:`~repro.sm.ha.HighAvailabilityManager`,
which superseded it. The protocol itself — leases, replication, fencing,
mid-distribution master loss — is covered in ``tests/sm/test_ha.py``.
"""

import pytest

from repro.errors import ReproError
from repro.fabric.addressing import GuidAllocator
from repro.obs import get_hub
from repro.sm.ha import HighAvailabilityManager, SmHaState
from repro.sm.subnet_manager import SubnetManager
from repro.sriov.shared_port import SharedPortHCA
from repro.sriov.vswitch import VSwitchHCA


@pytest.fixture
def redundant(small_fattree):
    sm = SubnetManager(small_fattree.topology, built=small_fattree)
    sm.initial_configure(with_discovery=False)
    mgr = HighAvailabilityManager(sm)
    topo = small_fattree.topology
    mgr.register(topo.hcas[0].name, guid=100, priority=5)
    mgr.register(topo.hcas[1].name, guid=50, priority=5)
    mgr.register(topo.hcas[2].name, guid=10, priority=1)
    return sm, mgr


def standby_of(mgr):
    return next(
        p for p in mgr.participants() if p.state is SmHaState.STANDBY
    )


class TestElection:
    def test_priority_wins(self, redundant):
        sm, mgr = redundant
        winner = mgr.bootstrap()
        # Priority 5 beats 1; among the two fives the lower GUID wins.
        assert winner.guid == 50
        assert winner.state is SmHaState.MASTER

    def test_losers_become_standby(self, redundant):
        sm, mgr = redundant
        mgr.bootstrap()
        states = [c.state for c in mgr.participants()]
        assert states.count(SmHaState.MASTER) == 1
        assert states.count(SmHaState.STANDBY) == 2

    def test_transport_follows_master(self, redundant):
        sm, mgr = redundant
        winner = mgr.bootstrap()
        assert sm.transport.sm_node.name == winner.node_name

    def test_duplicate_registration_rejected(self, redundant):
        sm, mgr = redundant
        with pytest.raises(ReproError):
            mgr.register(mgr.participants()[0].node_name, guid=1)

    def test_no_candidates_rejected(self, small_fattree):
        sm = SubnetManager(small_fattree.topology, built=small_fattree)
        mgr = HighAvailabilityManager(sm)
        with pytest.raises(ReproError):
            mgr.bootstrap()


def sminfo_smps():
    """SMInfo MADs sent so far, as the flight ring saw them."""
    return len(get_hub().flight.of_kind("sm_info"))


class TestPollingAndHandover:
    def test_poll_sends_sminfo(self, redundant):
        sm, mgr = redundant
        mgr.bootstrap()
        before = sminfo_smps()
        assert mgr.poll_master(standby_of(mgr))
        assert sminfo_smps() == before + 1

    def test_poll_detects_dead_master(self, redundant):
        # Through the SMInfo agent going silent, not by peeking at
        # ground truth: the poll is a real (retried, timed-out) SMP.
        sm, mgr = redundant
        mgr.bootstrap()
        mgr.kill_master()
        before = sminfo_smps()
        assert not mgr.poll_master(standby_of(mgr))
        assert sminfo_smps() > before

    def test_handover_promotes_next_candidate(self, redundant):
        sm, mgr = redundant
        first = mgr.bootstrap()
        mgr.kill_master()
        mgr.failover(first)
        second = mgr.master
        assert second is not None and second is not first
        assert second.guid == 100  # same priority, next-lowest GUID
        assert mgr.failovers == 1
        assert sm.transport.sm_node.name == second.node_name

    def test_state_sharing_handover_is_cheap(self, redundant):
        # The vSwitch-era answer to ref [10]'s SM restart: the successor
        # inherits routing state from its replica — zero PCt, zero LFT
        # SMPs — but the takeover is not free: the SMInfo handshake and
        # the verification sweep are real SMPs in the report.
        sm, mgr = redundant
        first = mgr.bootstrap()
        mgr.kill_master()
        report = mgr.failover(first)
        assert report.sweep_mode == "light"
        assert report.path_compute_seconds == 0.0
        assert report.lft_smps == 0
        assert report.handshake_smps > 0
        assert report.discovery is not None
        assert report.control_smps == (
            report.handshake_smps + report.discovery.smps_sent
        )

    def test_resweep_handover_pays_pct_but_no_lft_changes(self, redundant):
        # A successor that never received the journal (it joined after
        # the bootstrap seeded the replicas) takes over like the naive
        # restart of the ref-[10] prototype: full sweep and recompute.
        sm, mgr = redundant
        first = mgr.bootstrap()
        late = sm.topology.hcas[3].name
        mgr.register(late, guid=5, priority=5)
        mgr.kill_master()
        report = mgr.failover(first)
        assert mgr.master.node_name == late
        assert report.sweep_mode == "heavy"
        assert report.path_compute_seconds > 0
        # The routing is recomputed identically: diff distribution is empty.
        assert report.lft_smps == 0

    def test_kill_without_master_rejected(self, redundant):
        sm, mgr = redundant
        with pytest.raises(ReproError):
            mgr.kill_master()


class TestSmPlacementRules:
    def test_shared_port_vf_cannot_host_sm(self):
        # Shared Port VFs have a proxied QP0 that discards SMPs (§IV-A).
        from repro.fabric.node import HCA

        guids = GuidAllocator()
        sp = SharedPortHCA(HCA("h"), guids, num_vfs=2)
        assert sp.pf.can_run_sm
        assert not sp.vfs[0].can_run_sm

    def test_vswitch_vf_can_host_sm(self):
        # A vSwitch VF has a real QP0: an SM may run inside a VM (§IV-B).
        from repro.fabric.node import HCA

        guids = GuidAllocator()
        vsw = VSwitchHCA(HCA("h"), guids, num_vfs=2)
        assert vsw.pf.can_run_sm
        assert vsw.vfs[0].can_run_sm
