"""Transactional LFT distribution: read-back verification and rollback."""

import re

import numpy as np
import pytest

from repro.errors import DistributionError
from repro.fabric.presets import scaled_fattree
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, ScriptedFault
from repro.mad.reliable import ReliableSmpSender, RetryPolicy
from repro.obs import get_hub
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


def fresh_sm(*, resilient=True, retries=16):
    built = scaled_fattree("2l-small")
    sm = SubnetManager(built.topology, engine="minhop", built=built)
    if resilient:
        sm.enable_resilience(RetryPolicy(retries=retries))
    return sm


class TestResilienceWiring:
    def test_enable_resilience_wraps_transport(self):
        sm = fresh_sm()
        assert isinstance(sm.smp_sender, ReliableSmpSender)
        assert sm.distributor.sender is sm.smp_sender
        assert sm.distributor.transactional is True

    def test_enable_resilience_is_idempotent(self):
        sm = fresh_sm()
        first = sm.smp_sender
        second = sm.enable_resilience(RetryPolicy(retries=2))
        assert second is first
        assert first.policy.retries == 2

    def test_default_sm_is_not_transactional(self):
        sm = fresh_sm(resilient=False)
        assert sm.smp_sender is sm.transport
        assert sm.distributor.transactional is False


class TestVerifiedDistribution:
    def test_lossless_transactional_matches_plain(self):
        plain = fresh_sm(resilient=False)
        plain.initial_configure(with_discovery=False)
        transactional = fresh_sm()
        report = transactional.initial_configure(with_discovery=False)
        assert lfts_equal(lft_snapshot(plain), lft_snapshot(transactional))
        assert report.distribution.verified_blocks > 0
        assert report.distribution.resyncs == 0

    def test_drop_and_corruption_survive_with_identical_lfts(self):
        reference = fresh_sm(resilient=False)
        reference.initial_configure(with_discovery=False)

        sm = fresh_sm(retries=16)
        sm.transport.set_fault_injector(
            FaultInjector(
                FaultPlan(seed=7, smp_drop_rate=0.2, smp_corrupt_rate=0.1)
            )
        )
        sm.initial_configure(with_discovery=False)
        sm.transport.set_fault_injector(None)
        assert lfts_equal(lft_snapshot(reference), lft_snapshot(sm))

    def test_corruption_triggers_resync(self):
        sm = fresh_sm()
        # Corrupt exactly one in-flight LFT write; the read-back must
        # catch it and force a re-sync round.
        sm.transport.set_fault_injector(
            FaultInjector(
                FaultPlan(
                    scripted=(
                        ScriptedFault(
                            action="corrupt", kind="lft_block", nth=1
                        ),
                    )
                )
            )
        )
        report = sm.initial_configure(with_discovery=False)
        sm.transport.set_fault_injector(None)
        assert report.distribution.resyncs >= 1
        # The end state is still exactly the computed routing.
        from repro.analysis.verification import verify_sm_consistency

        assert verify_sm_consistency(sm, static=False).ok


class TestRollback:
    def test_unreachable_switch_rolls_back_whole_pass(self):
        sm = fresh_sm(retries=1)
        sm.assign_lids()
        sm.compute_routing()
        before = lft_snapshot(sm)
        victim = sm.topology.switches[-1].name
        sm.transport.set_fault_injector(
            FaultInjector(FaultPlan(seed=3, per_target_drop={victim: 1.0}))
        )
        with pytest.raises(DistributionError, match="rolled back"):
            sm.distribute()
        sm.transport.set_fault_injector(None)
        assert lfts_equal(before, lft_snapshot(sm))

    def test_rollback_restores_through_verified_block_writes(self):
        sm = fresh_sm(retries=1)
        sm.assign_lids()
        sm.compute_routing()
        victim = sm.topology.switches[-1].name
        sm.transport.set_fault_injector(
            FaultInjector(FaultPlan(seed=3, per_target_drop={victim: 1.0}))
        )
        with pytest.raises(DistributionError) as failed:
            sm.distribute()
        applied = int(re.search(r"rolled back (\d+) applied", str(failed.value))[1])
        events = get_hub().flight.of_kind("lft_block")
        healthy = [e.method for e in events if e.target != victim]
        # Forward writes and their restores alike go block by block: one
        # SET, then its GET read-back.
        assert applied > 0
        assert healthy == ["set", "get"] * (2 * applied)
        assert {e.status for e in events if e.target == victim} == {"dropped"}

    def test_rolled_back_flag_set(self):
        sm = fresh_sm(retries=1)
        sm.assign_lids()
        sm.compute_routing()
        victim = sm.topology.switches[0].name
        sm.transport.set_fault_injector(
            FaultInjector(FaultPlan(seed=4, per_target_drop={victim: 1.0}))
        )
        try:
            sm.distribute()
        except DistributionError:
            pass
        finally:
            sm.transport.set_fault_injector(None)
        # A later fault-free pass completes the interrupted distribution.
        report = sm.distribute()
        assert not report.rolled_back
        from repro.analysis.verification import verify_sm_consistency

        assert verify_sm_consistency(sm, static=False).ok
