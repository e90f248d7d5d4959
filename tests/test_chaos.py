"""Chaos runs: end-to-end fault injection, the no-third-state property,
deterministic replay, and the ``repro chaos`` CLI."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.fabric.builders import build_two_level_fattree
from repro.fabric.presets import scaled_fattree
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.mad.reliable import RetryPolicy
from repro.obs import reset_hub
from repro.virt.cloud import CloudManager
from repro.workloads.chaos import ChaosReport, ChaosRunner
from repro.workloads.churn import ChurnWorkload
from tests.conftest import make_cloud


def tiny_cloud(lid_scheme="prepopulated"):
    """4-leaf fat-tree: big enough to migrate, small enough for loops."""
    built = build_two_level_fattree(4, 2, 2, switch_radix=8)
    cloud = CloudManager(
        built.topology, built=built, lid_scheme=lid_scheme, num_vfs=2
    )
    cloud.adopt_all_hcas()
    cloud.bring_up_subnet()
    return cloud


def lft_snapshot(cloud):
    return {
        sw.name: sw.topology.lft[sw.index].copy()
        for sw in cloud.topology.switches
    }


def lfts_equal(a, b):
    return set(a) == set(b) and all(
        np.array_equal(a[k], b[k]) for k in a
    )


class TestChaosRunner:
    def test_quiet_plan_run_is_clean(self):
        cloud = tiny_cloud()
        runner = ChaosRunner(cloud, FaultPlan(seed=1))
        report = runner.run(10)
        assert report.ok
        assert report.smp_retries == 0
        assert report.fault_summary["drop"] == 0

    def test_lossy_run_verifies_clean(self):
        cloud = tiny_cloud()
        runner = ChaosRunner(
            cloud,
            FaultPlan(seed=2, smp_drop_rate=0.15),
            retry_policy=RetryPolicy(retries=8),
        )
        report = runner.run(15)
        assert report.verified
        assert not report.verification_failures
        assert report.smp_retries > 0
        assert report.fault_summary["drop"] > 0

    def test_fabric_events_fire_and_fabric_survives(self):
        cloud = make_cloud(scaled_fattree("2l-small"))
        runner = ChaosRunner(
            cloud,
            FaultPlan(seed=3, link_flap_rate=0.4, switch_failure_rate=0.2),
        )
        report = runner.run(8)
        assert report.link_flaps + report.switch_failures > 0
        assert report.reroute_smps > 0
        assert report.ok

    def test_sm_death_elects_successor_that_finishes(self):
        cloud = make_cloud(scaled_fattree("2l-small"))
        runner = ChaosRunner(cloud, FaultPlan(seed=4, sm_death_step=2))
        old_master = runner.ha.master.node_name
        report = runner.run(6)
        assert report.sm_failovers == 1
        new_master = runner.ha.master
        assert new_master is not None
        assert new_master.node_name != old_master
        assert cloud.sm.transport.sm_node.name == new_master.node_name
        assert report.ok

    def test_migration_overhead_ledger(self):
        cloud = tiny_cloud()
        runner = ChaosRunner(
            cloud,
            FaultPlan(seed=5, smp_drop_rate=0.2),
            retry_policy=RetryPolicy(retries=10),
            migrate_probability=0.8,
        )
        report = runner.run(20)
        assert report.churn.migrations > 0
        assert report.ideal_migration_smps > 0
        assert report.achieved_migration_smps >= report.ideal_migration_smps
        assert report.smp_overhead_ratio >= 1.0
        assert 0.0 <= report.downtime_inflation <= 1.0

    def test_rewire_run_is_clean_and_cold_identical(self):
        cloud = make_cloud(scaled_fattree("2l-small"))
        runner = ChaosRunner(
            cloud, FaultPlan(seed=3, rewire_ops=6, link_flap_rate=0.05)
        )
        report = runner.run(30)
        assert report.ok
        assert report.rewires == 6
        assert report.rewire_kinds  # at least one mutation kind exercised
        # Every mutation passed its post-apply subnet audit, and the
        # final warm tables match a cold recompute byte-for-byte.
        assert not report.rewire_audit_failures
        assert report.final_routing_cold_identical is True
        assert report.rewire_repair_incremental > 0
        text = report.render()
        assert "rewires: 6 performed" in text
        assert "byte-identical" in text

    def test_rewire_repairs_fewer_sources_than_full_sweeps(self):
        cloud = make_cloud(scaled_fattree("2l-small"))
        sm = cloud.sm
        n = cloud.topology.num_switches
        before = sm.routing_state.stats.snapshot()
        runner = ChaosRunner(cloud, FaultPlan(seed=3, rewire_ops=6))
        report = runner.run(30)
        delta = sm.routing_state.stats.delta_since(before)
        assert report.rewires > 0
        assert delta["repairs"] > 0
        # The point of incremental repair: strictly fewer BFS source
        # sweeps than recomputing every source per mutation.
        assert report.rewire_sources_repaired == delta["sources_repaired"]
        assert delta["sources_repaired"] < delta["repairs"] * n

    def test_flap_heal_repairs_incrementally(self):
        """Satellite: a chaos flap's heal rides the addition-repair path —
        no full recompute, and fewer sources reswept than a full sweep."""
        cloud = make_cloud(scaled_fattree("2l-small"))
        sm = cloud.sm
        n = cloud.topology.num_switches
        before = sm.routing_state.stats.snapshot()
        runner = ChaosRunner(cloud, FaultPlan(seed=7, link_flap_rate=0.5))
        report = runner.run(10)
        delta = sm.routing_state.stats.delta_since(before)
        assert report.link_flaps > 0
        assert report.ok
        assert delta["full_recomputes"] == 0
        # Each flap costs two repairs (down + heal), each resweeping a
        # strict subset of the fabric's sources.
        assert delta["repairs"] >= 2 * report.link_flaps
        assert 0 < delta["sources_repaired"] < delta["repairs"] * n

    def test_render_is_complete(self):
        report = ChaosReport(steps=5, plan="seed=1")
        report.verified = True
        text = report.render()
        assert "verification: clean" in text
        report.verification_failures = ["LID 7 at s0: wrong port"]
        assert "FAILED" in report.render()
        assert not report.ok


class TestDeterminism:
    def test_identical_seeds_replay_bit_identically(self):
        def one_run():
            reset_hub()
            cloud = tiny_cloud()
            runner = ChaosRunner(
                cloud,
                FaultPlan(
                    seed=11, smp_drop_rate=0.2, link_flap_rate=0.1
                ),
                retry_policy=RetryPolicy(retries=8),
                migrate_probability=0.3,
            )
            report = runner.run(15)
            return report.render(), lft_snapshot(cloud)

        text_a, lfts_a = one_run()
        text_b, lfts_b = one_run()
        assert text_a == text_b
        assert lfts_equal(lfts_a, lfts_b)

    def test_quiet_injector_is_zero_cost(self):
        """With no faults configured, attaching the machinery changes
        nothing: churn reports are bit-identical to a bare run."""

        def churn_report(attach_quiet_injector):
            reset_hub()
            cloud = tiny_cloud()
            if attach_quiet_injector:
                cloud.sm.transport.set_fault_injector(
                    FaultInjector(FaultPlan(seed=0))
                )
            report = ChurnWorkload(cloud, seed=6).run(25)
            return report, cloud.sm.transport.stats.snapshot()

        bare, bare_stats = churn_report(False)
        wired, wired_stats = churn_report(True)
        assert bare == wired
        assert bare_stats == wired_stats


class TestNoThirdState:
    """The headline robustness property: a migration under SMP loss with
    retries either completes with the exact fault-free forwarding state
    or rolls back to the exact pre-migration state — never in between."""

    _reference = None

    @classmethod
    def reference_lfts(cls):
        if cls._reference is None:
            cloud = tiny_cloud()
            pre = lft_snapshot(cloud)
            for _ in range(2):
                cloud.boot_vm()
            vm = cloud.vms["vm1"]
            dest = next(
                h.name
                for h in cloud.hypervisors.values()
                if h.name != vm.hypervisor_name and h.has_capacity()
            )
            pre = lft_snapshot(cloud)
            cloud.live_migrate("vm1", dest)
            cls._reference = (dest, pre, lft_snapshot(cloud))
        return cls._reference

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        drop=st.floats(min_value=0.0, max_value=0.3),
        corrupt=st.floats(min_value=0.0, max_value=0.15),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_lossy_migration_has_no_third_state(self, drop, corrupt, seed):
        reset_hub()
        dest, pre_lfts, completed_lfts = self.reference_lfts()
        cloud = tiny_cloud()
        cloud.sm.enable_resilience(RetryPolicy(retries=16))
        for _ in range(2):
            cloud.boot_vm()
        cloud.sm.transport.set_fault_injector(
            FaultInjector(
                FaultPlan(
                    seed=seed,
                    smp_drop_rate=drop,
                    smp_corrupt_rate=corrupt,
                )
            )
        )
        report = cloud.live_migrate("vm1", dest)
        cloud.sm.transport.set_fault_injector(None)
        final = lft_snapshot(cloud)
        assert report.outcome in ("completed", "rolled_back")
        if report.outcome == "completed":
            assert lfts_equal(final, completed_lfts)
        else:
            assert lfts_equal(final, pre_lfts)


class TestChaosCli:
    def test_chaos_smoke_exits_zero(self, capsys):
        rc = main(
            [
                "chaos",
                "--inject",
                "smp-drop=0.1",
                "--steps",
                "10",
                "--seed",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "verification: clean" in out

    def test_bad_spec_exits_two(self, capsys):
        rc = main(["chaos", "--inject", "gremlins=1"])
        assert rc == 2

    def test_bad_profile_exits_two(self, capsys):
        rc = main(["chaos", "--profile", "moebius"])
        assert rc == 2
