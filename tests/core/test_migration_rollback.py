"""Migration failure state machine: completed / rolled_back / failed."""

import numpy as np
import pytest

from repro.errors import TransportError
from repro.fabric.presets import scaled_fattree
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, ScriptedFault
from repro.mad.reliable import RetryPolicy
from tests.conftest import make_cloud


def cloud_state(cloud):
    """Everything a rollback must restore, hashable for comparison."""
    lfts = {
        sw.name: sw.topology.lft[sw.index].copy()
        for sw in cloud.topology.switches
    }
    vfs = {
        vf.name: (vf.state.name, vf.lid, vf.guid)
        for h in cloud.hypervisors.values()
        for vf in h.vswitch.vfs
    }
    vms = {
        name: (vm.state.name, vm.hypervisor_name, vm.vf.name if vm.vf else None)
        for name, vm in cloud.vms.items()
    }
    return lfts, vfs, vms


def states_equal(a, b):
    lfts_a, vfs_a, vms_a = a
    lfts_b, vfs_b, vms_b = b
    return (
        set(lfts_a) == set(lfts_b)
        and all(np.array_equal(lfts_a[k], lfts_b[k]) for k in lfts_a)
        and vfs_a == vfs_b
        and vms_a == vms_b
    )


def resilient_cloud(*, lid_scheme="prepopulated", retries=8, booted=3):
    cloud = make_cloud(scaled_fattree("2l-small"), lid_scheme=lid_scheme)
    cloud.sm.enable_resilience(RetryPolicy(retries=retries))
    for _ in range(booted):
        cloud.boot_vm()
    return cloud


def migration_pair(cloud, vm_name="vm1"):
    vm = cloud.vms[vm_name]
    src = vm.hypervisor_name
    dest = next(
        h.name
        for h in cloud.hypervisors.values()
        if h.name != src and h.has_capacity()
    )
    return src, dest


@pytest.mark.parametrize("scheme", ["prepopulated", "dynamic"])
class TestOutcomes:
    def test_fault_free_is_completed(self, scheme):
        cloud = resilient_cloud(lid_scheme=scheme)
        src, dest = migration_pair(cloud)
        report = cloud.live_migrate("vm1", dest)
        assert report.outcome == "completed"
        assert report.completed
        assert report.failure is None
        assert cloud.vms["vm1"].hypervisor_name == dest

    def test_lossy_with_retries_matches_fault_free(self, scheme):
        reference = resilient_cloud(lid_scheme=scheme, retries=16)
        src, dest = migration_pair(reference)
        reference.live_migrate("vm1", dest)

        lossy = resilient_cloud(lid_scheme=scheme, retries=16)
        lossy.sm.transport.set_fault_injector(
            FaultInjector(FaultPlan(seed=3, smp_drop_rate=0.1))
        )
        report = lossy.live_migrate("vm1", dest)
        lossy.sm.transport.set_fault_injector(None)
        assert report.outcome == "completed"
        assert report.smp_retries > 0 or report.smp_timeouts == 0
        assert states_equal(cloud_state(reference), cloud_state(lossy))

    def test_corrupted_lft_write_is_caught_and_resynced(self, scheme):
        """A silently corrupted SET on the migration fast path must be
        caught by the reconfigurer's read-back, not leak into hardware."""
        reference = resilient_cloud(lid_scheme=scheme, retries=16)
        src, dest = migration_pair(reference)
        reference.live_migrate("vm1", dest)

        corrupted = resilient_cloud(lid_scheme=scheme, retries=16)
        corrupted.sm.transport.set_fault_injector(
            FaultInjector(
                FaultPlan(
                    seed=4,
                    scripted=(
                        ScriptedFault(action="corrupt", kind="lft_block"),
                    ),
                )
            )
        )
        report = corrupted.live_migrate("vm1", dest)
        corrupted.sm.transport.set_fault_injector(None)
        assert report.outcome == "completed"
        assert states_equal(cloud_state(reference), cloud_state(corrupted))

    def test_dead_switch_rolls_back_to_exact_pre_state(self, scheme):
        cloud = resilient_cloud(lid_scheme=scheme, retries=2)
        src, dest = migration_pair(cloud)
        before = cloud_state(cloud)
        victim = cloud.topology.switches[0].name
        cloud.sm.transport.set_fault_injector(
            FaultInjector(FaultPlan(seed=1, per_target_drop={victim: 1.0}))
        )
        report = cloud.live_migrate("vm1", dest)
        cloud.sm.transport.set_fault_injector(None)
        assert report.outcome == "rolled_back"
        assert report.failure is not None
        assert states_equal(before, cloud_state(cloud))
        assert cloud.vms["vm1"].hypervisor_name == src
        # The rolled-back VM is alive and can migrate once the fault clears.
        retry = cloud.live_migrate("vm1", dest)
        assert retry.outcome == "completed"

    def test_total_loss_restores_vm_at_source(self, scheme):
        cloud = resilient_cloud(lid_scheme=scheme, retries=2)
        before = cloud_state(cloud)
        src, dest = migration_pair(cloud)
        cloud.sm.transport.set_fault_injector(
            FaultInjector(FaultPlan(seed=2, smp_drop_rate=1.0))
        )
        report = cloud.live_migrate("vm1", dest)
        cloud.sm.transport.set_fault_injector(None)
        # With the whole control plane dark even the compensation cannot
        # be confirmed: the outcome is failed, never a silent third state.
        assert report.outcome in ("rolled_back", "failed")
        assert cloud.vms["vm1"].hypervisor_name == src
        assert cloud.vms["vm1"].is_running
        # Drops never apply their effect, so the fabric state is in fact
        # untouched even though the SM could not prove it.
        assert states_equal(before, cloud_state(cloud))


class TestReportTelemetry:
    def test_retry_overhead_recorded(self):
        cloud = resilient_cloud(retries=16)
        _, dest = migration_pair(cloud)
        cloud.sm.transport.set_fault_injector(
            FaultInjector(FaultPlan(seed=5, smp_drop_rate=0.3))
        )
        report = cloud.live_migrate("vm1", dest)
        cloud.sm.transport.set_fault_injector(None)
        assert report.outcome == "completed"
        assert report.smp_retries > 0
        assert report.smp_timeouts > 0
        assert report.retry_wait_seconds > 0
        # Retry backoff inflates downtime.
        assert report.downtime_seconds > 0

    def test_failure_metric_emitted_on_rollback(self):
        from repro.obs import get_hub

        cloud = resilient_cloud(retries=1)
        _, dest = migration_pair(cloud)
        victim = cloud.topology.switches[0].name
        cloud.sm.transport.set_fault_injector(
            FaultInjector(FaultPlan(seed=6, per_target_drop={victim: 1.0}))
        )
        report = cloud.live_migrate("vm1", dest)
        cloud.sm.transport.set_fault_injector(None)
        assert report.outcome == "rolled_back"
        exposition = get_hub().metrics.render_prometheus()
        assert "repro_migration_failures_total" in exposition


class TestBootRollback:
    def test_dynamic_boot_failure_releases_lid_and_vf(self):
        cloud = make_cloud(scaled_fattree("2l-small"), lid_scheme="dynamic")
        cloud.sm.enable_resilience(RetryPolicy(retries=1))
        lids_before = cloud.sm.lids_consumed
        vms_before = set(cloud.vms)
        cloud.sm.transport.set_fault_injector(
            FaultInjector(FaultPlan(seed=9, smp_drop_rate=1.0))
        )
        with pytest.raises(TransportError):
            cloud.boot_vm()
        cloud.sm.transport.set_fault_injector(None)
        assert cloud.sm.lids_consumed == lids_before
        assert set(cloud.vms) == vms_before
        # The freed VF is reusable: the next boot succeeds.
        vm = cloud.boot_vm()
        assert vm.is_running
