"""Evacuation under injected SMP faults: every migration rolls back or
completes — a half-moved VM or a half-routed subnet is never left behind.

Same idiom as ``tests/core/test_migration_rollback.py``, aimed at
:meth:`~repro.virt.cloud.CloudManager.evacuate` (the maintenance-drain
flexibility argument of the paper's sections V-B/VI).
"""

import numpy as np
import pytest

from repro.analysis.verification import verify_subnet
from repro.fabric.presets import scaled_fattree
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, ScriptedFault
from repro.mad.reliable import RetryPolicy
from tests.conftest import make_cloud


def evac_cloud(*, lid_scheme="dynamic", retries=8, vms_on_source=3):
    """Cloud with *vms_on_source* VMs pinned to one hypervisor."""
    cloud = make_cloud(scaled_fattree("2l-small"), lid_scheme=lid_scheme)
    cloud.sm.enable_resilience(RetryPolicy(retries=retries))
    source = sorted(cloud.hypervisors)[0]
    for _ in range(vms_on_source):
        cloud.boot_vm(on=source)
    return cloud, source


def snapshot(cloud):
    lfts = {
        sw.name: sw.topology.lft[sw.index].copy()
        for sw in cloud.topology.switches
    }
    vms = {
        name: (vm.state.name, vm.hypervisor_name, vm.lid)
        for name, vm in cloud.vms.items()
    }
    return lfts, vms


@pytest.mark.parametrize("scheme", ["prepopulated", "dynamic"])
class TestEvacuateUnderFaults:
    def test_fault_free_evacuate_drains(self, scheme):
        cloud, source = evac_cloud(lid_scheme=scheme)
        reports = cloud.evacuate(source)
        assert len(reports) == 3
        assert all(r.outcome == "completed" for r in reports)
        assert not list(cloud.hypervisors[source].running_vms())
        assert verify_subnet(cloud.sm).problems() == []

    def test_lossy_evacuate_completes_with_retries(self, scheme):
        cloud, source = evac_cloud(lid_scheme=scheme, retries=16)
        cloud.sm.transport.set_fault_injector(
            FaultInjector(FaultPlan(seed=11, smp_drop_rate=0.1))
        )
        reports = cloud.evacuate(source)
        cloud.sm.transport.set_fault_injector(None)
        assert all(r.outcome == "completed" for r in reports)
        assert not list(cloud.hypervisors[source].running_vms())
        assert verify_subnet(cloud.sm).problems() == []

    def test_fatal_fault_rolls_back_not_corrupts(self, scheme):
        """A switch going persistently deaf mid-drain must leave each
        migration either fully applied or fully rolled back — the nth
        cut-over lets early migrations land before the fault arms."""
        cloud, source = evac_cloud(lid_scheme=scheme, retries=1)
        _, vms_before = snapshot(cloud)
        victim = cloud.topology.switches[0].name
        cloud.sm.transport.set_fault_injector(
            FaultInjector(
                FaultPlan(
                    seed=5,
                    scripted=(
                        ScriptedFault(
                            action="drop",
                            target=victim,
                            kind="lft_block",
                            nth=5,
                            count=10_000,
                        ),
                    ),
                )
            )
        )
        reports = cloud.evacuate(source)
        cloud.sm.transport.set_fault_injector(None)
        assert reports, "evacuation attempted no migrations"
        assert all(
            r.outcome in ("completed", "rolled_back") for r in reports
        )
        assert any(r.outcome == "rolled_back" for r in reports)
        for r in reports:
            vm = cloud.vms[r.vm_name]
            if r.outcome == "completed":
                assert vm.hypervisor_name == r.destination
            else:
                # rolled back: the VM never left the source
                assert vm.hypervisor_name == source
                assert vm.state.name == vms_before[r.vm_name][0]
        assert verify_subnet(cloud.sm).problems() == []

    def test_rolled_back_evacuation_restores_routing(self, scheme):
        """A dead switch kills every migration; the subnet must be
        byte-identical to its pre-evacuation state."""
        cloud, source = evac_cloud(lid_scheme=scheme, retries=1)
        lfts_before, vms_before = snapshot(cloud)
        victim = cloud.topology.switches[0].name
        cloud.sm.transport.set_fault_injector(
            FaultInjector(FaultPlan(seed=5, per_target_drop={victim: 1.0}))
        )
        reports = cloud.evacuate(source)
        cloud.sm.transport.set_fault_injector(None)
        assert reports
        assert all(r.outcome == "rolled_back" for r in reports)
        lfts_after, vms_after = snapshot(cloud)
        assert vms_after == vms_before
        assert all(
            np.array_equal(lfts_after[k], lfts_before[k])
            for k in lfts_before
        )
        assert verify_subnet(cloud.sm).problems() == []


class TestPartialDrain:
    def test_capacity_exhaustion_is_a_partial_drain(self):
        """Filling every other hypervisor strands the overflow on the
        source — evacuate returns the partial work instead of dying."""
        cloud = make_cloud(scaled_fattree("2l-small"), lid_scheme="dynamic")
        source = sorted(cloud.hypervisors)[0]
        for name, hyp in cloud.hypervisors.items():
            fill = 4 if name == source else 3
            for _ in range(fill):
                cloud.boot_vm(on=name)
        # one free VF per non-source node; 4 VMs to move; plenty of room
        # — now remove the slack by topping every other node up
        for name, hyp in cloud.hypervisors.items():
            if name != source:
                cloud.boot_vm(on=name)
        reports = cloud.evacuate(source)
        assert reports == []
        stranded = list(cloud.hypervisors[source].running_vms())
        assert len(stranded) == 4  # everyone stayed, still running
        assert all(vm.is_running for vm in stranded)
        assert verify_subnet(cloud.sm).problems() == []
