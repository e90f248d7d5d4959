"""Draining a hypervisor: every VM moves off and keeps its LID."""

import pytest

from repro.fabric.presets import scaled_fattree
from tests.conftest import make_cloud


@pytest.fixture
def busy_cloud():
    cloud = make_cloud(scaled_fattree("2l-small"), num_vfs=4)
    # Two VMs on the first host of every leaf.
    for leaf in range(6):
        for _ in range(2):
            cloud.boot_vm(on=f"l{leaf}h0")
    return cloud


class TestEvacuation:
    def test_evacuate_drains_node(self, busy_cloud):
        cloud = busy_cloud
        assert cloud.hypervisors["l0h0"].vm_count == 2
        reports = cloud.evacuate("l0h0")
        assert len(reports) == 2
        assert cloud.hypervisors["l0h0"].vm_count == 0
        for r in reports:
            assert r.source == "l0h0"
            assert cloud.vms[r.vm_name].is_running

    def test_evacuated_vms_keep_lids(self, busy_cloud):
        cloud = busy_cloud
        lids_before = {
            vm.name: vm.lid
            for vm in cloud.vms.values()
            if vm.hypervisor_name == "l1h0"
        }
        cloud.evacuate("l1h0")
        for name, lid in lids_before.items():
            assert cloud.vms[name].lid == lid
