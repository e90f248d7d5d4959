"""Stateful property-based testing of the cloud (hypothesis state machines).

Random interleavings of VM boots, stops and live migrations must preserve
the subnet's core invariants at every step:

* every VM's LID is bound to its hypervisor's uplink port;
* the switches' hardware LFTs agree with the SM's recorded routing;
* every running VM is reachable from every leaf switch by walking the
  hardware LFTs;
* LID accounting never leaks or double-assigns.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.constants import LFT_UNSET
from repro.fabric.presets import scaled_fattree
from repro.virt.cloud import CloudManager


def _walk(topology, start_switch, lid, max_hops=32):
    """Follow hardware LFTs from *start_switch* to *lid*'s host port."""
    cur = start_switch
    for _ in range(max_hops):
        port = topology.port_of_lid(lid)
        attach = port.remote
        if attach is not None and attach.node is cur:
            return cur.route(lid) == attach.num
        out = cur.route(lid)
        if out == LFT_UNSET:
            return False
        nxt = None
        for p in cur.connected_ports():
            if p.num == out:
                nxt = p.remote.node
        if nxt is None or not nxt.is_switch:
            return False
        cur = nxt
    return False


class CloudMachine(RuleBasedStateMachine):
    """Drives one cloud with random lifecycle operations."""

    scheme = "prepopulated"

    @initialize()
    def setup(self):
        built = scaled_fattree("2l-small")
        self.cloud = CloudManager(
            built.topology, built=built, lid_scheme=self.scheme, num_vfs=2
        )
        self.cloud.adopt_all_hcas()
        self.cloud.bring_up_subnet()
        self.hyp_names = sorted(self.cloud.hypervisors)

    # -- rules ---------------------------------------------------------------

    @rule(pick=st.integers(min_value=0, max_value=10 ** 6))
    def boot(self, pick):
        candidates = [
            n
            for n in self.hyp_names
            if self.cloud.hypervisors[n].has_capacity()
        ]
        if candidates:
            self.cloud.boot_vm(on=candidates[pick % len(candidates)])

    @rule(pick=st.integers(min_value=0, max_value=10 ** 6))
    def stop(self, pick):
        names = sorted(
            n for n, vm in self.cloud.vms.items() if vm.is_running
        )
        if names:
            self.cloud.stop_vm(names[pick % len(names)])

    @rule(
        pick_vm=st.integers(min_value=0, max_value=10 ** 6),
        pick_dest=st.integers(min_value=0, max_value=10 ** 6),
    )
    def migrate(self, pick_vm, pick_dest):
        names = sorted(
            n for n, vm in self.cloud.vms.items() if vm.is_running
        )
        if not names:
            return
        vm = self.cloud.vms[names[pick_vm % len(names)]]
        dests = [
            n
            for n in self.hyp_names
            if n != vm.hypervisor_name
            and self.cloud.hypervisors[n].has_capacity()
        ]
        if dests:
            self.cloud.live_migrate(vm.name, dests[pick_dest % len(dests)])

    # -- invariants -------------------------------------------------------------

    @invariant()
    def vm_lids_bound_to_their_hypervisors(self):
        if not hasattr(self, "cloud"):
            return
        for vm in self.cloud.vms.values():
            if not vm.is_running:
                continue
            hyp = self.cloud.hypervisors[vm.hypervisor_name]
            assert self.cloud.topology.port_of_lid(vm.lid) is hyp.uplink_port

    @invariant()
    def hardware_matches_recorded_routing(self):
        if not hasattr(self, "cloud"):
            return
        tables = self.cloud.sm.current_tables
        for sw in self.cloud.topology.switches:
            for vm in self.cloud.vms.values():
                if vm.lid is not None:
                    assert sw.route(vm.lid) == tables.port_for(
                        sw.index, vm.lid
                    )

    @invariant()
    def running_vms_reachable_from_every_leaf(self):
        if not hasattr(self, "cloud"):
            return
        topo = self.cloud.topology
        leaves = topo.leaf_switches()
        for vm in self.cloud.vms.values():
            if not vm.is_running:
                continue
            for leaf in leaves[::2]:  # sample every other leaf for speed
                assert _walk(topo, leaf, vm.lid), (
                    f"{vm.name} (LID {vm.lid}) unreachable from {leaf.name}"
                )

    @invariant()
    def lid_accounting_consistent(self):
        if not hasattr(self, "cloud"):
            return
        allocator = self.cloud.sm.lid_manager.allocator
        bound = set(self.cloud.topology.bound_lids())
        held = set(allocator.allocated())
        assert bound <= held  # every bound LID is owned


class PrepopulatedCloudMachine(CloudMachine):
    scheme = "prepopulated"


class DynamicCloudMachine(CloudMachine):
    scheme = "dynamic"


_settings = settings(
    max_examples=12,
    stateful_step_count=16,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TestPrepopulatedCloud = PrepopulatedCloudMachine.TestCase
TestPrepopulatedCloud.settings = _settings
TestDynamicCloud = DynamicCloudMachine.TestCase
TestDynamicCloud.settings = _settings
