"""Tests for connection tracking and the Shared Port vs vSwitch motivation
experiment (paper sections I, III, IV-A)."""

import pytest

from repro.errors import MigrationError, VirtError
from repro.fabric.presets import scaled_fattree
from repro.virt.connections import ConnectionManager
from repro.virt.shared_port_fleet import SharedPortFleet
from tests.conftest import make_cloud


@pytest.fixture
def sp_fleet():
    built = scaled_fattree("2l-small")
    fleet = SharedPortFleet(built.topology, num_vfs=4)
    fleet.adopt_all_hcas()
    return fleet


class TestSharedPortFleet:
    def test_vms_share_hypervisor_lid(self, sp_fleet):
        a = sp_fleet.boot_vm(on="l0h0")
        b = sp_fleet.boot_vm(on="l0h0")
        assert a.lid == b.lid == sp_fleet.hcas["l0h0"].lid

    def test_migration_changes_lid(self, sp_fleet):
        vm = sp_fleet.boot_vm(on="l0h0")
        outcome = sp_fleet.migrate_vm(vm.name, "l3h3")
        assert outcome.lid_changed
        assert vm.lid == sp_fleet.hcas["l3h3"].lid
        assert vm.vguid is not None  # vGUID travelled

    def test_migration_to_self_rejected(self, sp_fleet):
        vm = sp_fleet.boot_vm(on="l0h0")
        with pytest.raises(MigrationError):
            sp_fleet.migrate_vm(vm.name, "l0h0")

    def test_lid_swap_variant_keeps_lid_but_hits_coresidents(self, sp_fleet):
        vm = sp_fleet.boot_vm(on="l0h0")
        bystander = sp_fleet.boot_vm(on="l0h0")
        bystander_lid = bystander.lid
        outcome = sp_fleet.migrate_vm_with_lid_swap(vm.name, "l3h3")
        assert not outcome.lid_changed  # the swap preserved the value
        assert bystander.name in outcome.collaterally_relocated
        assert bystander.lid != bystander_lid  # ...at the bystander's cost

    def test_co_residents(self, sp_fleet):
        a = sp_fleet.boot_vm(on="l1h1")
        b = sp_fleet.boot_vm(on="l1h1")
        assert sp_fleet.co_residents(a) == [b.name]

    def test_a_hypervisor_without_a_lid_is_a_typed_error(self, sp_fleet):
        sp_fleet.hcas["l1h1"].lid = None
        with pytest.raises(VirtError, match="'spvm1' holds no LID"):
            sp_fleet.boot_vm(on="l1h1")
        vm = sp_fleet.boot_vm(on="l0h0")
        with pytest.raises(MigrationError, match="'l1h1' holds no LID"):
            sp_fleet.migrate_vm_with_lid_swap(vm.name, "l1h1")
        with pytest.raises(MigrationError, match=f"{vm.name!r} holds no LID"):
            sp_fleet.migrate_vm(vm.name, "l1h1")


class TestConnectionManager:
    def test_connect_resolves_both_sides(self, sp_fleet):
        a = sp_fleet.boot_vm(on="l0h0")
        b = sp_fleet.boot_vm(on="l3h3")
        cm = ConnectionManager(sp_fleet.sa)
        conn = cm.connect(a.gid, b.gid)
        assert conn.a_cached_dlid == b.lid
        assert conn.b_cached_dlid == a.lid
        assert cm.count == 1

    def test_audit_healthy(self, sp_fleet):
        a = sp_fleet.boot_vm(on="l0h0")
        b = sp_fleet.boot_vm(on="l3h3")
        cm = ConnectionManager(sp_fleet.sa)
        cm.connect(a.gid, b.gid)
        audit = cm.audit()
        assert audit.broken_count == 0 and len(audit.healthy) == 1

    def test_orphan_detection(self, sp_fleet):
        a = sp_fleet.boot_vm(on="l0h0")
        b = sp_fleet.boot_vm(on="l3h3")
        cm = ConnectionManager(sp_fleet.sa)
        cm.connect(a.gid, b.gid)
        sp_fleet.sa.unregister(b.gid)
        assert len(cm.audit().orphaned) == 1
        assert cm.drop_orphans() == 1
        assert cm.count == 0

    def test_unknown_connection(self, sp_fleet):
        from repro.errors import VirtError

        cm = ConnectionManager(sp_fleet.sa)
        with pytest.raises(VirtError):
            cm.connection(99)


class TestMotivationExperiment:
    """The numbers behind section I: who breaks, and what repair costs."""

    def test_shared_port_migration_breaks_peers(self, sp_fleet):
        vm = sp_fleet.boot_vm(on="l0h0")
        peers = [sp_fleet.boot_vm(on=f"l{i}h{i}") for i in range(1, 5)]
        cm = ConnectionManager(sp_fleet.sa)
        for p in peers:
            cm.connect(p.gid, vm.gid)
        sp_fleet.migrate_vm(vm.name, "l5h5")
        audit = cm.audit()
        assert audit.broken_count == len(peers)  # every peer is stale

    def test_repair_costs_sa_queries(self, sp_fleet):
        vm = sp_fleet.boot_vm(on="l0h0")
        peers = [sp_fleet.boot_vm(on=f"l{i}h{i}") for i in range(1, 5)]
        cm = ConnectionManager(sp_fleet.sa)
        for p in peers:
            cm.connect(p.gid, vm.gid)
        sp_fleet.migrate_vm(vm.name, "l5h5")
        spent = cm.repair()
        assert spent >= len(peers)  # the SA query storm
        assert cm.audit().broken_count == 0

    def test_cache_absorbs_repeated_resolution(self, sp_fleet):
        # Reference [10]: with the cache, one SA round-trip refreshes the
        # migrated VM's record for all its peers.
        vm = sp_fleet.boot_vm(on="l0h0")
        peers = [sp_fleet.boot_vm(on=f"l{i}h{i}") for i in range(1, 5)]
        cm = ConnectionManager(sp_fleet.sa, use_cache=True)
        for p in peers:
            cm.connect(p.gid, vm.gid)
        sp_fleet.migrate_vm(vm.name, "l5h5")
        spent = cm.repair()
        nocache = ConnectionManager(sp_fleet.sa)  # fresh, for comparison
        assert spent <= len(peers)  # shared refresh via the cache

    def test_vswitch_migration_breaks_nothing(self, small_fattree):
        # The same experiment on the vSwitch cloud: zero broken, zero
        # repair queries — the architecture's whole point.
        cloud = make_cloud(small_fattree, lid_scheme="prepopulated")
        vm = cloud.boot_vm(on="l0h0")
        peers = [cloud.boot_vm(on=f"l{i}h{i}") for i in range(1, 5)]
        cm = ConnectionManager(cloud.sa)
        for p in peers:
            cm.connect(p.gid, vm.gid)
        cloud.live_migrate(vm.name, "l5h5")
        audit = cm.audit()
        assert audit.broken_count == 0
        assert cm.repair() == 0

    def test_lid_swap_emulation_collateral_damage(self, sp_fleet):
        # Why the paper could run only one VM per node: the swap breaks
        # connections of co-residents on both hypervisors.
        vm = sp_fleet.boot_vm(on="l0h0")
        bystander = sp_fleet.boot_vm(on="l0h0")
        remote = sp_fleet.boot_vm(on="l4h4")
        cm = ConnectionManager(sp_fleet.sa)
        cm.connect(remote.gid, bystander.gid)
        sp_fleet.migrate_vm_with_lid_swap(vm.name, "l5h5")
        audit = cm.audit()
        assert audit.broken_count == 1  # the bystander's connection died
