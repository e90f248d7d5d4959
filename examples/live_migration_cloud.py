#!/usr/bin/env python
"""The section VII-B emulation, end to end — and what it could not show.

The paper's testbed ran OpenStack on real Shared Port hardware, which forced
one VM per compute node (all co-resident VMs share the hypervisor's LID, so
migrating one with its LID breaks the rest). This example first reproduces
that constraint on the Shared Port model, then runs the same 4-step
OpenStack/OpenSM workflow on the proposed vSwitch architecture where the
constraint disappears:

1. detach the SR-IOV VF, start the live migration;
2. the cloud manager signals the SM;
3. the SM reconfigures: VF address SMPs + the LFT swap;
4. re-attach a VF holding the VM's vGUID at the destination.

Run:  python examples/live_migration_cloud.py
"""

from repro import CloudManager, SharedPortHCA, scaled_fattree
from repro.fabric.addressing import GuidAllocator


def shared_port_constraint() -> None:
    """Why the emulation was limited to one VM per node (section VII-B)."""
    print("=== Shared Port: the emulation constraint ===")
    built = scaled_fattree("2l-small")
    hca = built.topology.hcas[0]
    shared = SharedPortHCA(hca, GuidAllocator(), num_vfs=4)
    shared.lid = 99
    vf1 = shared.attach_vm("vm-a")
    shared.attach_vm("vm-b")
    shared.attach_vm("vm-c")
    victims = shared.vms_sharing_lid_with(vf1)
    print(f"hypervisor LID {shared.lid} is shared by: {shared.active_vms()}")
    print(
        f"migrating vm-a with that LID would break connectivity for"
        f" {victims} -> at most one VM per node on real hardware\n"
    )


def vswitch_migration(scheme: str) -> None:
    """The 4-step flow against the vSwitch architecture."""
    print(f"=== vSwitch migration, {scheme} LID scheme ===")
    built = scaled_fattree("2l-small")
    cloud = CloudManager(
        built.topology, built=built, lid_scheme=scheme, num_vfs=4
    )
    cloud.adopt_all_hcas()
    cloud.bring_up_subnet()

    # Multiple VMs per hypervisor: no Shared Port constraint.
    vms = [cloud.boot_vm(on="l0h0") for _ in range(3)]
    vm = vms[0]
    print(
        f"{len(vms)} co-resident VMs on l0h0 with distinct LIDs:"
        f" {[v.lid for v in vms]}"
    )

    for dest, label in [("l0h1", "intra-leaf"), ("l4h2", "inter-leaf")]:
        report = cloud.live_migrate(vm.name, dest)
        print(
            f"{label:11s} -> {dest}: mode={report.mode},"
            f" n'={report.switches_updated},"
            f" LFT SMPs={report.reconfig.lft_smps},"
            f" addr SMPs={report.address_update_smps},"
            f" reconfig={report.reconfig.serial_time * 1e6:.1f} us,"
            f" downtime~{report.downtime_seconds:.2f} s (VF detach/attach bound)"
        )
    others = [v for v in vms[1:]]
    print(
        f"co-resident VMs unaffected: "
        f"{[ (v.name, v.lid, v.hypervisor_name) for v in others ]}"
    )

    # Peers keep communicating without new SA queries (ref [10] caching).
    from repro.virt.sa_cache import SaPathCache

    cache = SaPathCache(cloud.sa)
    cache.resolve(vm.gid)  # one query before any further migration
    cloud.live_migrate(vm.name, "l2h3")
    assert cache.entry_still_valid(vm.gid)
    print(
        "SA path-record cache entry still valid after migration"
        f" (LID {vm.lid} travelled with the VM); queries saved so far:"
        f" {cache.stats.queries_saved}\n"
    )


def minimal_reconfiguration() -> None:
    """Section VI-D: the leaf-only update for intra-leaf migrations."""
    print("=== minimal (skyline-limited) intra-leaf reconfiguration ===")
    built = scaled_fattree("2l-small")
    cloud = CloudManager(
        built.topology, built=built, lid_scheme="prepopulated", num_vfs=4
    )
    cloud.adopt_all_hcas()
    cloud.bring_up_subnet()
    vm = cloud.boot_vm(on="l3h0")

    cloud.orchestrator.minimal_intra_leaf = False
    deterministic = cloud.live_migrate(vm.name, "l3h1")
    cloud.orchestrator.minimal_intra_leaf = True
    minimal = cloud.live_migrate(vm.name, "l3h0")
    print(
        f"deterministic intra-leaf migration: n'={deterministic.switches_updated},"
        f" SMPs={deterministic.reconfig.lft_smps}"
    )
    print(
        f"minimal intra-leaf migration:       n'={minimal.switches_updated},"
        f" SMPs={minimal.reconfig.lft_smps}"
        " (one switch, regardless of topology)"
    )


def main() -> None:
    shared_port_constraint()
    vswitch_migration("prepopulated")
    vswitch_migration("dynamic")
    minimal_reconfiguration()


if __name__ == "__main__":
    main()
