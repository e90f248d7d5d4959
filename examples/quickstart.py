#!/usr/bin/env python
"""Quickstart: a vSwitch-enabled IB cloud in ~40 lines.

Builds a small fat-tree subnet, brings it up with the prepopulated-LIDs
vSwitch scheme, boots a few VMs and live-migrates one — showing the paper's
central numbers: zero path computation and a handful of SMPs per migration,
with the VM keeping its LID, vGUID and GID.

Run:  python examples/quickstart.py
"""

from repro import CloudManager, scaled_fattree
from repro.sm.subnet_manager import path_computations


def main() -> None:
    # A 2-level fat-tree: 36 hosts behind 6 leaves, 6 spines.
    built = scaled_fattree("2l-small")
    print(f"topology: {built.describe()}")

    cloud = CloudManager(
        built.topology,
        built=built,
        lid_scheme="prepopulated",  # section V-A (try "dynamic" for V-B)
        num_vfs=4,
    )
    cloud.adopt_all_hcas()
    report = cloud.bring_up_subnet()
    print(
        f"bring-up: {cloud.sm.lids_consumed} LIDs,"
        f" PCt={report.path_compute_seconds * 1e3:.1f} ms,"
        f" {report.lft_smps} LFT SMPs distributed"
    )

    vms = [cloud.boot_vm() for _ in range(5)]
    vm = vms[0]
    print(
        f"\nbooted {len(vms)} VMs; {vm.name} runs on {vm.hypervisor_name}"
        f" with LID {vm.lid}, GID {vm.gid}"
    )

    # Live-migrate the VM across the fabric.
    dest = "l5h5"
    computed = path_computations()
    mig = cloud.live_migrate(vm.name, dest)
    print(f"\nlive migration {mig.source} -> {mig.destination}:")
    print(f"  mode                : LID {mig.mode} (Algorithm 1)")
    print(f"  path computation    : {path_computations() - computed} runs (always 0)")
    print(f"  switches updated n' : {mig.switches_updated} of {cloud.topology.num_switches}")
    print(f"  LFT update SMPs     : {mig.reconfig.lft_smps}")
    print(f"  address-update SMPs : {mig.address_update_smps}")
    print(f"  VM kept its LID     : {vm.lid == mig.vm_lid}")

    # Contrast with what a traditional full reconfiguration would cost.
    full = cloud.sm.full_reconfigure()
    print(
        f"\ntraditional full reconfiguration of the same subnet:"
        f" {full.lft_smps} SMPs + {full.path_compute_seconds * 1e3:.1f} ms"
        f" of path computation"
    )
    reduction = 100 * (1 - mig.reconfig.lft_smps / full.lft_smps)
    print(f"SMP reduction per migration: {reduction:.1f}%")

    # The gap widens with subnet size — at the paper's largest instance:
    from repro import table1_row

    big = table1_row(11664, 1620)
    print(
        f"at 11664 nodes: worst-case {big.max_smps_swap} vs"
        f" {big.min_smps_full_reconfig} SMPs (99.04% reduction),"
        f" best case a single SMP"
    )


if __name__ == "__main__":
    main()
