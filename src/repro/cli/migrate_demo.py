"""``repro migrate-demo`` — boot a cloud, migrate a VM, show the spans."""

from __future__ import annotations

import argparse

from repro.cli._common import add_fabric_arguments, bring_up_cloud, cloud_recipe

HELP = "boot a cloud, migrate a VM"


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_fabric_arguments(parser)


def run(args: argparse.Namespace) -> int:
    from repro.obs import get_hub, render_span_tree

    cloud = bring_up_cloud(cloud_recipe(args))
    sm = cloud.sm
    print(
        f"subnet up: {sm.lids_consumed} LIDs,"
        f" {sm.transport.stats.lft_update_smps} LFT SMPs,"
        f" PCt={sm.current_tables.compute_seconds * 1e3:.1f}ms"
    )
    vm = cloud.boot_vm()
    src = vm.hypervisor_name
    dest = next(
        name
        for name, h in cloud.hypervisors.items()
        if name != src and h.has_capacity()
    )
    report = cloud.live_migrate(vm.name, dest)
    print(
        f"migrated {vm.name} {src} -> {dest}: mode={report.mode},"
        f" n'={report.switches_updated}, SMPs={report.reconfig.lft_smps},"
        f" PCt=0, LID kept={vm.lid == report.vm_lid}"
    )
    migration = get_hub().find_root("migration")
    if migration is not None:
        print()
        print("span tree:")
        print(render_span_tree([migration]))
        n_prime = report.switches_updated
        m_prime = report.reconfig.max_blocks_on_one_switch
        recorded = migration.total_lft_smp_count()
        print(
            f"cross-check: span tree LFT SMP events={recorded},"
            f" n'*m'={n_prime}*{m_prime}={n_prime * m_prime},"
            f" reconfig report={report.reconfig.lft_smps}"
        )
    return 0
