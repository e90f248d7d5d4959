"""One-shot reproduction report: every paper artifact, regenerated.

``generate_report()`` runs the complete (scaled-by-default) evaluation —
Table I, the Fig. 7 sweep, per-migration reconfiguration statistics, the
scheme comparison and the Shared-Port-vs-vSwitch motivation experiment —
and renders a single markdown document. The CLI exposes it as
``python -m repro report [--output results.md]``.
"""

from __future__ import annotations

import io
from typing import Optional

from repro.analysis.experiments import FIG7_ENGINES, run_fig7
from repro.analysis.figures import PAPER_FIG7_SECONDS, render_fig7
from repro.analysis.tables import render_table, render_table1
from repro.core.cost_model import improvement_percent, paper_table1
from repro.fabric.presets import scaled_fattree
from repro.virt.cloud import build_cloud
from repro.virt.connections import ConnectionManager
from repro.virt.shared_port_fleet import SharedPortFleet

__all__ = ["generate_report"]


def _section_table1(out: io.StringIO) -> None:
    rows = paper_table1()
    out.write("## Table I (regenerated, paper-exact)\n\n```\n")
    out.write(render_table1(rows))
    out.write("\n```\n\n")
    out.write(
        "Worst-case SMP improvement vs full reconfiguration: "
        + ", ".join(
            f"{r.nodes}n = "
            f"{improvement_percent(r.min_smps_full_reconfig, r.max_smps_swap):.2f}%"
            for r in rows
        )
        + "; best case: 1 SMP at any size.\n\n"
    )


def _section_fig7(out: io.StringIO, *, paper_scale: bool) -> None:
    series = run_fig7(engines=FIG7_ENGINES, paper_scale=paper_scale)
    out.write("## Fig. 7 (path computation time)\n\n```\n")
    out.write(render_fig7(series))
    out.write("\n```\n\nPaper values (seconds):\n\n```\n")
    sizes = (324, 648, 5832, 11664)
    out.write(
        render_table(
            ["engine"] + [f"{n}n" for n in sizes],
            [
                [eng] + [PAPER_FIG7_SECONDS[eng][n] for n in sizes]
                for eng in list(FIG7_ENGINES) + ["vswitch-reconfig"]
            ],
        )
    )
    out.write("\n```\n\n")


def _section_migrations(out: io.StringIO) -> None:
    cloud = build_cloud({"profile": "2l-wide"})
    vm = cloud.boot_vm(on="l0h0")
    inter = cloud.live_migrate(vm.name, "l11h5")
    intra = cloud.live_migrate(vm.name, "l11h4")
    cloud.orchestrator.minimal_intra_leaf = True
    minimal = cloud.live_migrate(vm.name, "l11h5")
    full = cloud.sm.full_reconfigure()
    out.write("## Per-migration reconfiguration (2l-wide twin)\n\n```\n")
    out.write(
        render_table(
            ["operation", "LFT SMPs", "n'", "PCt"],
            [
                ("inter-leaf swap", inter.reconfig.lft_smps, inter.switches_updated, 0),
                ("intra-leaf swap", intra.reconfig.lft_smps, intra.switches_updated, 0),
                (
                    "minimal intra-leaf",
                    minimal.reconfig.lft_smps,
                    minimal.switches_updated,
                    0,
                ),
                (
                    "traditional full RC",
                    full.lft_smps,
                    cloud.topology.num_switches,
                    f"{full.path_compute_seconds:.4f}s",
                ),
            ],
        )
    )
    out.write("\n```\n\n")


def _section_motivation(out: io.StringIO) -> None:
    peers = 6
    # Shared Port.
    built = scaled_fattree("2l-small")
    fleet = SharedPortFleet(built.topology, num_vfs=4)
    fleet.adopt_all_hcas()
    vm = fleet.boot_vm(on="l0h0")
    cm = ConnectionManager(fleet.sa)
    for i in range(1, peers + 1):
        peer = fleet.boot_vm(on=f"l{i % 6}h{i % 6}")
        cm.connect(peer.gid, vm.gid)
    fleet.migrate_vm(vm.name, "l5h5")
    sp_broken = cm.audit().broken_count
    sp_queries = cm.repair()
    # vSwitch.
    cloud = build_cloud({"profile": "2l-small"})
    vvm = cloud.boot_vm(on="l0h0")
    vcm = ConnectionManager(cloud.sa)
    for i in range(1, peers + 1):
        peer = cloud.boot_vm(on=f"l{i % 6}h{i % 6}")
        vcm.connect(peer.gid, vvm.gid)
    cloud.live_migrate(vvm.name, "l5h5")
    vs_broken = vcm.audit().broken_count
    vs_queries = vcm.repair()
    out.write("## Motivation: what one migration breaks\n\n```\n")
    out.write(
        render_table(
            ["architecture", "connections broken", "SA repair queries"],
            [
                ("Shared Port (ref [9])", sp_broken, sp_queries),
                ("vSwitch (this paper)", vs_broken, vs_queries),
            ],
        )
    )
    out.write("\n```\n")


def generate_report(
    *, paper_scale: bool = False, output: Optional[str] = None
) -> str:
    """Run the evaluation and return (and optionally write) markdown."""
    out = io.StringIO()
    out.write(
        "# Reproduction report — Towards the InfiniBand SR-IOV vSwitch"
        " Architecture (CLUSTER 2015)\n\n"
    )
    scale = "paper-size" if paper_scale else "scaled-twin"
    out.write(f"Topology scale: **{scale}** instances.\n\n")
    _section_table1(out)
    _section_fig7(out, paper_scale=paper_scale)
    _section_migrations(out)
    _section_motivation(out)
    text = out.getvalue()
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
