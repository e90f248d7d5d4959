"""``repro perf`` — measured bursts, PMA counter sweeps, analytics."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli._common import (
    add_fabric_arguments,
    bring_up_cloud,
    cloud_recipe,
    usage_errors,
)

HELP = (
    "run measured traffic bursts, sweep the PMA counters through"
    " MADs, and report utilization/congestion/traffic-matrix"
    " analytics (non-zero exit if the matrix is empty or fails"
    " its delivered-packet audit)"
)


def add_harness_arguments(parser: argparse.ArgumentParser) -> None:
    """The fabric + burst arguments ``perf`` and ``top`` share."""
    add_fabric_arguments(parser)
    parser.add_argument(
        "--hosts",
        type=int,
        default=12,
        metavar="N",
        help="burst endpoints: the first N HCAs (default 12)",
    )
    parser.add_argument(
        "--credits",
        type=int,
        default=2,
        help="per-VL channel credits in the burst simulator (default 2)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=5,
        metavar="K",
        help="show the K hottest egress ports (default 5)",
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_harness_arguments(parser)
    parser.add_argument(
        "--sweeps",
        type=int,
        default=3,
        metavar="N",
        help="burst+sweep rounds to run (default 3)",
    )
    parser.add_argument(
        "--vms",
        type=int,
        default=0,
        metavar="N",
        help=(
            "boot N VMs and burst between their LIDs instead of the"
            " physical hosts' (adds per-VM/per-tenant matrices)"
        ),
    )
    parser.add_argument(
        "--drop",
        type=float,
        default=0.0,
        metavar="RATE",
        help="drop sweep MADs at RATE (exercises the retry path)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--export",
        metavar="FILE",
        default=None,
        help="write the JSON telemetry dashboard (matrix, top talkers,"
        " congestion findings, sweep costs) to FILE ('-' for stdout)",
    )


def build_harness(args: argparse.Namespace, *, vms: int = 0):
    """Bring up a cloud and a telemetry harness over it."""
    from repro.errors import ReproError
    from repro.telemetry import TelemetryHarness

    cloud = bring_up_cloud(cloud_recipe(args))
    with usage_errors(ReproError):
        harness = TelemetryHarness(
            cloud.sm, max_endpoints=args.hosts, channel_credits=args.credits
        )
        if vms:
            booted = [cloud.boot_vm() for _ in range(vms)]
            harness.set_endpoints(sorted(vm.lid for vm in booted))
    return cloud, harness


def port_rate_row(rate) -> str:
    return (
        f"  {rate.node:>10}:{rate.port:<3}"
        f" {rate.xmit_bps / 1e6:>9.2f} MB/s"
        f" ({rate.utilization:>6.2%} util,"
        f" {rate.xmit_pps:>10.0f} pkt/s,"
        f" wait {rate.wait_fraction:.2%},"
        f" discards {rate.discard_rate:.0f}/s)"
    )


def run(args: argparse.Namespace) -> int:
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.telemetry import (
        CongestionDetector,
        lid_owner_map,
        lid_tenant_map,
        top_talkers,
    )

    cloud, harness = build_harness(args, vms=args.vms)
    sm = cloud.sm
    if args.drop:
        sm.enable_resilience()
        sm.transport.set_fault_injector(
            FaultInjector(FaultPlan(seed=args.seed, smp_drop_rate=args.drop))
        )
    detector = CongestionDetector()
    print(
        f"perf: profile={args.profile} scheme={args.scheme}"
        f" endpoints={len(harness.endpoints())}"
        f" credits={args.credits} rounds={args.sweeps}"
        + (f" mad-drop={args.drop}" if args.drop else "")
    )
    try:
        for round_no in range(1, args.sweeps + 1):
            stats = harness.burst()
            sweep = harness.sweep()
            detector.scan(harness.store)
            print(
                f"round {round_no}: {stats.injected} injected,"
                f" {stats.delivered} delivered,"
                f" {stats.injected - stats.delivered - stats.in_flight} dropped;"
                f" sweep {sweep.smps} SMPs"
                f" ({sweep.retransmissions} retransmissions,"
                f" {len(sweep.missed)} missed),"
                f" {sweep.samples} samples"
            )
    finally:
        sm.transport.set_fault_injector(None)
    hottest = top_talkers(harness.store, top=args.top)
    print()
    print(f"top {len(hottest)} talkers:")
    for rate in hottest:
        print(port_rate_row(rate))
    print(
        f"congestion: {len(detector.findings)} findings,"
        f" {detector.congestion_seconds * 1e3:.3f}ms attributed wait"
    )
    matrix = harness.matrix
    consistent = harness.verify_matrix()
    print(
        f"traffic matrix: {len(matrix.endpoints)} endpoints,"
        f" {matrix.total} delivered packets"
        f" (audit vs data plane:"
        f" {'consistent' if consistent else 'INCONSISTENT'})"
    )
    if args.export is not None:
        dashboard = {
            "profile": args.profile,
            "scheme": args.scheme,
            "rounds": args.sweeps,
            "endpoints": harness.endpoints(),
            "dataplane": {
                "injected": harness.injected,
                "delivered": harness.delivered,
                "dropped_timeout": harness.dropped_timeout,
                "dropped_no_route": harness.dropped_no_route,
                "dropped_port255": harness.dropped_port255,
            },
            "sweeps": {
                "count": harness.perf.sweeps,
                "smps": harness.perf.smps,
                "misses": harness.perf.misses,
            },
            "series": {
                "count": len(harness.store.keys()),
                "samples": harness.store.samples_total,
                "evictions": harness.store.evictions,
            },
            "top_talkers": [
                {
                    "node": r.node,
                    "port": r.port,
                    "xmit_bps": r.xmit_bps,
                    "rcv_bps": r.rcv_bps,
                    "utilization": r.utilization,
                    "wait_fraction": r.wait_fraction,
                    "discard_rate": r.discard_rate,
                }
                for r in hottest
            ],
            "congestion": [
                {
                    "time": f.time,
                    "node": f.node,
                    "port": f.port,
                    "wait_seconds": f.wait_seconds,
                    "discards": f.discards,
                    "utilization": f.utilization,
                }
                for f in detector.findings
            ],
            "traffic_matrix": matrix.to_json(),
        }
        if args.vms:
            dashboard["by_vm"] = {
                f"{src}->{dst}": count
                for (src, dst), count in sorted(
                    matrix.aggregate(lid_owner_map(cloud)).items()
                )
            }
            dashboard["by_tenant"] = {
                f"{src}->{dst}": count
                for (src, dst), count in sorted(
                    matrix.aggregate(lid_tenant_map(cloud)).items()
                )
            }
        text = json.dumps(dashboard, indent=2, sort_keys=True)
        if args.export == "-":
            print(text)
        else:
            Path(args.export).write_text(text + "\n", encoding="utf-8")
            print(f"dashboard written to {args.export}")
    if matrix.total == 0 or not consistent:
        print(
            "perf: FAILED (traffic matrix empty or inconsistent with the"
            " data plane)",
            file=sys.stderr,
        )
        return 1
    return 0
