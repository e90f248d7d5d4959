"""``repro serve`` — the tenant-facing service through a chaos scenario."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli._common import (
    add_fabric_arguments,
    add_run_arguments,
    bring_up_cloud,
    cloud_recipe,
    parse_fault_plan,
)

HELP = (
    "drive the multi-tenant control-plane service (journaled"
    " boots/stops/migrations with admission control) through a"
    " chaos scenario and audit the end state (non-zero exit on"
    " any silent drop, orphaned VF, leaked LID or forwarding"
    " divergence)"
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--chaos",
        default="",
        metavar="SPEC",
        help=(
            "fault plan for the run: 'kill-service[=N]' kills the"
            " service worker at step N (default: mid-run) and"
            " warm-recovers it from the intent journal;"
            " 'tenant-storm=N,storm-factor=K' bursts K x the usual load"
            " at step N (admission control must shed with retry-after);"
            " SMP keys like 'smp-drop=0.1' compose"
        ),
    )
    add_run_arguments(parser, steps=24, what="service")
    add_fabric_arguments(parser, scheme="dynamic")
    parser.add_argument(
        "--tenants", type=int, default=3, help="tenant count (default 3)"
    )
    parser.add_argument(
        "--requests-per-step",
        type=int,
        default=2,
        help="requests each tenant submits per step (default 2)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=8,
        help="requests coalesced into one SM sweep (default 8)",
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=64,
        help="bounded admission queue depth (default 64)",
    )
    parser.add_argument(
        "--max-vms",
        type=int,
        default=8,
        help="per-tenant VM quota (default 8)",
    )
    parser.add_argument(
        "--journal",
        metavar="FILE",
        default=None,
        help="persist the intent journal as JSONL to FILE",
    )


def run(args: argparse.Namespace) -> int:
    from repro.service import IntentJournal, TenantQuota
    from repro.workloads.serve import ServiceChaosRunner

    # Bare 'kill-service' (no =N) means "kill mid-run".
    spec = ",".join(
        f"kill-service={args.steps // 2}"
        if item.strip() == "kill-service"
        else item
        for item in args.chaos.split(",")
        if item.strip()
    )
    plan, policy = parse_fault_plan(spec, args)
    recipe = cloud_recipe(args)
    cloud = bring_up_cloud(recipe)
    print(
        f"serve: profile={args.profile} scheme={args.scheme}"
        f" hypervisors={len(cloud.hypervisors)} tenants={args.tenants}"
        f" [{plan.describe() or 'no faults'}]"
    )
    runner = ServiceChaosRunner(
        cloud,
        plan,
        tenants=args.tenants,
        requests_per_step=args.requests_per_step,
        retry_policy=policy,
        journal=IntentJournal(Path(args.journal)) if args.journal else None,
        batch_size=args.batch_size,
        max_queue_depth=args.max_queue_depth,
        default_quota=TenantQuota(max_vms=args.max_vms, max_vfs=args.max_vms),
        # The recipe the cloud was built from IS the genesis record, so a
        # cold rebuild reconstructs exactly this fabric.
        genesis=recipe,
    )
    report = runner.run(args.steps)
    print(report.render())
    if args.journal:
        print(f"intent journal -> {args.journal}")
    return 0 if report.ok else 1
