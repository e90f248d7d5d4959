"""``repro chaos`` — churn + migrations under a fault plan, audited."""

from __future__ import annotations

import argparse

from repro.cli._common import (
    add_fabric_arguments,
    add_run_arguments,
    bring_up_cloud,
    cloud_recipe,
    parse_fault_plan,
)

HELP = (
    "run a churn+migration workload under a fault plan and audit"
    " the final forwarding state (non-zero exit on divergence)"
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--inject",
        default="",
        metavar="SPEC",
        help=(
            "fault plan, e.g. 'smp-drop=0.1,smp-corrupt=0.01,"
            "link-flap=0.05,switch-fail=0.02,sm-death=10'; HA scenarios"
            " add 'partition=N' (cut the master off the management plane"
            " at step N), 'heal-after=K' (heal K steps later; the stale"
            " master must be fenced+demoted), 'flap-storm=N' and"
            " 'storm-size=K' (K down/up cycles of one link at step N,"
            " absorbed by the trap queue); 'rewire=N' spreads N live"
            " topology mutations (add/remove/restore links and switches)"
            " over the run, each converged incrementally and audited"
        ),
    )
    add_run_arguments(parser, steps=40, what="chaos")
    add_fabric_arguments(parser)
    parser.add_argument(
        "--migrate-probability",
        type=float,
        default=0.25,
        help="per-step live-migration probability (default 0.25)",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help=(
            "run with fabric telemetry: measured traffic bursts between"
            " steps, PerfManager counter sweeps through the (faulty) MAD"
            " plane, observable flap windows, and telemetry rows in the"
            " report"
        ),
    )


def run(args: argparse.Namespace) -> int:
    from repro.workloads.chaos import ChaosRunner

    plan, policy = parse_fault_plan(args.inject, args)
    cloud = bring_up_cloud(cloud_recipe(args))
    print(
        f"chaos: profile={args.profile} scheme={args.scheme}"
        f" switches={cloud.topology.num_switches}"
        f" hypervisors={len(cloud.hypervisors)} [{plan.describe()}]"
    )
    runner = ChaosRunner(
        cloud,
        plan,
        retry_policy=policy,
        migrate_probability=args.migrate_probability,
        telemetry=args.telemetry,
    )
    report = runner.run(args.steps)
    print(report.render())
    return 0 if report.ok else 1
