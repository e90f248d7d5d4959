"""``repro fig7`` — the Fig. 7 path-computation sweep."""

from __future__ import annotations

import argparse

HELP = "run the Fig. 7 path-computation sweep"


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the true 324/648/5832/11664-node instances (slow)",
    )
    parser.add_argument(
        "--engines",
        default="ftree,minhop,dfsssp,lash",
        help="comma-separated engine list",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "shard all-pairs path computation over N processes"
            " (-1 = cpu count; results are byte-identical to serial)"
        ),
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help=(
            "wall-clock budget in seconds (0 = unlimited); rows projected to"
            " exceed it are skipped with a message (default: 1800)"
        ),
    )


def run(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import run_fig7
    from repro.analysis.figures import render_fig7

    kwargs = {}
    if args.budget is not None:
        kwargs["budget_seconds"] = None if args.budget <= 0 else args.budget
    series = run_fig7(
        engines=tuple(
            e.strip() for e in args.engines.split(",") if e.strip()
        ),
        paper_scale=args.paper_scale,
        workers=args.workers,
        **kwargs,
    )
    print(render_fig7(series))
    return 0
