"""``repro trace`` — replay a recorded run."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HELP = "replay a recorded run's span tree and SMP timeline"


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "run_dir",
        metavar="run",
        help="a --record directory or a trace.jsonl file",
    )
    parser.add_argument(
        "--smps",
        type=int,
        default=50,
        metavar="N",
        help="show at most N SMP events in the timeline (default 50)",
    )
    parser.add_argument(
        "--tree-only",
        action="store_true",
        help="print only the span tree, skip the merged timeline",
    )


def run(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.obs import load_run, render_span_tree, render_timeline

    path = Path(args.run_dir)
    if path.is_dir():
        path = path / "trace.jsonl"
    if not path.exists():
        print(
            f"no recorded run at {args.run_dir!r} (expected a trace.jsonl)",
            file=sys.stderr,
        )
        return 1
    try:
        loaded = load_run(path)
    except ReproError as exc:
        print(f"cannot replay {args.run_dir!r}: {exc}", file=sys.stderr)
        return 1
    header = loaded.header
    print(
        f"run: {header.get('spans', len(loaded.roots))} spans,"
        f" {header.get('smp_events', len(loaded.smp_events))} SMP events,"
        f" sim time {float(header.get('sim_time', 0.0)) * 1e3:.3f}ms"
    )
    print()
    print("span tree:")
    print(render_span_tree(loaded.roots))
    if not args.tree_only:
        print()
        print("timeline:")
        print(
            render_timeline(
                loaded.roots, loaded.smp_events, max_smp_lines=args.smps
            )
        )
    return 0
