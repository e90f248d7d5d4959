"""``repro metrics`` — run a command (or read a recording), print the
Prometheus exposition."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HELP = (
    "run a built-in command, then print its Prometheus exposition"
    " (or print a previously recorded one)"
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "target",
        help="a built-in command to run, or a --record directory to print",
    )
    parser.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to the wrapped command",
    )


def run(args: argparse.Namespace) -> int:
    from repro.cli import RUN_COMMANDS, main
    from repro.obs import get_hub

    recorded = Path(args.target)
    if recorded.is_dir():
        recorded = recorded / "metrics.prom"
    if recorded.exists():
        print(recorded.read_text(encoding="utf-8"), end="")
        return 0
    if args.target not in RUN_COMMANDS:
        print(
            f"{args.target!r} is neither a recorded run nor one of"
            f" {', '.join(RUN_COMMANDS)}",
            file=sys.stderr,
        )
        return 1
    rc = main([args.target, *args.rest])
    print()
    print(get_hub().metrics.render_prometheus(), end="")
    return rc
