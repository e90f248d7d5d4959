"""``repro top`` — the hottest-links view."""

from __future__ import annotations

import argparse

from repro.cli.perf import add_harness_arguments, build_harness, port_rate_row

HELP = (
    "hottest-links view: repeated burst+sweep frames sorted by"
    " transmit rate"
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_harness_arguments(parser)
    parser.add_argument(
        "--iterations",
        type=int,
        default=1,
        metavar="N",
        help="frames to show (default 1)",
    )


def run(args: argparse.Namespace) -> int:
    from repro.telemetry import top_talkers

    _cloud, harness = build_harness(args)
    for frame in range(1, args.iterations + 1):
        harness.burst()
        harness.sweep()
        hottest = top_talkers(harness.store, top=args.top)
        print(f"frame {frame} (t={harness.store.last_time * 1e3:.3f}ms):")
        for rate in hottest:
            print(port_rate_row(rate))
    return 0
