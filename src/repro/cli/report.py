"""``repro report`` — every artifact in one markdown report."""

from __future__ import annotations

import argparse

HELP = "regenerate every artifact into one markdown report"


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--paper-scale", action="store_true")
    parser.add_argument("--output", default=None, help="write to a file")


def run(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_report

    text = generate_report(paper_scale=args.paper_scale, output=args.output)
    if args.output:
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0
