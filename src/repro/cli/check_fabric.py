"""``repro check-fabric`` — the static verification matrix."""

from __future__ import annotations

import argparse

from repro.cli._common import UsageError, usage_errors

HELP = (
    "statically prove loop/deadlock-freedom and reachability for"
    " the shipped preset x engine matrix"
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset", default=None, help="check only this preset (default: all)"
    )
    parser.add_argument(
        "--engine", default=None, help="check only this engine (default: all)"
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="also check the paper's 324/648-node Table I instances",
    )
    parser.add_argument(
        "--inject-fault",
        action="store_true",
        help=(
            "corrupt one LFT entry into a forwarding loop after bring-up"
            " to demonstrate failure reporting (exits non-zero)"
        ),
    )
    parser.add_argument(
        "--corrupt-vl",
        action="store_true",
        help=(
            "corrupt one LID column of the lane plane after bring-up;"
            " the per-VL rules (VLC001/VLC002) must fire (exits non-zero;"
            " VL engines only)"
        ),
    )
    parser.add_argument(
        "--max-findings",
        type=int,
        default=10,
        metavar="N",
        help="show at most N findings per failing cell (default 10)",
    )


def run(args: argparse.Namespace) -> int:
    from repro.analysis.static import VL_ENGINES, default_cases, run_case
    from repro.errors import StaticAnalysisError

    with usage_errors(StaticAnalysisError):
        cases = default_cases(
            paper_scale=args.paper_scale,
            preset=args.preset,
            engine=args.engine,
        )
    if args.corrupt_vl:
        cases = [c for c in cases if c.engine in VL_ENGINES]
        if not cases:
            raise UsageError(
                "--corrupt-vl needs a VL engine cell"
                f" ({'/'.join(VL_ENGINES)}); none selected"
            )
    failed = 0
    for case in cases:
        result = run_case(
            case,
            inject_fault=args.inject_fault,
            corrupt_vl=args.corrupt_vl,
        )
        cell = f"{case.preset:>10} x {case.engine:<7}"
        if result.injected is not None:
            print(f"{cell}  injected fault: {result.injected}")
        if result.ok:
            report = result.report
            print(
                f"{cell}  ok ({report.lids_analyzed} LIDs,"
                f" {report.switches_analyzed} switches,"
                f" {len(report.checks_run)} checks)"
            )
        else:
            failed += 1
            print(f"{cell}  FAILED")
            print(result.report.render(max_findings=args.max_findings))
    print()
    verdict = "all clean" if failed == 0 else f"{failed} cell(s) failed"
    print(f"check-fabric: {len(cases)} cells, {verdict}")
    return 0 if failed == 0 else 1
