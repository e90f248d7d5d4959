"""``repro claims`` — run the paper's claim register and print verdicts."""

from __future__ import annotations

import argparse
import json
import traceback

HELP = "check every claim of the paper's register (exit 1 on a failing row)"


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="also run the paper-size rows (Fig. 7's sweep; a few minutes)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the rows as one JSON list"
    )


def _short(value: object) -> object:
    """*value* with every float cut to four significant digits."""
    if isinstance(value, float):
        return float(f"{value:.4g}")
    if isinstance(value, dict):
        return {k: _short(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_short(v) for v in value)
    return value


def run(args: argparse.Namespace) -> int:
    from repro.analysis.claims import CLAIMS

    rows = []
    for claim in CLAIMS:
        if claim.scale == "paper" and not args.paper_scale:
            continue
        try:
            observed = claim.evaluate(args.paper_scale)
            ok = claim.holds(observed)
        except Exception as exc:  # one broken row must not hide the others
            traceback.print_exc()
            observed, ok = f"{type(exc).__name__}: {exc}", False
        rows.append(
            {
                "id": claim.id,
                "section": claim.section,
                "scale": claim.scale,
                "statement": claim.statement,
                "holds": ok,
                "observed": observed,
                "expected": None if callable(claim.expect) else claim.expect,
            }
        )
        if not args.json:
            verdict = "ok" if ok else "FAIL"
            print(f"{verdict:<4} {claim.id:<26} {claim.section:<12} {_short(observed)}")
    failed = sum(not row["holds"] for row in rows)
    if args.json:
        print(json.dumps(rows, indent=1, default=str))
    else:
        print(f"{len(rows) - failed}/{len(rows)} claims hold")
    return 1 if failed else 0
