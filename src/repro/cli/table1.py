"""``repro table1`` — the regenerated Table I."""

from __future__ import annotations

import argparse

HELP = "print the regenerated Table I"


def add_arguments(parser: argparse.ArgumentParser) -> None:
    pass


def run(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table1
    from repro.core.cost_model import improvement_percent, paper_table1

    rows = paper_table1()
    print(render_table1(rows))
    print(
        "improvement (worst-case swap vs full RC): "
        + ", ".join(
            f"{r.nodes}n={improvement_percent(r.min_smps_full_reconfig, r.max_smps_swap):.2f}%"
            for r in rows
        )
    )
    return 0
