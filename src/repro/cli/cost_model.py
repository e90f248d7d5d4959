"""``repro cost-model`` — equations (1)-(5) over the Table I instances."""

from __future__ import annotations

import argparse

HELP = "sweep equations (1)-(5)"


def add_arguments(parser: argparse.ArgumentParser) -> None:
    pass


def run(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.core.cost_model import (
        PAPER_TABLE1_INPUTS,
        table1_row,
        traditional_rc_time,
        vswitch_rc_time,
    )

    k, r = 2.0e-6, 1.0e-6
    rows = []
    for nodes, switches in PAPER_TABLE1_INPUTS:
        row = table1_row(nodes, switches)
        full = traditional_rc_time(
            0.0, switches, row.min_lft_blocks_per_switch, k, r
        )
        worst = vswitch_rc_time(switches, 2, k)
        rows.append(
            (nodes, f"{full:.4f}s", f"{worst * 1e3:.3f}ms", f"{full / worst:,.0f}x")
        )
    print(
        render_table(
            ["nodes", "LFTD full (eq.2)", "vSwitch worst (eq.5)", "ratio"],
            rows,
        )
    )
    return 0
