#!/usr/bin/env python
"""Fig. 7 reproduction: path computation time across routing engines.

Times the Fat-Tree, MinHop, DFSSSP and LASH engines on the four fat-tree
shapes of the paper (scaled twins by default; pass --paper-scale for the
true 324/648/5832/11664-node instances — the whole sweep then takes a few
minutes, where the originals' 3-level DFSSSP/LASH bars alone took 625 s
and 39145 s) and prints the measured series next to the paper's published
values.

Run:  python examples/routing_comparison.py [--paper-scale]
"""

import sys

from repro.analysis.experiments import FIG7_ENGINES, run_fig7
from repro.analysis.figures import PAPER_FIG7_SECONDS, render_fig7
from repro.analysis.tables import render_table
from repro.fabric.presets import SCALED_TO_PAPER


def main() -> None:
    paper_scale = "--paper-scale" in sys.argv[1:]
    if paper_scale:
        print("running at PAPER SCALE (a few minutes)")
    else:
        print(
            "running on scaled-down structural twins"
            " (--paper-scale for the full instances)"
        )

    series = run_fig7(engines=FIG7_ENGINES, paper_scale=paper_scale)
    print("\n=== measured path computation time (PCt) ===")
    print(render_fig7(series))

    print("\n=== the paper's Fig. 7 values (seconds) ===")
    sizes = (324, 648, 5832, 11664)
    rows = [
        [engine] + [PAPER_FIG7_SECONDS[engine][n] for n in sizes]
        for engine in list(FIG7_ENGINES) + ["vswitch-reconfig"]
    ]
    print(render_table(["engine"] + [f"{n} nodes" for n in sizes], rows))

    print("\nshape checks:")
    for s in series:
        t = s.seconds_by_engine
        checks = {
            "ftree fastest structured": t["ftree"] <= t["minhop"] * 1.25,
            "dfsssp >> minhop": t["dfsssp"] > 2 * t["minhop"],
            "vswitch reconfig zero": t["vswitch-reconfig"] == 0.0,
        }
        print(f"  {s.label}: " + ", ".join(f"{k}={v}" for k, v in checks.items()))
    if not paper_scale:
        scale_map = ", ".join(
            f"{prof}~{nodes}n" for prof, nodes in SCALED_TO_PAPER.items()
        )
        print(f"\nscaled twin -> paper instance mapping: {scale_map}")


if __name__ == "__main__":
    main()
