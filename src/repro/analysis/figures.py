"""Data series for the paper's Fig. 7 (path-computation time per routing
algorithm across fat-tree sizes), plus the paper's published values for
side-by-side comparison."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.analysis.tables import render_table
from repro.sm.routing.base import RoutingTables

__all__ = ["Fig7Series", "PAPER_FIG7_SECONDS", "render_fig7"]

#: The values printed in the paper's Fig. 7, in seconds, keyed by routing
#: algorithm then number of nodes. "LID Copying/Swapping" is identically 0.
PAPER_FIG7_SECONDS: Dict[str, Dict[int, float]] = {
    "ftree": {324: 0.012, 648: 0.04, 5832: 16.5, 11664: 67.0},
    "minhop": {324: 0.017, 648: 0.06, 5832: 18.81, 11664: 71.0},
    "dfsssp": {324: 0.142, 648: 0.63, 5832: 123.0, 11664: 625.0},
    # LASH is *cheaper* than DFSSSP on the small 2-level subnets (its cost
    # scales with switch pairs, DFSSSP's with LID count) and explodes on the
    # 3-level ones — the crossover visible in the figure.
    "lash": {324: 0.012, 648: 0.045, 5832: 3859.0, 11664: 39145.0},
    "vswitch-reconfig": {324: 0.0, 648: 0.0, 5832: 0.0, 11664: 0.0},
}


@dataclass
class Fig7Series:
    """Measured path-computation times for one topology size."""

    label: str
    num_nodes: int
    num_switches: int
    seconds_by_engine: Dict[str, float] = field(default_factory=dict)
    #: Engine -> data lanes opened, for the VL engines (LASH layer
    #: counts at scale are a Fig. 7 reporting artifact).
    vls_by_engine: Dict[str, int] = field(default_factory=dict)

    def record(self, engine: str, seconds: float) -> None:
        """Store one engine's PCt."""
        self.seconds_by_engine[engine] = seconds

    def record_vls(self, engine: str, tables: RoutingTables) -> None:
        """Store one engine's lane count (lane-plane engines only)."""
        if tables.lanes is not None:
            self.vls_by_engine[engine] = tables.num_vls


def render_fig7(series: Sequence[Fig7Series]) -> str:
    """Tabular rendering of the Fig. 7 reproduction.

    One row per engine, one column per topology, with the vSwitch
    reconfiguration row pinned at 0 (no path computation ever happens).
    """
    engines: List[str] = []
    for s in series:
        for e in s.seconds_by_engine:
            # The zero vswitch-reconfig row is pinned last, below.
            if e != "vswitch-reconfig" and e not in engines:
                engines.append(e)
    headers = ["engine"] + [
        f"{s.label} ({s.num_nodes}n/{s.num_switches}sw)" for s in series
    ]
    rows = []
    for e in engines:
        cells = []
        for s in series:
            if e not in s.seconds_by_engine:
                cells.append("-")
                continue
            cell = f"{s.seconds_by_engine[e]:.4f}s"
            vls = s.vls_by_engine.get(e)
            if vls:
                cell += f" [{vls}VL]"
            cells.append(cell)
        rows.append([e] + cells)
    rows.append(["vswitch-reconfig"] + ["0.0000s"] * len(series))
    return render_table(headers, rows)
