"""Experiment harnesses — one function per paper artifact (see DESIGN.md).

These are the library-level entry points the benchmarks and examples call;
each returns structured results so callers can render, assert or sweep.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.figures import Fig7Series
from repro.core.cost_model import Table1Row, table1_row
from repro.fabric.builders.fattree import BuiltTopology
from repro.fabric.presets import (
    PAPER_FATTREE_NODES,
    SCALED_TO_PAPER,
    paper_fattree,
    scaled_fattree,
)
from repro.sm.routing.base import RoutingRequest
from repro.sm.routing.registry import create_engine
from repro.sm.subnet_manager import SubnetManager

__all__ = [
    "fig7_topologies",
    "measure_path_computation",
    "run_fig7",
    "table1_for_topology",
    "measured_full_reconfig_smps",
]

#: Engines timed in Fig. 7, in the figure's bar order.
FIG7_ENGINES: Tuple[str, ...] = ("ftree", "minhop", "dfsssp", "lash")

#: Default wall-clock budget of one full Fig. 7 sweep, seconds.
DEFAULT_FIG7_BUDGET = 1800.0


def fig7_topologies(*, paper_scale: bool = False) -> List[BuiltTopology]:
    """The four Fig. 7 fat-trees (full size or scaled twins)."""
    if paper_scale:
        return [paper_fattree(n) for n in PAPER_FATTREE_NODES]
    return [scaled_fattree(p) for p in SCALED_TO_PAPER]


def measure_path_computation(
    built: BuiltTopology,
    engines: Sequence[str] = FIG7_ENGINES,
    *,
    workers: int = 1,
) -> Fig7Series:
    """Time each routing engine's path computation on one topology.

    Mirrors the paper's ibsim methodology: LIDs are assigned once, then
    each engine computes routes for the identical subnet; only the
    computation (PCt) is timed, not LFT distribution. Every engine gets a
    *fresh* routing state (sharded over *workers* processes when > 1), so
    each bar is a cold PCt — no engine rides a predecessor's warm distance
    matrix.
    """
    from repro.sm.routing.cache import RoutingState

    topo = built.topology
    sm = SubnetManager(topo, built=built, workers=workers)
    sm.assign_lids()
    series = Fig7Series(
        label=topo.name,
        num_nodes=topo.num_hcas,
        num_switches=topo.num_switches,
    )
    for name in engines:
        engine = create_engine(name)
        state = RoutingState(topo, workers=workers)
        request = RoutingRequest.from_topology(
            topo, built=built, state=state
        )
        tables = engine.timed_compute(request)
        series.record(name, tables.compute_seconds)
        series.record_vls(name, tables.vl_summary())
    # The vSwitch reconfiguration performs zero path computation for any
    # topology and any engine — the paper's headline Fig. 7 bar.
    series.record("vswitch-reconfig", 0.0)
    return series


def run_fig7(
    *,
    engines: Sequence[str] = FIG7_ENGINES,
    paper_scale: bool = False,
    workers: int = 1,
    budget_seconds: Optional[float] = DEFAULT_FIG7_BUDGET,
) -> List[Fig7Series]:
    """The full Fig. 7 sweep: all four topologies, all engines.

    A wall-clock *budget* (``None`` = unlimited) guards the
    paper-scale sizes: before each engine runs, its time is projected from
    the previous size's measurement with the engine-agnostic
    ``(switches ratio)^2`` growth of the all-pairs work, and rows that
    cannot fit are *skipped with a printed message* instead of hanging the
    sweep. Skipped cells render as ``-``.
    """
    start = time.perf_counter()
    prev_times: Dict[str, float] = {}
    prev_switches = 0
    out: List[Fig7Series] = []
    for built in fig7_topologies(paper_scale=paper_scale):
        topo = built.topology
        n_sw = topo.num_switches
        keep: List[str] = []
        for name in engines:
            if budget_seconds is not None:
                elapsed = time.perf_counter() - start
                est = 0.0
                if prev_switches and name in prev_times:
                    est = prev_times[name] * (n_sw / prev_switches) ** 2
                if elapsed + est > budget_seconds:
                    print(
                        f"fig7: skipping {name} on {topo.name}: projected"
                        f" ~{est:.0f}s with {elapsed:.0f}s already spent"
                        f" would exceed the {budget_seconds:.0f}s budget"
                        " (raise or disable it: budget_seconds, repro fig7 --budget)"
                    )
                    continue
            keep.append(name)
        series = measure_path_computation(built, keep, workers=workers)
        for name in keep:
            prev_times[name] = series.seconds_by_engine[name]
        prev_switches = n_sw
        out.append(series)
    return out


def table1_for_topology(built: BuiltTopology) -> Table1Row:
    """Compute a Table I row from an actually constructed topology.

    Counts come from the topology itself (not the closed-form preset
    parameters), so this validates the builders against the paper's
    arithmetic.
    """
    topo = built.topology
    return table1_row(topo.num_hcas, topo.num_switches)


def measured_full_reconfig_smps(built: BuiltTopology, engine: str = "ftree") -> int:
    """Actually run a full reconfiguration and count its LFT SMPs.

    Brings the subnet up (which programs every LFT), then triggers the
    traditional full reconfiguration and returns the SubnSet(LFT) count —
    the measured counterpart of Table I's "Min SMPs Full RC" column.
    """
    topo = built.topology
    sm = SubnetManager(topo, engine=engine, built=built)
    sm.initial_configure(with_discovery=False)
    report = sm.full_reconfigure()
    return report.lft_smps
