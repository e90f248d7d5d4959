"""The ``repro check-fabric`` preset x engine verification matrix.

Builds each shipped preset topology, brings a subnet up with each
applicable routing engine, and runs the full static analysis pass over
the *hardware* LFTs — proving loop-freedom, reachability and (CDG)
deadlock-freedom for every routing the repository ships. The matrix only
pairs engines with topologies they are legal on: ``ftree`` requires a
fat-tree, ``dor`` a mesh (on a torus its wraparound column dependencies
close a CDG cycle — that expected failure lives in the test suite, not
here), and ``minhop`` is excluded from ring/torus for the same reason.

``--inject-fault`` corrupts one hardware LFT entry into a two-switch
forwarding loop after bring-up, demonstrating the analyzer's failure
reporting (LFT001 + CDG001 with per-switch detail); the command then
exits non-zero, which CI uses as a negative test.

The VL engines (``lash``/``dfsssp``) appear on every row PR 3's
single-VL CDG had to exclude them from — ring, torus, the fat-trees —
because the analyzer now verifies their layered routing per data lane
(VLC001-VLC003). ``--corrupt-vl`` is their negative mode: one VL
assignment is corrupted after bring-up and the per-VL rules must fire.
The ``paper-5832`` preset is the time-gated large LASH instance; it
analyzes the *recorded* tables (full hardware bring-up at that size is
a benchmark, not a check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import LFT_UNSET
from repro.errors import StaticAnalysisError
from repro.fabric.builders.fattree import BuiltTopology
from repro.fabric.builders.generic import build_mesh_2d, build_ring, build_torus_2d
from repro.fabric.presets import paper_fattree, scaled_fattree
from repro.fabric.topology import Topology
from repro.analysis.static.analyzer import analyze_subnet
from repro.analysis.static.checks import FabricSnapshot
from repro.analysis.static.findings import StaticAnalysisReport

__all__ = [
    "FabricCheckCase",
    "FabricCheckResult",
    "VL_ENGINES",
    "corrupt_vl_assignment",
    "default_cases",
    "inject_forwarding_loop",
    "preset_builders",
    "run_case",
    "run_matrix",
]

#: Engines proven on every fat-tree preset.
_FATTREE_ENGINES: Tuple[str, ...] = ("minhop", "updn", "ftree")

#: Engines whose deadlock freedom is proven per data VL (VLC001-VLC003).
VL_ENGINES: Tuple[str, ...] = ("dfsssp", "lash")


def preset_builders() -> Dict[str, Callable[[], BuiltTopology]]:
    """Name -> builder for every preset the matrix can check."""
    return {
        "2l-small": lambda: scaled_fattree("2l-small"),
        "2l-wide": lambda: scaled_fattree("2l-wide"),
        "3l-small": lambda: scaled_fattree("3l-small"),
        "mesh4x4": lambda: build_mesh_2d(4, 4, 1),
        "torus4x4": lambda: build_torus_2d(4, 4, 1),
        "ring6": lambda: build_ring(6, 1),
        "paper-324": lambda: paper_fattree(324),
        "paper-648": lambda: paper_fattree(648),
        "paper-5832": lambda: paper_fattree(5832),
    }


#: preset -> engines that must verify clean on it.
_MATRIX: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("2l-small", _FATTREE_ENGINES + VL_ENGINES),
    ("2l-wide", _FATTREE_ENGINES),
    ("3l-small", _FATTREE_ENGINES + VL_ENGINES),
    ("mesh4x4", ("dor", "updn")),
    ("torus4x4", ("updn",) + VL_ENGINES),
    ("ring6", ("updn",) + VL_ENGINES),
)

#: The paper-scale instances (Table I sizes small enough for CI).
_PAPER_MATRIX: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("paper-324", _FATTREE_ENGINES + VL_ENGINES),
    ("paper-648", _FATTREE_ENGINES + VL_ENGINES),
)

#: Extra-large rows, run only when their preset is named explicitly
#: (the CI step time-gates them with ``timeout``).
_XL_MATRIX: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("paper-5832", VL_ENGINES),
)

#: Presets analyzed from the SM's recorded tables instead of a full
#: hardware bring-up (the LFT distribution at 5832 nodes is a benchmark
#: concern, not a static-analysis one).
_RECORDED_PRESETS = frozenset({"paper-5832"})


@dataclass(frozen=True)
class FabricCheckCase:
    """One (preset, engine) cell of the verification matrix."""

    preset: str
    engine: str
    #: What is analyzed: ``"hardware"`` (programmed LFTs after a full
    #: bring-up) or ``"recorded"`` (the engine's computed tables).
    source: str = "hardware"


@dataclass
class FabricCheckResult:
    """Outcome of one matrix cell."""

    case: FabricCheckCase
    report: StaticAnalysisReport
    #: Description of the injected corruption, when ``--inject-fault``.
    injected: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True iff the static analysis found nothing."""
        return self.report.ok


def default_cases(
    *,
    paper_scale: bool = False,
    preset: Optional[str] = None,
    engine: Optional[str] = None,
) -> List[FabricCheckCase]:
    """The matrix, optionally narrowed to one preset and/or engine.

    The XL rows (``paper-5832``) join only when named via ``preset`` —
    they are deliberately absent from full-matrix runs.
    """
    rows = _MATRIX + (_PAPER_MATRIX if paper_scale else ())
    if preset is not None and preset in {name for name, _ in _XL_MATRIX}:
        rows = rows + _XL_MATRIX
    if preset is not None and preset not in {name for name, _ in rows}:
        known = sorted(
            {name for name, _ in rows} | {name for name, _ in _XL_MATRIX}
        )
        raise StaticAnalysisError(
            f"unknown preset {preset!r}; choose one of {known}"
        )
    cases = [
        FabricCheckCase(
            preset=name,
            engine=eng,
            source=(
                "recorded" if name in _RECORDED_PRESETS else "hardware"
            ),
        )
        for name, engines in rows
        for eng in engines
        if (preset is None or name == preset)
        and (engine is None or eng == engine)
    ]
    if not cases:
        raise StaticAnalysisError(
            f"no matrix cell pairs preset={preset!r} with engine={engine!r}"
        )
    return cases


def inject_forwarding_loop(topology: Topology) -> str:
    """Corrupt one hardware LFT entry into a two-switch forwarding loop.

    Picks a terminal LID and an en-route switch pair (s -> t, with t not
    the destination) and points t's entry for that LID back at s. Returns
    a description of the corruption for the report header.
    """
    snap = FabricSnapshot.from_topology(topology)
    peer_of = snap.peer_of()
    for lid in snap.terminal_lids:
        dest = int(snap.dest_switch[lid])
        for s in range(snap.num_switches):
            if s == dest:
                continue
            out = int(snap.ports[s, lid])
            if out == LFT_UNSET:
                continue
            t = int(peer_of[s, out])
            if t < 0 or t == dest:
                continue
            back_ports = np.where(peer_of[t] == s)[0]
            if back_ports.size == 0:
                continue
            topology.set_lft(t, int(lid), int(back_ports[0]))
            return (
                f"LID {int(lid)}: pointed {snap.name_of(t)} back at"
                f" {snap.name_of(s)} (forwarding loop)"
            )
    raise StaticAnalysisError("found no LFT entry suitable for loop injection")


def corrupt_vl_assignment(sm: object, *, mode: str = "remap") -> str:
    """Corrupt one LID column of the SM's recorded lane plane in place.

    The negative mode of the per-VL checks: ``"remap"`` points a column
    at a nonexistent lane (VLC002 fires), ``"drop"`` clears one (VLC003
    fires), ``"collapse"`` squashes all layers onto VL0 (VLC001 fires on
    cyclic topologies). Returns a description for the report header.
    """
    from repro.sm.routing.vl import corrupt_assignment

    tables = getattr(sm, "current_tables", None)
    if tables is None or tables.lanes is None:
        raise StaticAnalysisError(
            "engine exports no lane plane to corrupt; --corrupt-vl"
            f" applies to the VL engines {list(VL_ENGINES)}"
        )
    return corrupt_assignment(tables, mode)


def run_case(
    case: FabricCheckCase,
    *,
    inject_fault: bool = False,
    corrupt_vl: bool = False,
    emit_metrics: bool = True,
) -> FabricCheckResult:
    """Build the preset, bring the subnet up, analyse per ``case.source``."""
    from repro.sm.subnet_manager import SubnetManager

    built = preset_builders()[case.preset]()
    sm = SubnetManager(built.topology, built=built, engine=case.engine)
    if case.source == "recorded":
        if inject_fault:
            raise StaticAnalysisError(
                "--inject-fault corrupts hardware LFTs; the recorded-source"
                f" preset {case.preset!r} never programs them"
            )
        sm.assign_lids()
        sm.compute_routing()
    else:
        sm.initial_configure()
    injected = (
        inject_forwarding_loop(built.topology) if inject_fault else None
    )
    if corrupt_vl:
        desc = corrupt_vl_assignment(sm)
        injected = f"{injected}; {desc}" if injected else desc
    report = analyze_subnet(sm, source=case.source, emit_metrics=emit_metrics)
    return FabricCheckResult(case=case, report=report, injected=injected)


def run_matrix(
    cases: Optional[Sequence[FabricCheckCase]] = None,
    *,
    inject_fault: bool = False,
    corrupt_vl: bool = False,
    emit_metrics: bool = True,
) -> List[FabricCheckResult]:
    """Run every matrix cell (default: :func:`default_cases`)."""
    if cases is None:
        cases = default_cases()
    return [
        run_case(
            c,
            inject_fault=inject_fault,
            corrupt_vl=corrupt_vl,
            emit_metrics=emit_metrics,
        )
        for c in cases
    ]
