"""Orchestration of the static fabric checks into one analysis pass.

Entry points, from most to least context:

* :func:`analyze_cloud` — a :class:`~repro.virt.cloud.CloudManager`: adds
  the vSwitch LID-consistency check on top of everything below;
* :func:`analyze_subnet` — a live :class:`~repro.sm.subnet_manager
  .SubnetManager`: analyses the hardware LFTs (or the SM's recorded
  tables), inferring which legality checks apply from the active engine;
* :func:`analyze_fabric` — a bare topology + port matrix, with every
  topology-specific check opt-in;
* :func:`analyze_transition` — two port matrices (before/after a
  reconfiguration): the section VI-C union-CDG condition.

Every pass returns a
:class:`~repro.analysis.static.findings.StaticAnalysisReport` and
publishes finding counters to the observability metrics registry, so a
CI run of ``repro check-fabric`` and an in-test
``verify_subnet`` surface through the same exposition.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.fabric.graph import bfs_distances
from repro.fabric.topology import Topology
from repro.sm.routing.vl import VlAssignment
from repro.analysis.static.checks import (
    FabricSnapshot,
    check_dor_order,
    check_reachability,
    check_skyline_disjointness,
    check_updn_legality,
    check_vswitch_lids,
)
from repro.analysis.static.findings import StaticAnalysisReport
from repro.analysis.static.vl_checks import (
    check_deadlock_freedom,
    check_transition_deadlock,
    check_vl_capacity,
    check_vl_consistency,
    lane_dependencies,
)

__all__ = [
    "analyze_fabric",
    "analyze_subnet",
    "analyze_cloud",
    "analyze_transition",
]

#: Engines whose routed paths must satisfy Up*/Down* legality.
_UPDN_ENGINES = ("updn",)
#: Engines whose routed paths must satisfy XY dimension order.
_DOR_ENGINES = ("dor",)


def _updn_rank(
    snap: FabricSnapshot, metadata: dict, root_indices: Sequence[int]
) -> Optional[np.ndarray]:
    """Recover the Up*/Down* BFS rank for legality checking."""
    rank = metadata.get("rank")
    if rank is not None:
        return np.asarray(rank, dtype=np.int64)
    root = metadata.get("root")
    if root is None:
        root = root_indices[0] if root_indices else 0
    return bfs_distances(snap.view, int(root)).astype(np.int64)


def _grid_hints(metadata: dict, hints: dict) -> Optional[Tuple[int, int]]:
    """(rows, cols) of a mesh/torus, from engine metadata or builder hints."""
    rows = int(metadata.get("rows", hints.get("rows", 0)) or 0)
    cols = int(metadata.get("cols", hints.get("cols", 0)) or 0)
    if rows > 0 and cols > 0:
        return rows, cols
    return None


def _emit_vl_metrics(
    fabric: str, vl: VlAssignment, lanes: List[np.ndarray]
) -> None:
    """Publish ``repro_static_vl_*`` gauges for one per-VL pass."""
    from repro.obs import get_hub

    metrics = get_hub().metrics
    metrics.counter("repro_static_vl_checks_total").add(1)
    metrics.gauge("repro_static_vl_layers", fabric=fabric).set(
        float(vl.num_vls)
    )
    for v, keys in enumerate(lanes):
        metrics.gauge(
            "repro_static_vl_dependencies", fabric=fabric, vl=str(v)
        ).set(float(keys.size))


def analyze_fabric(
    topology: Topology,
    *,
    ports: Optional[np.ndarray] = None,
    snapshot: Optional[FabricSnapshot] = None,
    engine: Optional[str] = None,
    metadata: Optional[dict] = None,
    hints: Optional[dict] = None,
    root_indices: Sequence[int] = (),
    vswitches: Sequence[object] = (),
    scheme: Optional[str] = None,
    skylines: Sequence[object] = (),
    lids: Optional[Sequence[int]] = None,
    fabric: Optional[str] = None,
    emit_metrics: bool = True,
    workers: int = 1,
) -> StaticAnalysisReport:
    """Run every applicable static check over one fabric state.

    ``ports`` defaults to the switches' hardware LFTs; pass an engine's
    ``RoutingTables.ports`` to analyse intent instead. A caller that
    already holds the :class:`FabricSnapshot` of that state passes it as
    ``snapshot`` and nothing is re-read from the switches. ``engine`` selects
    the extra legality checks (``"updn"`` -> UPDN001, ``"dor"`` ->
    DOR001); ``metadata``/``hints`` supply their rank and grid inputs.

    The ``"cdg"`` check proves every data lane acyclic: CDG001 under the
    trivial assignment, VLC001 when ``metadata`` carries a VL assignment
    (LASH/DFSSSP), which also adds VLC002/VLC003. ``workers`` shards the
    lane construction (pair-keyed assignments on large fabrics).
    """
    metadata = metadata or {}
    hints = hints or {}
    vl = VlAssignment.from_metadata(metadata)
    if snapshot is None:
        snap = FabricSnapshot.from_topology(topology, ports, vl=vl)
    else:
        snap = replace(snapshot, vl=vl)
    report = StaticAnalysisReport(
        fabric=fabric or topology.name,
        lids_analyzed=int(snap.lids.size),
        switches_analyzed=snap.num_switches,
    )
    report.extend("reachability", check_reachability(snap, lids=lids))
    if vl is not None:
        report.extend("vl-consistency", check_vl_consistency(snap))
        report.extend("vl-capacity", check_vl_capacity(snap))
    lanes = lane_dependencies(snap, snap.scope(lids), workers=workers)
    report.extend("cdg", check_deadlock_freedom(snap, lanes=lanes))
    if vl is not None and emit_metrics:
        _emit_vl_metrics(report.fabric, vl, lanes)
    if engine in _UPDN_ENGINES:
        rank = _updn_rank(snap, metadata, root_indices)
        if rank is not None:
            report.extend(
                "updn-legality",
                check_updn_legality(snap, rank, lids=lids),
            )
    if engine in _DOR_ENGINES:
        grid = _grid_hints(metadata, hints)
        if grid is not None:
            report.extend(
                "dor-order",
                check_dor_order(snap, grid[0], grid[1], lids=lids),
            )
    if vswitches:
        report.extend(
            "vswitch-lids",
            check_vswitch_lids(topology, vswitches, scheme=scheme),
        )
    if skylines:
        report.extend(
            "skyline-disjointness", check_skyline_disjointness(skylines)
        )
    if emit_metrics:
        report.emit_metrics()
    return report


def analyze_subnet(
    sm: object,
    *,
    source: str = "hardware",
    snapshot: Optional[FabricSnapshot] = None,
    vswitches: Sequence[object] = (),
    scheme: Optional[str] = None,
    skylines: Sequence[object] = (),
    lids: Optional[Sequence[int]] = None,
    emit_metrics: bool = True,
    workers: int = 1,
) -> StaticAnalysisReport:
    """Analyse a live subnet manager's fabric.

    ``source`` selects what is proven: ``"hardware"`` (default) reads the
    switches' programmed LFTs — the state packets actually follow;
    ``"recorded"`` reads the SM's last computed
    :class:`~repro.sm.routing.base.RoutingTables`. Either way the SM's
    recorded metadata supplies the VL assignment, so VL-routed fabrics
    are checked per lane. ``snapshot`` is an already-built
    snapshot of the selected source (see :func:`analyze_fabric`).
    """
    from repro.errors import StaticAnalysisError

    tables = getattr(sm, "current_tables", None)
    if source == "recorded":
        if tables is None:
            raise StaticAnalysisError(
                "SM has no recorded routing tables to analyse"
            )
        ports: Optional[np.ndarray] = tables.ports
    elif source == "hardware":
        ports = None
    else:
        raise StaticAnalysisError(
            f"unknown analysis source {source!r}; use 'hardware' or 'recorded'"
        )
    engine = getattr(getattr(sm, "engine", None), "name", None)
    metadata = dict(tables.metadata) if tables is not None else {}
    request = getattr(sm, "last_request", None)
    hints = dict(getattr(request, "hints", {}) or {})
    roots = list(getattr(request, "root_indices", []) or [])
    return analyze_fabric(
        sm.topology,
        ports=ports,
        snapshot=snapshot,
        engine=engine,
        metadata=metadata,
        hints=hints,
        root_indices=roots,
        vswitches=vswitches,
        scheme=scheme,
        skylines=skylines,
        lids=lids,
        fabric=f"{sm.topology.name}:{source}",
        emit_metrics=emit_metrics,
        workers=workers,
    )


def analyze_cloud(
    cloud: object,
    *,
    source: str = "hardware",
    skylines: Sequence[object] = (),
    emit_metrics: bool = True,
) -> StaticAnalysisReport:
    """Analyse a cloud's subnet plus its vSwitch addressing invariants."""
    vswitches = [h.vswitch for h in cloud.hypervisors.values()]
    return analyze_subnet(
        cloud.sm,
        source=source,
        vswitches=vswitches,
        scheme=cloud.scheme.name,
        skylines=skylines,
        emit_metrics=emit_metrics,
    )


def analyze_transition(
    topology: Topology,
    old_ports: np.ndarray,
    new_ports: np.ndarray,
    *,
    old_metadata: Optional[dict] = None,
    new_metadata: Optional[dict] = None,
    lids: Optional[Sequence[int]] = None,
    emit_metrics: bool = True,
    workers: int = 1,
) -> StaticAnalysisReport:
    """Section VI-C: is the old/new routing *union* deadlock-free?

    Both matrices must describe the current switch graph. Old and new
    dependencies must union acyclically on every data lane; a finding
    carries the offending dependency cycle (CDG002 when neither side's
    metadata declares a VL assignment, VLC004 otherwise).
    """
    old = FabricSnapshot.from_topology(
        topology, old_ports, vl=VlAssignment.from_metadata(old_metadata)
    )
    new = FabricSnapshot.from_topology(
        topology, new_ports, vl=VlAssignment.from_metadata(new_metadata)
    )
    report = StaticAnalysisReport(
        fabric=f"{topology.name}:transition",
        lids_analyzed=int(new.lids.size),
        switches_analyzed=new.num_switches,
    )
    report.extend(
        "transition-cdg",
        check_transition_deadlock(old, new, lids=lids, workers=workers),
    )
    if emit_metrics:
        report.emit_metrics()
    return report
