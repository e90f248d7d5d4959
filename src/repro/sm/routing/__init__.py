"""Routing engines: MinHop, fat-tree, Up*/Down*, DFSSSP, LASH — plus the
versioned routing-state cache that makes repeat computations incremental."""

from repro.sm.routing.base import (
    RoutingAlgorithm,
    RoutingRequest,
    RoutingTables,
    all_pairs_switch_distances,
    bfs_distances,
    candidate_table,
)
from repro.sm.routing.cache import RoutingCacheStats, RoutingState
from repro.sm.routing.dfsssp import DFSSSPRouting
from repro.sm.routing.dor import DimensionOrderedRouting
from repro.sm.routing.fattree import FatTreeRouting
from repro.sm.routing.lash import LashRouting
from repro.sm.routing.minhop import MinHopRouting
from repro.sm.routing.registry import available_engines, create_engine, register_engine
from repro.sm.routing.updn import UpDownRouting

__all__ = [
    "RoutingAlgorithm",
    "RoutingRequest",
    "RoutingTables",
    "bfs_distances",
    "all_pairs_switch_distances",
    "candidate_table",
    "RoutingState",
    "RoutingCacheStats",
    "MinHopRouting",
    "FatTreeRouting",
    "UpDownRouting",
    "DFSSSPRouting",
    "DimensionOrderedRouting",
    "LashRouting",
    "available_engines",
    "create_engine",
    "register_engine",
]
