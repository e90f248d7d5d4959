"""Topology builders: fat-trees and generic shapes.

Every builder returns a :class:`~repro.fabric.builders.fattree.BuiltTopology`
wrapping the constructed :class:`~repro.fabric.topology.Topology` together
with the structural metadata (tree levels, pod membership, grid
dimensions) that structure-aware routing engines and the migration planner
consume. Builders never assign LIDs — that is the subnet manager's job.
"""

from repro.fabric.builders.fattree import (
    BuiltTopology,
    build_three_level_fattree,
    build_two_level_fattree,
)
from repro.fabric.builders.generic import (
    build_mesh_2d,
    build_random_regular,
    build_ring,
    build_single_switch,
    build_torus_2d,
)

__all__ = [
    "BuiltTopology",
    "build_two_level_fattree",
    "build_three_level_fattree",
    "build_single_switch",
    "build_ring",
    "build_mesh_2d",
    "build_torus_2d",
    "build_random_regular",
]
