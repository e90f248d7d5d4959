"""Preset topologies: the paper's four fat-trees and scaled-down twins.

``paper_fattree(nodes)`` reconstructs the exact instances behind Fig. 7 and
Table I (36-port switches). ``scaled_fattree(profile)`` provides structurally
identical but smaller instances, the defaults of the claim register and
the test suite; ``repro claims --paper-scale`` and ``repro fig7
--paper-scale`` use the full-size ones.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import TopologyError
from repro.fabric.builders.fattree import (
    BuiltTopology,
    build_three_level_fattree,
    build_two_level_fattree,
)

__all__ = [
    "PAPER_FATTREE_NODES",
    "paper_fattree",
    "scaled_fattree",
    "SCALED_PROFILES",
]

#: The node counts of the paper's four simulated fat-trees (Fig. 7, Table I).
PAPER_FATTREE_NODES: Tuple[int, ...] = (324, 648, 5832, 11664)

#: Expected (switches, consumed LIDs) per paper Table I, used by tests.
PAPER_TABLE1_SHAPE: Dict[int, Tuple[int, int]] = {
    324: (36, 360),
    648: (54, 702),
    5832: (972, 6804),
    11664: (1620, 13284),
}


def paper_fattree(nodes: int, *, attach_hosts: bool = True) -> BuiltTopology:
    """Build one of the paper's four fat-trees by node count."""
    if nodes == 324:
        return build_two_level_fattree(
            num_leaves=18,
            hosts_per_leaf=18,
            num_spines=18,
            switch_radix=36,
            attach_hosts=attach_hosts,
            name="paper-ft-324",
        )
    if nodes == 648:
        return build_two_level_fattree(
            num_leaves=36,
            hosts_per_leaf=18,
            num_spines=18,
            switch_radix=36,
            attach_hosts=attach_hosts,
            name="paper-ft-648",
        )
    if nodes == 5832:
        return build_three_level_fattree(
            num_pods=18, switch_radix=36, attach_hosts=attach_hosts,
            name="paper-ft-5832",
        )
    if nodes == 11664:
        return build_three_level_fattree(
            num_pods=36, switch_radix=36, attach_hosts=attach_hosts,
            name="paper-ft-11664",
        )
    raise TopologyError(
        f"no paper fat-tree with {nodes} nodes; choose {PAPER_FATTREE_NODES}"
    )


#: Scaled-down structural twins: name -> builder kwargs. The two 2-level
#: profiles shrink the paper's 324/648-node instances by 1/3 radix; the two
#: 3-level profiles shrink 5832/11664 to radix 12 (half-radix 6).
SCALED_PROFILES: Dict[str, Dict[str, int]] = {
    "2l-small": {"levels": 2, "num_leaves": 6, "hosts_per_leaf": 6, "num_spines": 6, "switch_radix": 12},
    "2l-wide": {"levels": 2, "num_leaves": 12, "hosts_per_leaf": 6, "num_spines": 6, "switch_radix": 12},
    "3l-small": {"levels": 3, "num_pods": 6, "switch_radix": 12},
    "3l-wide": {"levels": 3, "num_pods": 12, "switch_radix": 12},
}

#: Pairs each scaled profile with the paper instance it mimics.
SCALED_TO_PAPER: Dict[str, int] = {
    "2l-small": 324,
    "2l-wide": 648,
    "3l-small": 5832,
    "3l-wide": 11664,
}


def scaled_fattree(profile: str, *, attach_hosts: bool = True) -> BuiltTopology:
    """Build a scaled-down structural twin of a paper fat-tree."""
    try:
        params = dict(SCALED_PROFILES[profile])
    except KeyError:
        raise TopologyError(
            f"unknown profile {profile!r}; choose {sorted(SCALED_PROFILES)}"
        ) from None
    levels = params.pop("levels")
    if levels == 2:
        return build_two_level_fattree(
            attach_hosts=attach_hosts, name=f"scaled-{profile}", **params
        )
    return build_three_level_fattree(
        attach_hosts=attach_hosts, name=f"scaled-{profile}", **params
    )
