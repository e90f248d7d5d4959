"""The per-destination equal-cost candidate pass — oracle for the
candidate-table kernel (:func:`repro.fabric.graph.candidate_table`).

One destination at a time over the CSR edge arrays, exactly as the
routing cache computed its per-destination candidate arrays before they
became one repaired table.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.fabric.graph import edge_sources
from repro.fabric.topology import SwitchFabricView

__all__ = ["equal_cost_candidates"]


def equal_cost_candidates(
    view: SwitchFabricView, dist_to_dest: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-switch minimal next-hop ports toward one destination switch.

    Given the distance column ``dist_to_dest`` (hops from every switch to
    the destination), returns ``(cand_ports, cand_counts)`` where row ``s``
    of ``cand_ports`` holds the output ports of all neighbours one hop
    closer to the destination in CSR row order (padded with -1) and
    ``cand_counts[s]`` how many there are. The destination switch itself
    has zero candidates.
    """
    n = view.num_switches
    edge_src = edge_sources(view)
    good = dist_to_dest[view.peer] == dist_to_dest[edge_src] - 1
    good &= dist_to_dest[edge_src] > 0
    idx = np.nonzero(good)[0]  # ascending => grouped by source switch
    srcs = edge_src[idx]
    counts = np.bincount(srcs, minlength=n)
    maxc = int(counts.max()) if idx.size else 0
    cand = np.full((n, max(maxc, 1)), -1, dtype=np.int32)
    if idx.size:
        first = np.cumsum(counts) - counts
        pos = np.arange(idx.size) - first[srcs]
        cand[srcs, pos] = view.out_port[idx]
    return cand, counts.astype(np.int32)
