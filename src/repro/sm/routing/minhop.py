"""MinHop routing — OpenSM's default engine.

Computes all-pairs minimal hop distances on the switch graph, then for every
destination LID picks, at each switch, a neighbour on a minimal path. Equal
cost choices are balanced across LIDs, which is what lets the prepopulated
vSwitch scheme "calculate and use different paths to reach different VMs
hosted by the same hypervisor" (paper section V-A, the LMC-like feature).

Two balancing policies are provided:

* ``"lid-mod"`` (default) — destination-indexed spreading: candidate ports
  are chosen by ``lid % num_candidates``. Deterministic, vectorized, and
  spreads consecutive LIDs over distinct ports.
* ``"least-loaded"`` — OpenSM-like greedy: track per (switch, port) path
  counts and pick the least-loaded minimal port. Exact but scalar; intended
  for small fabrics and tests of balancing properties.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.errors import RoutingError
from repro.fabric.graph import candidate_table
from repro.sm.routing.base import (
    RoutingAlgorithm,
    RoutingRequest,
    RoutingTables,
)

__all__ = ["MinHopRouting"]


class MinHopRouting(RoutingAlgorithm):
    """Minimal-hop routing with equal-cost balancing."""

    name = "minhop"

    def __init__(self, balance: str = "lid-mod") -> None:
        if balance not in ("lid-mod", "least-loaded"):
            raise RoutingError(f"unknown balance policy {balance!r}")
        self.balance = balance

    def compute(self, request: RoutingRequest) -> RoutingTables:
        # All-pairs distances come from the shared RoutingState when the
        # request carries one: a warm cache turns the O(n * E) sweep into a
        # dictionary hit, and after failures only the repaired rows differ.
        dist = request.switch_distances()
        if (dist < 0).any():
            raise RoutingError("switch graph is disconnected")
        if self.balance == "lid-mod" and request.state is not None:
            ports = request.state.lid_mod_ports(request, self)  # kept, refilled or full
        else:
            ports = self._empty_tables(request)
            self._program_local_entries(ports, request)
            if self.balance == "lid-mod":  # one full fill, the kept one's oracle
                table = candidate_table(request.view, dist)
                self._assign_lid_mod(ports, table, *request.lid_arrays())
            else:
                # Destination switch index -> LIDs that terminate there
                # (or at an endpoint hanging off it).
                self._assign_least_loaded(
                    request, dist, ports, request.dest_groups()
                )

        return RoutingTables(
            algorithm=self.name,
            ports=ports,
            metadata={"switch_distances": dist, "balance": self.balance},
        )

    def _assign_least_loaded(
        self,
        request: RoutingRequest,
        dist: np.ndarray,
        ports: np.ndarray,
        dest_groups: Dict[int, List[int]],
    ) -> None:
        view = request.view
        n = request.num_switches
        # load[(switch, port)] = number of destination LIDs routed via it.
        load: Dict[tuple, int] = {}
        for dest_sw in sorted(dest_groups):
            lids = sorted(dest_groups[dest_sw])
            col = dist[:, dest_sw]
            for lid in lids:
                for s in range(n):
                    if col[s] <= 0:
                        continue
                    best_port = -1
                    best_load = None
                    lo, hi = view.indptr[s], view.indptr[s + 1]
                    for k in range(lo, hi):
                        nb = int(view.peer[k])
                        if col[nb] != col[s] - 1:
                            continue
                        p = int(view.out_port[k])
                        l = load.get((s, p), 0)
                        if best_load is None or l < best_load:
                            best_load, best_port = l, p
                    if best_port < 0:
                        raise RoutingError(
                            f"no minimal neighbour at switch {s} for {dest_sw}"
                        )
                    ports[s, lid] = best_port
                    load[(s, best_port)] = load.get((s, best_port), 0) + 1
