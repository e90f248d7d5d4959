"""Live-rewiring choices for the chaos ``rewire`` knob.

:class:`RewirePlanner` picks the next topology mutation (add / remove /
restore a cable, add / remove a switch) from the fabric RNG stream and
remembers what earlier mutations make possible (a removed cable can be
restored, an added switch is the preferred removal victim). The fabric
queries it needs — which cables and switches can go without partitioning
the switch graph — are shared with the chaos runner's flap and
switch-death handlers. :func:`cold_identical` is the end-of-run check
that the incrementally repaired routing equals a cold recompute.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Iterable, List, Optional

from repro.errors import TopologyError
from repro.fabric.node import Switch
from repro.fabric.topology import Topology, TopologyMutation
from repro.sm.routing.base import RoutingRequest
from repro.sm.routing.registry import create_engine
from repro.sm.subnet_manager import SubnetManager

__all__ = [
    "RewirePlanner",
    "cold_identical",
    "fabric_cables",
    "removable_switches",
]


def fabric_cables(topology: Topology) -> list:
    """Inter-switch cables in registry order — the flap/rewire pool."""
    return [link for link in topology.links if min(link.switch_ends) >= 0]


def _would_partition(topology: Topology, **without: object) -> bool:
    """Whether the switch graph falls apart ``without_switch``/``_link``."""
    view = topology.fabric_view()
    return view.num_switches < 2 or bool(view.unreached(**without))


def removable_switches(
    topology: Topology, pool: Optional[Iterable[Switch]] = None
) -> List[Switch]:
    """Switches (of *pool*, default all) that host no HCA and whose death
    leaves the remaining switch graph connected."""
    return [
        sw
        for sw in (topology.switches if pool is None else pool)
        if not sw.attached_hcas()
        and not _would_partition(topology, without_switch=sw.index)
    ]


class RewirePlanner:
    """Chooses live topology mutations from one RNG stream."""

    def __init__(self, sm: SubnetManager, rng: random.Random) -> None:
        self.sm = sm
        self.rng = rng
        #: Restore candidates for cables a rewire removed, names of
        #: switches a rewire added (preferred removal victims), and a
        #: monotonic sequence for generated names.
        self._removed_cables: List[TopologyMutation] = []
        self._added_switches: List[str] = []
        self._seq = 0

    def plan(self) -> Optional[TopologyMutation]:
        """Pick the next mutation, or None when no kind has a candidate.

        Draws the preferred kind first, then rotates through the others
        until one has a viable candidate, so a single exhausted pool
        (e.g. nothing left to restore) never wastes a scheduled op.
        """
        planners = (
            self._add_link,
            self._remove_link,
            self._restore_link,
            self._add_switch,
            self._remove_switch,
        )
        start = self.rng.randrange(len(planners))
        for offset in range(len(planners)):
            mutation = planners[(start + offset) % len(planners)]()
            if mutation is not None:
                return mutation
        return None

    def note(self, mutation: TopologyMutation) -> None:
        """Track inverse-operation candidates of a performed mutation."""
        if mutation.kind == "remove_link":
            self._removed_cables.append(replace(mutation, kind="restore_link"))
        elif mutation.kind == "add_switch":
            self._added_switches.append(mutation.a)
        elif mutation.kind == "remove_switch":
            if mutation.a in self._added_switches:
                self._added_switches.remove(mutation.a)

    def _open_switches(self) -> List[Switch]:
        return [
            sw
            for sw in self.sm.topology.switches
            if next(sw.free_ports(), None) is not None
        ]

    def _add_link(self) -> Optional[TopologyMutation]:
        """A new cable between two non-adjacent switches with free ports."""
        adjacent = {
            tuple(sorted((link.a.node.name, link.b.node.name)))
            for link in fabric_cables(self.sm.topology)
        }
        open_switches = self._open_switches()
        pairs = [
            (a, b)
            for i, a in enumerate(open_switches)
            for b in open_switches[i + 1 :]
            if tuple(sorted((a.name, b.name))) not in adjacent
        ]
        if not pairs:
            return None
        a, b = self.rng.choice(pairs)
        return TopologyMutation(
            kind="add_link",
            a=a.name,
            port_a=next(a.free_ports()).num,
            b=b.name,
            port_b=next(b.free_ports()).num,
        )

    def _remove_link(self) -> Optional[TopologyMutation]:
        """A removable inter-switch cable (its cut does not partition)."""
        topology = self.sm.topology
        candidates = [
            link
            for link in fabric_cables(topology)
            if not _would_partition(topology, without_link=link.switch_ends)
        ]
        if not candidates:
            return None
        return TopologyMutation.cable(
            "remove_link", self.rng.choice(candidates)
        )

    def _restore_link(self) -> Optional[TopologyMutation]:
        """Re-plug a cable a previous rewire removed, if ports are free."""
        topology = self.sm.topology
        viable = []
        for mutation in self._removed_cables:
            try:
                port_a = topology.node(mutation.a).port(mutation.port_a)
                port_b = topology.node(mutation.b).port(mutation.port_b)
            except TopologyError:
                continue  # an endpoint switch has since been removed
            if not port_a.is_connected and not port_b.is_connected:
                viable.append(mutation)
        if not viable:
            return None
        mutation = self.rng.choice(viable)
        self._removed_cables.remove(mutation)
        return mutation

    def _add_switch(self) -> Optional[TopologyMutation]:
        """A new switch cabled to two existing switches with free ports."""
        open_switches = self._open_switches()
        if len(open_switches) < 2:
            return None
        peer_a = self.rng.choice(open_switches)
        peer_b = self.rng.choice(
            [sw for sw in open_switches if sw is not peer_a]
        )
        level = getattr(self.sm.built, "level", None)
        new_level = -1
        if isinstance(level, dict):
            known = [
                level[p.name] for p in (peer_a, peer_b) if p.name in level
            ]
            if known:
                new_level = max(known) + 1
        self._seq += 1
        while f"rw{self._seq}" in self.sm.topology:
            self._seq += 1
        return TopologyMutation(
            kind="add_switch",
            a=f"rw{self._seq}",
            num_ports=8,
            level=new_level,
            cables=(
                (1, peer_a.name, next(peer_a.free_ports()).num),
                (2, peer_b.name, next(peer_b.free_ports()).num),
            ),
        )

    def _remove_switch(self) -> Optional[TopologyMutation]:
        """A safely removable switch, preferring rewire-added ones."""
        topology = self.sm.topology
        added = [
            topology.node(name)
            for name in self._added_switches
            if name in topology
        ]
        pool = removable_switches(
            topology, [sw for sw in added if isinstance(sw, Switch)]
        ) or removable_switches(topology)
        if not pool:
            return None
        return TopologyMutation(
            kind="remove_switch", a=self.rng.choice(pool).name
        )


def cold_identical(sm: SubnetManager) -> bool:
    """Whether the warm-cache routing equals a cold recompute, byte for byte.

    The distance state was incrementally repaired across every mutation
    of the run; an engine computing from scratch on the final topology
    must produce byte-identical port assignments, or the repair chain
    silently diverged somewhere. The probe is side-effect free:
    ``current_tables`` (which vSwitch fast-path migrations keep in sync
    with the *hardware*, without recomputes) is restored afterwards so
    the end-of-run audit still compares what was actually distributed.
    """
    saved = sm.current_tables, sm.last_request, sm.ha
    sm.ha = None  # do not journal the probe's tables
    try:
        warm = sm.compute_routing()
    finally:
        sm.current_tables, sm.last_request, sm.ha = saved
    request = RoutingRequest.from_topology(sm.topology, built=sm.built)
    cold = create_engine(warm.algorithm).compute(request)
    return (
        warm.ports.shape == cold.ports.shape
        and warm.ports.tobytes() == cold.ports.tobytes()
    )
