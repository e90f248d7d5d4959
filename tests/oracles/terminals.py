"""The terminal walk — the oracle for the topology's terminal table.

``Topology`` keeps where every LID attaches as two arrays (``lid_switch``,
``lid_port``) that its LID registry, HCA cabling and switch removal
write. Before it did, every reader rebuilt the attachment per call by
walking the registry: each bound LID's port, then the switch port at the
far end of its cable. :func:`attachments` is that walk, :func:`table` its
array form (what ``tests/fabric/test_terminal_table.py`` holds the live
table to), :func:`uncabled` the HCA walk ``Topology.validate()`` used to
make and :func:`terminals` the endpoint list ``Topology.terminals()``
used to return. :func:`endpoints` / :func:`switch_lids` read the same
rows out of a :class:`~repro.sm.routing.base.RoutingRequest`'s copy of
the table, for the dict-walking routing oracles.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.constants import MAX_UNICAST_LID
from repro.errors import TopologyError
from repro.fabric.node import Switch
from repro.fabric.topology import Topology
from repro.sm.routing.base import RoutingRequest

__all__ = [
    "Terminal", "attachments", "table", "uncabled", "terminals", "endpoints", "by_switch",
    "switch_lids",
]


class Terminal(NamedTuple):
    """A routable endpoint LID, the switch it attaches to and the port on
    that switch through which it is reached."""

    lid: int
    switch_index: int
    switch_port: int


def attachments(topology: Topology) -> Dict[int, Tuple[int, int]]:
    """Bound LID -> ``(switch index, exit port)``, port 0 for a switch's
    own LID; a LID whose port leads to no switch is left out."""
    out: Dict[int, Tuple[int, int]] = {}
    for lid in topology.bound_lids():
        port = topology.port_of_lid(lid)
        if isinstance(port.node, Switch) and port.num == 0:
            out[lid] = (port.node.index, 0)
            continue
        attach = port.remote
        if attach is not None and isinstance(attach.node, Switch):
            out[lid] = (attach.node.index, attach.num)
    return out


def uncabled(topology: Topology) -> List[str]:
    """The names of the HCAs with no cable on any port."""
    return [
        hca.name for hca in topology.hcas
        if not any(p.is_connected for p in hca.ports.values())
    ]


def table(topology: Topology) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`attachments` as ``(lid_switch, lid_port)`` over the whole
    unicast LID space, -1 where no LID attaches."""
    lid_switch = np.full(MAX_UNICAST_LID + 1, -1, np.int32)
    lid_port = np.full(MAX_UNICAST_LID + 1, -1, np.int16)
    for lid, (switch, port) in attachments(topology).items():
        lid_switch[lid], lid_port[lid] = switch, port
    return lid_switch, lid_port


def terminals(topology: Topology) -> List[Terminal]:
    """Every bound endpoint LID with its attachment, ascending; a bound
    LID attached nowhere raises :class:`TopologyError`."""
    where = attachments(topology)
    stranded = sorted(set(topology.bound_lids()) - set(where))
    if stranded:
        raise TopologyError(f"LID {stranded[0]} is not attached to a switch")
    return [Terminal(lid, sw, port) for lid, (sw, port) in sorted(where.items()) if port]


def endpoints(request: RoutingRequest) -> List[Terminal]:
    """The endpoint rows of *request*'s terminal table, ascending."""
    lids = np.flatnonzero(request.lid_port > 0).tolist()
    return [
        Terminal(lid, int(request.lid_switch[lid]), int(request.lid_port[lid]))
        for lid in lids
    ]


def by_switch(request: RoutingRequest) -> Dict[int, List[Terminal]]:
    """:func:`endpoints` grouped by attachment switch."""
    groups: Dict[int, List[Terminal]] = {}
    for t in endpoints(request):
        groups.setdefault(t.switch_index, []).append(t)
    return groups


def switch_lids(request: RoutingRequest) -> Dict[int, int]:
    """Switch self-LID -> switch index, from *request*'s terminal table."""
    lids = np.flatnonzero(request.lid_port == 0).tolist()
    return {lid: int(request.lid_switch[lid]) for lid in lids}
