"""Subnet discovery: the directed-route sweep OpenSM performs at startup.

Before any LFT exists, the SM can only reach nodes with directed-route SMPs
(paper section VI-A). Discovery walks the fabric breadth-first from the SM
node, issuing SubnGet(NodeInfo) per node and SubnGet(PortInfo) per connected
port, and reports what it found plus the SMP cost of finding it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Set

from repro.errors import TopologyError
from repro.fabric.node import Node, Switch
from repro.fabric.topology import Topology
from repro.mad.smp import Smp, SmpKind, SmpMethod
from repro.mad.transport import SmpTransport

__all__ = ["DiscoveryReport", "discover_subnet"]


@dataclass
class DiscoveryReport:
    """Outcome of one discovery sweep."""

    switches: List[str] = field(default_factory=list)
    hcas: List[str] = field(default_factory=list)
    smps_sent: int = 0
    serial_time: float = 0.0

    @property
    def num_nodes(self) -> int:
        """Total nodes discovered."""
        return len(self.switches) + len(self.hcas)


def discover_subnet(
    topology: Topology, transport: SmpTransport
) -> DiscoveryReport:
    """Breadth-first directed-route sweep from the SM node."""
    report = DiscoveryReport()
    before = transport.stats.snapshot()
    start: Node = transport.sm_node

    seen: Set[str] = {start.name}
    queue: deque = deque([start])
    while queue:
        node = queue.popleft()
        if isinstance(node, Switch):
            report.switches.append(node.name)
        else:
            report.hcas.append(node.name)
        # One run per node: its NodeInfo, then the PortInfo of each
        # connected port.
        gets = [Smp(SmpMethod.GET, SmpKind.NODE_INFO, node.name, directed=True)]
        for port in node.connected_ports():
            gets.append(
                Smp(
                    SmpMethod.GET,
                    SmpKind.PORT_INFO,
                    node.name,
                    payload={"port": port.num},
                    directed=True,
                )
            )
            peer = port.remote
            if peer is None:
                raise TopologyError(
                    f"port {port.num} of {node.name!r} reports a link"
                    " with no far end"
                )
            if peer.node.name not in seen:
                seen.add(peer.node.name)
                queue.append(peer.node)
        transport.send_run(gets)

    delta = transport.stats.delta_since(before)
    report.smps_sent = delta.total_smps
    report.serial_time = delta.serial_time
    report.switches.sort()
    report.hcas.sort()
    return report
