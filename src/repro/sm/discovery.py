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

from repro.fabric.node import Node, Switch
from repro.fabric.topology import Topology
from repro.mad.smp import SmpKind, SmpPlan
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

    # One plan per sweep, two rows per node: its NodeInfo, then the
    # PortInfo of each connected port.
    targets: List[str] = []
    counts: List[int] = []
    args: List[int] = []
    seen: Set[str] = {start.name}
    queue: deque = deque([start])
    try:
        while queue:
            node = queue.popleft()
            if isinstance(node, Switch):
                report.switches.append(node.name)
            else:
                report.hcas.append(node.name)
            ports = [0]
            for port in node.ports.values():
                link = port.link
                if link is None:
                    continue
                ports.append(port.num)
                peer = link.other_end(port)
                if peer is None:
                    raise port.no_far_end()
                if peer.node.name not in seen:
                    seen.add(peer.node.name)
                    queue.append(peer.node)
            targets += (node.name, node.name)
            counts += (1, len(ports) - 1)
            args += ports
    finally:
        # A walk that fails still sent to every node before the bad one.
        kinds = (SmpKind.NODE_INFO, SmpKind.PORT_INFO) * (len(targets) // 2)
        transport.deliver(SmpPlan(targets, kinds, counts, args))

    cost = transport.stats.delta_since(before)
    report.smps_sent = cost.total_smps
    report.serial_time = cost.serial_time
    report.switches.sort()
    report.hcas.sort()
    return report
