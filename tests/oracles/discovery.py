"""The per-node discovery walker — oracle for the one-plan sweep.

Walks the fabric breadth-first from the SM node and sends, node by node,
``Smp`` objects (its NodeInfo GET, then the PortInfo GET of each
connected port) one ``send`` at a time, as
``repro.sm.discovery.discover_subnet`` did before it built one
``SmpPlan`` per sweep and handed it to ``deliver``.
"""

from __future__ import annotations

from collections import deque
from typing import Set

from repro.errors import TopologyError
from repro.fabric.node import Node, Switch
from repro.fabric.topology import Topology
from repro.mad.smp import Smp, SmpKind, SmpMethod
from repro.mad.transport import SmpTransport
from repro.sm.discovery import DiscoveryReport

__all__ = ["discover_per_node"]


def discover_per_node(
    topology: Topology, transport: SmpTransport
) -> DiscoveryReport:
    """Breadth-first directed-route sweep from the SM node, one packet at
    a time. *transport* may be a ``ReliableSmpSender``."""
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
        # Per node: its NodeInfo, then the PortInfo of each connected port.
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
        for smp in gets:
            transport.send(smp)

    delta = transport.stats.delta_since(before)
    report.smps_sent = delta.total_smps
    report.serial_time = delta.serial_time
    report.switches.sort()
    report.hcas.sort()
    return report
