"""Physical fabric elements: nodes, ports and queue pairs.

The fabric layer models the *physical* subnet only — switches, host channel
adapters (HCAs) and their ports. SR-IOV functions (PF/VFs) are layered on
top in :mod:`repro.sriov`, and the vSwitch abstraction of the paper lives
there too.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, Iterator, List, Optional, TYPE_CHECKING

from repro.constants import LFT_UNSET, QP0, QP1
from repro.errors import TopologyError
from repro.fabric.addressing import GUID

if TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.link import Link
    from repro.fabric.topology import Topology

__all__ = [
    "NodeType",
    "Port",
    "Node",
    "Switch",
    "HCA",
    "QueuePair",
    "PortCounters",
    "PMA_COUNTER_WRAP",
]

#: PMA counters are 32-bit on the wire (IBA 16.1.3.5); reads wrap modulo
#: this and the PerfManager reconstructs monotonic totals from deltas.
PMA_COUNTER_WRAP = 2**32


class NodeType(enum.Enum):
    """IB node types as reported in NodeInfo."""

    SWITCH = "switch"
    CA = "ca"  # channel adapter (an HCA)


class QueuePair:
    """A Queue Pair — the virtual communication port of IB consumers.

    QP0 and QP1 are special: they carry subnet management (SMPs) and general
    management (GMPs) traffic respectively. The Shared Port architecture's
    inability to host an SM inside a VM stems from VFs being denied QP0
    access (paper section IV-A); we model ownership and the permission bit
    explicitly so that rule is testable.
    """

    def __init__(self, qpn: int, *, owner: str, smi_allowed: bool = True) -> None:
        if qpn < 0:
            raise TopologyError(f"negative QPN {qpn}")
        self.qpn = qpn
        self.owner = owner
        #: Whether SMPs presented to this QP are accepted (False on VFs'
        #: proxied QP0 under Shared Port).
        self.smi_allowed = smi_allowed

    @property
    def is_management(self) -> bool:
        """True for the special QP0/QP1 pair."""
        return self.qpn in (QP0, QP1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<QP{self.qpn} owner={self.owner!r} smi={self.smi_allowed}>"


class Port:
    """One physical port of a node.

    Switch external ports carry no LID of their own (the switch LID lives on
    port 0); HCA ports hold the LID(s) assigned by the SM.
    """

    def __init__(self, node: "Node", num: int) -> None:
        self.node = node
        self.num = num
        self.link: Optional["Link"] = None
        #: LID assigned by the SM (None until assigned). For switches only
        #: port 0 carries a LID.
        self.lid: Optional[int] = None

    @property
    def is_connected(self) -> bool:
        """True iff a link is plugged into this port."""
        return self.link is not None

    @property
    def remote(self) -> Optional["Port"]:
        """The port at the other end of the link, if connected."""
        if self.link is None:
            return None
        return self.link.other_end(self)

    def no_far_end(self) -> TopologyError:
        """What a walk raises at this port when its cable ends nowhere."""
        where = f"port {self.num} of {self.node.name!r}"
        return TopologyError(f"{where} reports a link with no far end")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Port {self.node.name}:{self.num}>"


class Node:
    """Base class for switches and HCAs."""

    _ids = itertools.count(1)

    def __init__(self, name: str, node_type: NodeType, num_ports: int) -> None:
        if num_ports < 1:
            raise TopologyError(f"node {name!r} needs at least one port")
        self.name = name
        self.node_type = node_type
        self.node_guid: Optional[GUID] = None
        #: Stable dense index assigned by the Topology on registration; used
        #: by routing engines to index arrays.
        self.index: int = -1
        # Port numbering follows IB convention: 1..num_ports are external.
        self.ports: Dict[int, Port] = {
            num: Port(self, num) for num in range(1, num_ports + 1)
        }
        #: PMA-style per-port counters (created on first touch). Every
        #: node — switch *and* HCA — carries them; port 0 (the switch
        #: management port) is valid on switches only.
        self.counters: Dict[int, "PortCounters"] = {}

    def port_counters(self, port: int) -> "PortCounters":
        """Counters for one port (validated and created on first touch)."""
        counters = self.counters.get(port)
        if counters is None:
            low = 0 if self.is_switch else 1
            if not low <= port <= self.num_ports:
                raise TopologyError(f"{self.name!r} has no port {port}")
            counters = self.counters[port] = PortCounters()
        return counters

    @property
    def num_ports(self) -> int:
        """Number of external ports."""
        return len(self.ports)

    def port(self, num: int) -> Port:
        """Return external port *num* (1-based), raising on bad numbers."""
        try:
            return self.ports[num]
        except KeyError:
            raise TopologyError(
                f"{self.name!r} has no port {num} (1..{self.num_ports})"
            ) from None

    def connected_ports(self) -> Iterator[Port]:
        """Iterate over ports with a link attached."""
        return (p for p in self.ports.values() if p.is_connected)

    def free_ports(self) -> Iterator[Port]:
        """Iterate over unconnected ports."""
        return (p for p in self.ports.values() if not p.is_connected)

    @property
    def is_switch(self) -> bool:
        """True for switches."""
        return self.node_type is NodeType.SWITCH

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class PortCounters:
    """PMA-style per-port traffic counters (a subset of IBA PortCounters).

    Semantics follow the IBA PortCounters attribute: ``xmit_data`` /
    ``rcv_data`` count octets, ``xmit_wait`` counts the ticks (modelled as
    nanoseconds) a packet at the head of the transmit queue spent blocked
    on flow-control credits — the congestion signal — and discards are
    split by cause so HOQ-lifetime drops (resolved deadlocks, section
    VI-C) are distinguishable from unroutable/blackholed traffic. The
    live fields are unbounded Python ints; :meth:`pma_view` is the
    *on-the-wire* read, wrapped to 32 bits like real hardware counters.
    """

    __slots__ = (
        "xmit_packets",
        "rcv_packets",
        "xmit_data",
        "rcv_data",
        "xmit_wait",
        "hoq_discards",
        "unroutable_discards",
        "symbol_errors",
    )

    #: Counter names exposed by :meth:`as_dict` / :meth:`pma_view`, in
    #: exposition order.
    FIELDS = (
        "xmit_packets",
        "rcv_packets",
        "xmit_data",
        "rcv_data",
        "xmit_wait",
        "xmit_discards",
        "hoq_discards",
        "unroutable_discards",
        "symbol_errors",
    )

    def __init__(self) -> None:
        self.xmit_packets = 0
        self.rcv_packets = 0
        self.xmit_data = 0
        self.rcv_data = 0
        self.xmit_wait = 0
        self.hoq_discards = 0
        self.unroutable_discards = 0
        self.symbol_errors = 0

    @property
    def xmit_discards(self) -> int:
        """Total transmit discards (all causes), as IBA PortXmitDiscards."""
        return self.hoq_discards + self.unroutable_discards

    def add_wait(self, seconds: float) -> None:
        """Accumulate credit-wait time into ``xmit_wait`` (1 tick = 1 ns)."""
        if seconds > 0:
            self.xmit_wait += int(round(seconds * 1e9))

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict snapshot (unwrapped totals)."""
        return {name: getattr(self, name) for name in self.FIELDS}

    def pma_view(self) -> Dict[str, int]:
        """The 32-bit wrapped values a PMA GET returns off the wire."""
        return {
            name: getattr(self, name) % PMA_COUNTER_WRAP
            for name in self.FIELDS
        }

    def reset(self) -> None:
        """Clear all counters (PortCounters set with reset bits)."""
        self.xmit_packets = 0
        self.rcv_packets = 0
        self.xmit_data = 0
        self.rcv_data = 0
        self.xmit_wait = 0
        self.hoq_discards = 0
        self.unroutable_discards = 0
        self.symbol_errors = 0


class Switch(Node):
    """A crossbar switch with a Linear Forwarding Table.

    The management port (port 0) holds the switch's own LID. The LFT maps
    destination LIDs to output ports and is programmed by the SM in 64-LID
    blocks; it is row :attr:`index` of the owning topology's
    :attr:`~repro.fabric.topology.Topology.lft`. ``counters`` holds
    PMA-style per-port traffic counters, incremented by the data-plane
    simulator and queryable through the performance manager.
    """

    def __init__(self, name: str, num_ports: int) -> None:
        super().__init__(name, NodeType.SWITCH, num_ports)
        self.management_port = Port(self, 0)
        #: The topology holding this switch's LFT row (None once detached).
        self.topology: Optional["Topology"] = None

    @property
    def lid(self) -> Optional[int]:
        """The switch's LID (lives on management port 0)."""
        return self.management_port.lid

    @lid.setter
    def lid(self, value: Optional[int]) -> None:
        self.management_port.lid = value

    def route(self, dest_lid: int) -> int:
        """Output port for *dest_lid* per the current LFT (LFT_UNSET if
        not programmed, or once the switch left its topology)."""
        if dest_lid < 0:
            raise TopologyError(f"negative LID {dest_lid}")
        if self.topology is None or dest_lid >= self.topology._lft.shape[1]:
            return LFT_UNSET
        return self.topology._lft.item(self.index, dest_lid)

    def attached_hcas(self) -> List["HCA"]:
        """HCAs plugged directly into this switch (defines a leaf switch)."""
        out: List[HCA] = []
        for port in self.connected_ports():
            peer = port.remote
            if peer is None:
                raise port.no_far_end()
            if isinstance(peer.node, HCA):
                out.append(peer.node)
        return out

    @property
    def is_leaf(self) -> bool:
        """True iff at least one HCA hangs off this switch."""
        return bool(self.attached_hcas())


class HCA(Node):
    """A host channel adapter (one physical port by default).

    The HCA owns the management QPs; SR-IOV function semantics (who may use
    QP0, how QP space is carved up) are modelled by :mod:`repro.sriov`.
    """

    def __init__(self, name: str, num_ports: int = 1) -> None:
        super().__init__(name, NodeType.CA, num_ports)
        self.qp0 = QueuePair(QP0, owner=name, smi_allowed=True)
        self.qp1 = QueuePair(QP1, owner=name, smi_allowed=True)
        self._next_qpn = 2

    @property
    def lid(self) -> Optional[int]:
        """LID of the primary port (port 1)."""
        return self.port(1).lid

    @lid.setter
    def lid(self, value: Optional[int]) -> None:
        self.port(1).lid = value

    def create_qp(self, *, owner: Optional[str] = None) -> QueuePair:
        """Allocate a consumer QP from this HCA's QP space."""
        qp = QueuePair(self._next_qpn, owner=owner or self.name)
        self._next_qpn += 1
        return qp

    def uplink_switch(self) -> Optional[Switch]:
        """The switch this HCA's primary port connects to, if any."""
        peer = self.port(1).remote
        if peer is not None and isinstance(peer.node, Switch):
            return peer.node
        return None
