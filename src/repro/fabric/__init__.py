"""Physical InfiniBand subnet model: addressing, nodes, links, LFTs, topologies."""

from repro.fabric.addressing import (
    DEFAULT_SUBNET_PREFIX,
    GID,
    GuidAllocator,
    LidAllocator,
    make_gid,
    theoretical_hypervisor_limit,
    theoretical_vm_limit,
)
from repro.fabric.lft import (
    blocks_covering,
    lft_block_of,
    min_blocks_for_lid_count,
)
from repro.fabric.link import Link
from repro.fabric.node import HCA, Node, NodeType, Port, PortCounters, QueuePair, Switch
from repro.fabric.topology import SwitchFabricView, Topology

__all__ = [
    "GID",
    "GuidAllocator",
    "LidAllocator",
    "make_gid",
    "DEFAULT_SUBNET_PREFIX",
    "theoretical_hypervisor_limit",
    "theoretical_vm_limit",
    "lft_block_of",
    "blocks_covering",
    "min_blocks_for_lid_count",
    "Link",
    "HCA",
    "Node",
    "NodeType",
    "Port",
    "QueuePair",
    "PortCounters",
    "Switch",
    "Topology",
    "SwitchFabricView",
]
