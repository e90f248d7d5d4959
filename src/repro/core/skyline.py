"""Limited-switch reconfiguration and concurrent migrations (section VI-D).

The deterministic swap/copy of Algorithm 1 visits every switch but only
updates the ``n'`` whose entries differ. This module *predicts* that update
set (the migration's **skyline**, after Lysne & Duato's minimal-
reconfiguration region), detects the special intra-leaf case where exactly
one switch needs updating regardless of topology, and derives how many
migrations can proceed concurrently: migrations with disjoint skylines
touch disjoint switch state and can safely run in parallel (the paper's
"as many concurrent migrations as there exist leaf switches" observation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Set

import numpy as np

from repro.errors import ReconfigError
from repro.fabric.graph import bfs_distances, port_to_peer
from repro.fabric.lft import lft_block_of
from repro.fabric.node import Port, Switch
from repro.fabric.topology import Topology

__all__ = [
    "MigrationSkyline",
    "swap_update_set",
    "copy_update_set",
    "minimal_update_set",
    "is_intra_leaf",
    "plan_skyline",
    "admit_concurrent",
]


@dataclass
class MigrationSkyline:
    """The predicted update footprint of one migration."""

    vm_lid: int
    other_lid: int
    mode: str  # "swap" or "copy"
    switches: Set[int] = field(default_factory=set)
    intra_leaf: bool = False

    @property
    def n_prime(self) -> int:
        """Switches that will receive at least one SMP."""
        return len(self.switches)

    @property
    def max_smps(self) -> int:
        """SMP bound for this migration: 2 per switch for a swap crossing
        LFT blocks, 1 otherwise."""
        if self.mode == "swap" and lft_block_of(self.vm_lid) != lft_block_of(
            self.other_lid
        ):
            return 2 * self.n_prime
        return self.n_prime

    def disjoint_from(self, other: "MigrationSkyline") -> bool:
        """True iff the two migrations touch disjoint switches *and*
        disjoint LIDs (the same LID cannot be in two flights)."""
        if self.switches & other.switches:
            return False
        mine = {self.vm_lid, self.other_lid}
        theirs = {other.vm_lid, other.other_lid}
        return not (mine & theirs)


def swap_update_set(topology: Topology, lid_a: int, lid_b: int) -> Set[int]:
    """Switch indices whose LFTs a swap of *lid_a*/*lid_b* — or a copy of
    template *lid_a* to target *lid_b* — would change: one column compare.

    A switch already forwarding both LIDs through the same port keeps its
    table — the section VI-B example where migrating within lids routed out
    the same port leaves upstream switches untouched.
    """
    columns = topology.lft_columns([lid_a, lid_b])
    return set(np.flatnonzero(columns[:, 0] != columns[:, 1]).tolist())


#: A copy touches exactly the switches whose two entries differ, as a swap.
copy_update_set = swap_update_set


def minimal_update_set(
    topology: Topology,
    vm_lid: int,
    new_attach_port: Port,
) -> Set[int]:
    """The *minimum* switches whose LFT entry for *vm_lid* must change.

    This is the section VI-D / Fig. 6 quantity: how much of the network a
    migration *has to* touch for correct delivery at the new location,
    ignoring balance preservation. A switch can keep its stale entry as
    long as the packet, following the mixture of stale and updated
    entries, still reaches the destination — e.g. for an intra-leaf
    migration every stale entry already points toward the (updated) leaf,
    so the minimum is one switch regardless of topology.

    Computed greedily: switches are processed by increasing hop distance
    from the destination leaf; each either chains (via its stale entry)
    into the already-delivering region for free, or must be updated and
    joins it. The result grows with migration distance — the Fig. 6
    gradient — and is what bounds how many migrations can run in parallel.

    ``new_attach_port`` is the HCA port (on the destination hypervisor)
    the LID will live behind.
    """
    attach = new_attach_port.remote
    if attach is None or not isinstance(attach.node, Switch):
        raise ReconfigError(f"{new_attach_port!r} is not cabled to a switch")
    dest_leaf: Switch = attach.node
    delivery_port = attach.num

    # Out port -> peer switch and hop distances from the destination leaf,
    # both off the switch graph's CSR view.
    view = topology.fabric_view()
    peer_of = port_to_peer(view)
    dist = bfs_distances(view, dest_leaf.index).tolist()

    stale = topology.lft_columns([vm_lid])[:, 0].tolist()
    leaf = dest_leaf.index
    updates: Set[int] = set() if stale[leaf] == delivery_port else {leaf}
    delivering: Set[int] = {leaf}
    for s in sorted(set(range(len(stale))) - {leaf}, key=lambda s: (dist[s], s)):
        # Follow stale entries through not-yet-classified switches until we
        # hit the delivering region (free) or fail (must update): a loop, or
        # an entry that exits the fabric at the old host (-1).
        cur, seen = s, set()
        while cur >= 0 and cur not in delivering and cur not in seen:
            seen.add(cur)
            cur = int(peer_of[cur, stale[cur]])
        if cur not in delivering:
            updates.add(s)
        delivering.add(s)
    return updates


def _leaf_of(port: Port) -> Switch:
    peer = port.remote
    if peer is None or not isinstance(peer.node, Switch):
        raise ReconfigError(f"{port!r} is not attached to a switch")
    return peer.node


def is_intra_leaf(src_port: Port, dest_port: Port) -> bool:
    """True iff source and destination hypervisors hang off the same leaf.

    In that case only that leaf switch ever needs updating, independent of
    topology, because a leaf switch is non-blocking and local changes leave
    the balance of the rest of the network intact (section VI-D).
    """
    return _leaf_of(src_port) is _leaf_of(dest_port)


def plan_skyline(
    topology: Topology,
    *,
    vm_lid: int,
    other_lid: int,
    mode: str,
    src_port: Port,
    dest_port: Port,
) -> MigrationSkyline:
    """Predict one migration's skyline before executing it.

    ``other_lid`` is the destination VF's LID for a swap, or the
    destination PF's LID for a copy.
    """
    if mode == "swap":
        switches = swap_update_set(topology, vm_lid, other_lid)
    elif mode == "copy":
        switches = copy_update_set(topology, other_lid, vm_lid)
    else:
        raise ReconfigError(f"unknown migration mode {mode!r}")
    sky = MigrationSkyline(
        vm_lid=vm_lid,
        other_lid=other_lid,
        mode=mode,
        switches=switches,
        intra_leaf=is_intra_leaf(src_port, dest_port),
    )
    if sky.intra_leaf and sky.switches:
        leaf = _leaf_of(src_port).index
        if sky.switches - {leaf}:
            # The deterministic method may touch more switches than the
            # minimum; record the fact but keep the prediction honest.
            sky.switches = switches
    return sky


def admit_concurrent(
    skylines: Sequence[MigrationSkyline],
) -> List[List[MigrationSkyline]]:
    """Greedy batching of migrations into non-interfering rounds.

    Each returned batch contains pairwise-disjoint skylines and may execute
    concurrently; batches run one after another. With purely intra-leaf
    migrations on distinct leaves this degenerates to a single batch — the
    maximal concurrency the paper points out.
    """
    remaining = list(skylines)
    batches: List[List[MigrationSkyline]] = []
    while remaining:
        batch: List[MigrationSkyline] = []
        rest: List[MigrationSkyline] = []
        for sky in remaining:
            if all(sky.disjoint_from(b) for b in batch):
                batch.append(sky)
            else:
                rest.append(sky)
        batches.append(batch)
        remaining = rest
    return batches
