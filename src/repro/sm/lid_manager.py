"""LID assignment: who gets which LID, and the topology binding registry.

The LidManager is the SM component both LID schemes of the paper talk to:

* base assignment — every switch and every HCA primary port gets one LID
  (Table I's "LIDs" column is exactly nodes + switches);
* extra assignment — additional LIDs bound to an *already-LID-ed* HCA port,
  which is how vSwitch VFs appear (prepopulated scheme assigns them at boot,
  dynamic scheme when a VM starts);
* targeted assignment — claim one specific LID (a migrating VM carrying its
  LID to the destination hypervisor).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import AddressingError, TopologyError
from repro.fabric.addressing import LidAllocator
from repro.fabric.node import Port
from repro.fabric.topology import Topology

__all__ = ["LidManager"]


class LidManager:
    """Owns the subnet's LID space and the LID->port bindings."""

    def __init__(
        self, topology: Topology, *, allocator: Optional[LidAllocator] = None
    ) -> None:
        self.topology = topology
        self.allocator = allocator or LidAllocator()

    # -- base assignment -----------------------------------------------------

    def assign_base_lids(self) -> Dict[str, int]:
        """Give every switch and every HCA primary port a LID.

        Existing assignments are kept (idempotent); returns the full
        name -> LID map after assignment. Switches are assigned first, then
        HCAs, each in registration order — mirroring OpenSM's discovery-
        order assignment.
        """
        result: Dict[str, int] = {}
        for sw in self.topology.switches:
            if sw.lid is None:
                lid = self.allocator.allocate()
                sw.lid = lid
                self.topology.bind_lid(lid, sw.management_port)
            result[sw.name] = sw.lid
        for hca in self.topology.hcas:
            port = hca.port(1)
            if port.lid is None:
                lid = self.allocator.allocate()
                port.lid = lid
                self.topology.bind_lid(lid, port)
            result[hca.name] = port.lid
        return result

    # -- vSwitch-style extra LIDs ---------------------------------------------

    def assign_extra_lid(self, port: Port, *, lid: Optional[int] = None) -> int:
        """Bind one more LID to *port* (a VF behind a vSwitch HCA).

        With *lid* given, that exact LID is claimed (LidInUseError if taken);
        otherwise the next free LID is used.
        """
        if lid is None:
            lid = self.allocator.allocate()
        else:
            self.allocator.assign(lid)
        try:
            self.topology.bind_lid(lid, port)
        except TopologyError:
            self.allocator.release(lid)
            raise
        return lid

    def assign_lmc_lids(self, port: Port, lmc: int) -> List[int]:
        """Assign the 2^lmc *sequential, aligned* LIDs of classic LMC.

        This is the legacy multipathing the prepopulated vSwitch scheme
        imitates without the sequentiality requirement (section V-A: the
        freedom to use non-sequential LIDs is what lets a migrating VM
        carry its LID). The base LID must have its low ``lmc`` bits zero,
        so after any LID moves away the block can never be re-formed —
        the limitation the paper's scheme removes.
        """
        if not 0 <= lmc <= 7:
            raise AddressingError("LMC must be in 0..7")
        count = 1 << lmc
        base = self.allocator.find_free_aligned_run(count, count)
        lids = self.allocator.assign_range(base, count)
        try:
            for lid in lids:
                self.topology.bind_lid(lid, port)
        except TopologyError:
            for lid in lids:
                if self.topology.port_of_lid(lid) is port:
                    self.topology.unbind_lid(lid)
                self.allocator.release(lid)
            raise
        if port.lid is None:
            port.lid = base
        return lids

    def release_lid(self, lid: int) -> None:
        """Unbind and free one LID."""
        self.topology.unbind_lid(lid)
        self.allocator.release(lid)

    def move_lid(self, lid: int, new_port: Port) -> None:
        """Rebind an existing LID to a different port (LID migration).

        The allocator state is untouched — the LID stays owned; only its
        location changes, which is precisely what a VM live migration does
        to its LID under the vSwitch architecture.
        """
        self.topology.rebind_lid(lid, new_port)

    # -- queries ---------------------------------------------------------------

    @property
    def lids_consumed(self) -> int:
        """Number of LIDs currently assigned (Table I "LIDs" column)."""
        return self.allocator.allocated_count

    def lids_by_port(self) -> Dict[Port, List[int]]:
        """Every bound LID grouped by the port it is bound to, ascending
        per port: one pass over the registry for callers that ask about
        many ports."""
        groups: Dict[Port, List[int]] = {}
        port_of_lid = self.topology.port_of_lid
        for lid in self.topology.bound_lids():
            groups.setdefault(port_of_lid(lid), []).append(lid)
        return groups

    def lids_on_port(self, port: Port) -> List[int]:
        """All LIDs bound to one port, ascending."""
        return self.lids_by_port().get(port, [])
