"""Virtual-lane assignment model shared by routing engines and the analyzer.

LASH and DFSSSP buy deadlock freedom on arbitrary topologies by splitting
traffic over virtual lanes: LASH assigns each *(source switch, destination
switch)* pair to a virtual layer (``pair_to_vl``), DFSSSP assigns each
*destination LID* to one (``lid_to_vl``, with switch self-LIDs pinned to
the IB management lane VL15). Until PR 8 those assignments were computed,
used to keep each layer's channel-dependency graph acyclic, and then
discarded — so the static analyzer could not tell a LASH-routed ring from
a genuinely deadlocked MinHop one.

:class:`VlAssignment` is the exported form both engines now attach to
:class:`~repro.sm.routing.base.RoutingTables` (``metadata["vl"]``,
alongside the raw ``pair_to_vl``/``lid_to_vl`` dicts). The static
suite's lane-indexed checks (``repro.analysis.static.vl_checks``)
consume it to rebuild each data lane's dependency graph and prove every
layer acyclic; an engine that exports none is the trivial one-lane case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import RoutingError

__all__ = [
    "MANAGEMENT_VL",
    "VlAssignment",
    "corrupt_assignment",
]

#: Virtual lane tag for switch-destined (management) traffic — IB's VL15.
#: (Re-exported by :mod:`repro.sm.routing.dfsssp` for compatibility.)
MANAGEMENT_VL = 15


@dataclass
class VlAssignment:
    """One engine's virtual-lane assignment, keyed per pair or per LID.

    ``kind`` is ``"pair"`` (LASH: ``pair_to_vl[(src_switch, dst_switch)]``)
    or ``"dest"`` (DFSSSP: ``lid_to_vl[dest_lid]``; switch self-LIDs carry
    :data:`MANAGEMENT_VL`). ``num_vls`` is the number of data lanes the
    engine actually opened; ``max_vls`` the configured ceiling. Data lanes
    are numbered ``0 .. num_vls - 1``.
    """

    kind: str
    num_vls: int
    max_vls: int
    pair_to_vl: Optional[Dict[Tuple[int, int], int]] = None
    lid_to_vl: Optional[Dict[int, int]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("pair", "dest"):
            raise RoutingError(f"unknown VL assignment kind {self.kind!r}")
        if self.kind == "pair" and self.pair_to_vl is None:
            raise RoutingError("pair-keyed assignment needs pair_to_vl")
        if self.kind == "dest" and self.lid_to_vl is None:
            raise RoutingError("dest-keyed assignment needs lid_to_vl")

    # -- deterministic iteration --------------------------------------------

    def items(self) -> List[Tuple[Any, int]]:
        """Every assignment as a sorted list — the only sanctioned iteration
        order (tools.lint DET005 flags unsorted tuple-keyed dict loops)."""
        return sorted(self.backing().items())

    def backing(self) -> Dict[Any, int]:
        """The map of this assignment's kind (``pair_to_vl`` or
        ``lid_to_vl``); raises :class:`RoutingError` once it is gone."""
        backing = self.pair_to_vl if self.kind == "pair" else self.lid_to_vl
        if backing is None:
            raise RoutingError(f"{self.kind}-keyed assignment has no VL map")
        return backing

    def data_items(self) -> List[Tuple[Any, int]]:
        """Sorted assignments excluding the management lane."""
        return [(k, v) for k, v in self.items() if v != MANAGEMENT_VL]

    # -- summaries -----------------------------------------------------------

    def pairs_per_vl(self) -> Dict[int, int]:
        """Data lane -> number of pairs/LIDs it carries."""
        counts: Dict[int, int] = {}
        for _, v in self.data_items():
            counts[v] = counts.get(v, 0) + 1
        return dict(sorted(counts.items()))

    def max_layer(self) -> int:
        """Highest data lane actually referenced (0 when none)."""
        layers = [v for _, v in self.data_items()]
        return max(layers) if layers else 0

    def vl_summary(self) -> Dict[str, Any]:
        """JSON-friendly summary: lanes used, pairs per lane, max layer."""
        return {
            "kind": self.kind,
            "num_vls": self.num_vls,
            "max_vls": self.max_vls,
            "assignments": len(self.data_items()),
            "pairs_per_vl": {str(k): v for k, v in self.pairs_per_vl().items()},
            "max_layer": self.max_layer(),
        }

    def copy(self) -> "VlAssignment":
        """Independent deep copy (corruption helpers mutate in place)."""
        return VlAssignment(
            kind=self.kind,
            num_vls=self.num_vls,
            max_vls=self.max_vls,
            pair_to_vl=(
                dict(self.pair_to_vl) if self.pair_to_vl is not None else None
            ),
            lid_to_vl=(
                dict(self.lid_to_vl) if self.lid_to_vl is not None else None
            ),
        )

    # -- recovery from tables metadata --------------------------------------

    @classmethod
    def from_metadata(
        cls, metadata: Optional[Dict[str, Any]]
    ) -> Optional["VlAssignment"]:
        """The assignment an engine exported as ``metadata["vl"]``, or
        ``None`` — the trivial one-lane assignment of a single-VL engine."""
        vl = (metadata or {}).get("vl")
        return vl if isinstance(vl, cls) else None


def corrupt_assignment(
    vl: VlAssignment, mode: str = "remap", *, index: int = 0
) -> str:
    """Corrupt one VL assignment in place; returns a description.

    Negative-mode fault injection for the per-VL checks (``repro
    check-fabric --corrupt-vl`` and the property tests). Modes:

    * ``"remap"`` — point one entry at a lane that does not exist
      (``num_vls + max_vls``): VLC002 must fire;
    * ``"drop"`` — delete one entry: VLC003 must fire;
    * ``"collapse"`` — squash every data assignment onto lane 0: on a
      cyclic topology the collapsed layer's CDG closes and VLC001 fires.

    ``index`` selects the victim entry from the sorted assignment list
    (wrapped modulo its length), so property tests can corrupt a random
    but reproducible path.
    """
    entries = vl.data_items()
    if not entries:
        raise RoutingError("assignment has no data-VL entries to corrupt")
    backing = vl.backing()
    key, old = entries[index % len(entries)]
    if mode == "remap":
        bogus = vl.num_vls + vl.max_vls
        backing[key] = bogus
        return f"remapped {key} from VL {old} to nonexistent VL {bogus}"
    if mode == "drop":
        del backing[key]
        return f"dropped the VL assignment of {key} (was VL {old})"
    if mode == "collapse":
        for k, _ in entries:
            backing[k] = 0
        return f"collapsed {len(entries)} assignments onto VL 0"
    raise RoutingError(f"unknown corruption mode {mode!r}")
