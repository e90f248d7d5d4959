"""The lane plane shared by the VL routing engines and the analyzer.

LASH and DFSSSP buy deadlock freedom on arbitrary topologies by splitting
traffic over virtual lanes. Both export the split as
:attr:`~repro.sm.routing.base.RoutingTables.lanes`, a second plane beside
``ports``: ``lanes[s, lid]`` is the data VL that traffic from source
switch ``s`` to ``lid`` rides on (``int8``; :data:`NO_LANE` where a cell
has none, :data:`MANAGEMENT_VL` down a switch self-LID column). DFSSSP
gives each destination LID one lane in every row; LASH gives each
(source, destination) switch pair one layer. Single-VL engines carry no
plane — the trivial one-lane case. ``num_vls`` (lanes opened) and
``max_vls`` (the configured ceiling) sit beside the plane.

Column edits (:func:`repro.fabric.lft.apply_column_op`) move the plane
with the ports, and the static suite's lane-indexed checks
(``repro.analysis.static.vl_checks``) read it to rebuild each data lane's
dependency graph and prove every layer acyclic.
"""

from __future__ import annotations

import numpy as np

from repro.constants import MANAGEMENT_VL, NO_LANE
from repro.errors import RoutingError
from repro.sm.routing.base import RoutingTables

__all__ = [
    "MANAGEMENT_VL",
    "NO_LANE",
    "corrupt_assignment",
]


def corrupt_assignment(
    tables: RoutingTables, mode: str = "remap", *, index: int = 0
) -> str:
    """Corrupt the lane plane of *tables* in place; returns a description.

    Negative-mode fault injection for the per-VL checks (``repro
    check-fabric --corrupt-vl`` and the property tests). The victim is
    one LID column that carries data lanes; ``index`` selects it among
    them in ascending LID order (wrapped modulo their count), so property
    tests can corrupt a random but reproducible column. Modes:

    * ``"remap"`` — point the column's data cells at a lane that does not
      exist (``num_vls + max_vls``): VLC002 must fire;
    * ``"drop"`` — clear them to :data:`NO_LANE`: VLC003 must fire;
    * ``"collapse"`` — squash every data cell of the plane onto lane 0:
      on a cyclic topology the collapsed layer's CDG closes and VLC001
      fires.
    """
    lanes = tables.lanes
    if lanes is None:
        raise RoutingError("the tables carry no lane plane to corrupt")
    data = (lanes >= 0) & (lanes < tables.num_vls)
    cols = np.flatnonzero(data.any(axis=0))
    if not cols.size:
        raise RoutingError("the lane plane has no data-VL cells to corrupt")
    lid = int(cols[index % cols.size])
    rows = data[:, lid]
    if mode == "remap":
        bogus = tables.num_vls + tables.max_vls
        lanes[rows, lid] = bogus
        return f"remapped the data lanes of LID {lid} to nonexistent VL {bogus}"
    if mode == "drop":
        lanes[rows, lid] = NO_LANE
        return f"dropped the data lanes of LID {lid}"
    if mode == "collapse":
        lanes[data] = 0
        return f"collapsed {int(data.sum())} lane cells onto VL 0"
    raise RoutingError(f"unknown corruption mode {mode!r}")
