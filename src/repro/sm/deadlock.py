"""Deadlock analysis via channel dependency graphs (CDGs).

A *channel* is a directed inter-switch link (a, b). Routing function R
induces a dependency (a,b) -> (b,c) whenever a packet may hold (a,b) while
requesting (b,c). R is deadlock free iff its CDG is acyclic (Duato's
condition for deterministic routing — the paper's reference [20]).

Section VI-C of the paper discusses why reconfiguration is dangerous even
between two individually deadlock-free routings: during the transition both
R_old and R_new are in effect, so the *union* CDG is what must be acyclic.
:func:`transition_is_deadlock_free` checks exactly that, and the tests use
it to reproduce the paper's observation that LID swapping may transiently
admit cycles (resolved in practice by IB timeouts).

A dependency set is one sorted ``int64`` array of keys ``from * n² + to``
over channel codes ``a * n + b`` (:func:`dependency_keys`), extracted from
the port matrix with array gathers and judged by the Kahn peel of
:mod:`repro.sm.routing.cdg_array`. The tuple forms (:data:`Channel`,
:data:`Dependency`) exist only at this module's public boundary.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.constants import LFT_UNSET
from repro.fabric.graph import port_to_peer
from repro.fabric.topology import SwitchFabricView
from repro.sm.routing import cdg_array

__all__ = [
    "Channel",
    "Dependency",
    "dependency_keys",
    "routing_dependencies",
    "is_deadlock_free",
    "transition_is_deadlock_free",
    "find_cycle",
]

#: A directed inter-switch channel.
Channel = Tuple[int, int]
#: A dependency between two consecutive channels.
Dependency = Tuple[Channel, Channel]


def dependency_keys(nxt: np.ndarray) -> np.ndarray:
    """Sorted unique dependency keys of a next-switch matrix.

    ``nxt[s, j]`` is the switch a packet for destination column ``j``
    moves to from switch ``s`` (-1 when it leaves the switch graph). Every
    two consecutive hops ``a -> b -> c`` of some column yield the key
    ``(a*n + b) * n² + (b*n + c)``.
    """
    n = np.int64(nxt.shape[0])
    col = np.arange(nxt.shape[1], dtype=np.int64)[None, :]
    b = nxt
    c = np.where(b >= 0, nxt[np.clip(b, 0, None), col], -1)
    mask = (b >= 0) & (c >= 0)
    a = np.broadcast_to(np.arange(n, dtype=np.int64)[:, None], b.shape)
    # (a*n + b) * n² + (b*n + c), on the masked cells only.
    a, b, c = a[mask], b[mask], c[mask]
    return np.unique(((a * n + b) * n + b) * n + c)


def _next_switch(
    ports: np.ndarray,
    view: SwitchFabricView,
    lids: Optional[Sequence[int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """``(cols, nxt)``: the selected LID columns of *ports* (default: every
    column with a programmed entry) and their next-switch matrix."""
    cols = (
        np.asarray(lids, dtype=np.int64)
        if lids is not None
        else np.flatnonzero((ports != LFT_UNSET).any(axis=0))
    )
    sub = ports[:, cols].astype(np.int64)
    valid = sub != LFT_UNSET
    rows = np.arange(ports.shape[0])[:, None]
    peer = port_to_peer(view)[rows, np.where(valid, sub, 0)]
    return cols, np.where(valid, peer, -1).astype(np.int64)


def _dependency_keys(
    ports: np.ndarray,
    view: SwitchFabricView,
    lids: Optional[Sequence[int]],
) -> np.ndarray:
    """Dependency keys induced by the selected LID columns of *ports*."""
    return dependency_keys(_next_switch(ports, view, lids)[1])


def _channel(code: int, n: int) -> Channel:
    return (code // n, code % n)


def routing_dependencies(
    ports: np.ndarray,
    view: SwitchFabricView,
    lids: Optional[Sequence[int]] = None,
) -> Set[Dependency]:
    """All channel dependencies induced by a routing table matrix.

    *ports* is the (num_switches x top_lid+1) matrix of
    :class:`~repro.sm.routing.base.RoutingTables`. Only hops between
    switches create dependencies; delivery ports (to HCAs) terminate chains.
    """
    n = view.num_switches
    keys = _dependency_keys(ports, view, lids)
    return {
        (_channel(f, n), _channel(t, n))
        for f, t in zip((keys // (n * n)).tolist(), (keys % (n * n)).tolist())
    }


def is_deadlock_free(
    ports: np.ndarray,
    view: SwitchFabricView,
    *,
    lid_to_vl: Optional[Dict[int, int]] = None,
    lids: Optional[Sequence[int]] = None,
) -> bool:
    """Check Duato's acyclicity condition for one routing function.

    With ``lid_to_vl`` the check is per virtual layer: destinations on
    different VLs cannot block each other, so each layer's CDG is checked
    independently (this is how DFSSSP/LASH are deadlock free despite cyclic
    single-layer dependencies).
    """
    channels = view.num_switches**2
    cols, nxt = _next_switch(ports, view, lids)
    if lid_to_vl is None:
        return cdg_array.acyclic(dependency_keys(nxt), channels)
    lane = np.asarray([lid_to_vl.get(lid, 0) for lid in cols.tolist()])
    return all(
        cdg_array.acyclic(dependency_keys(nxt[:, lane == v]), channels)
        for v in np.unique(lane)
    )


def transition_is_deadlock_free(
    old_ports: np.ndarray,
    new_ports: np.ndarray,
    view: SwitchFabricView,
    *,
    lids: Optional[Sequence[int]] = None,
) -> bool:
    """Check the reconfiguration-transition condition (paper section VI-C).

    While switches are updated asynchronously, some forward per R_old and
    some per R_new, so the union of both dependency sets must be acyclic for
    the transition to be provably deadlock free. The paper accepts that LID
    swapping may violate this and relies on IB timeouts; this function makes
    that risk measurable.
    """
    union = np.union1d(
        _dependency_keys(old_ports, view, lids),
        _dependency_keys(new_ports, view, lids),
    )
    return cdg_array.acyclic(union, view.num_switches**2)


def find_cycle(
    ports: np.ndarray, view: SwitchFabricView
) -> Optional[List[Channel]]:
    """Convenience: one dependency cycle of a routing, or None."""
    n = view.num_switches
    cycle = cdg_array.find_cycle(_dependency_keys(ports, view, None), n * n)
    return None if cycle is None else [_channel(code, n) for code in cycle]
