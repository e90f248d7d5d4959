"""Point-to-point links between fabric ports."""

from __future__ import annotations

from typing import Tuple

from repro.errors import TopologyError
from repro.fabric.node import Port, Switch

__all__ = ["Link"]


class Link:
    """A bidirectional cable between two ports.

    ``latency`` is the one-way propagation + forwarding latency contribution
    of this hop in seconds; the SMP transport (:mod:`repro.mad.transport`)
    sums it along a route to derive the per-SMP traversal time ``k`` of the
    paper's cost model (section VI-A, footnote 4: switches closer to the SM
    are reached faster).
    """

    def __init__(self, a: Port, b: Port, *, latency: float = 100e-9) -> None:
        if a is b:
            raise TopologyError("cannot link a port to itself")
        if a.link is not None or b.link is not None:
            raise TopologyError(
                f"port already cabled: {a!r} or {b!r} has an existing link"
            )
        if a.node is b.node:
            raise TopologyError(f"loopback link on node {a.node.name!r}")
        if latency < 0:
            raise TopologyError("link latency must be non-negative")
        self.a = a
        self.b = b
        self.latency = latency
        a.link = self
        b.link = self

    def other_end(self, port: Port) -> Port:
        """Given one end, return the other."""
        if port is self.a:
            return self.b
        if port is self.b:
            return self.a
        raise TopologyError(f"{port!r} is not an end of this link")

    @property
    def ends(self) -> Tuple[Port, Port]:
        """Both ends, in creation order."""
        return (self.a, self.b)

    @property
    def switch_ends(self) -> Tuple[int, int]:
        """Dense switch indices of both ends (-1 for an HCA end)."""
        a, b = (p.node.index if isinstance(p.node, Switch) else -1 for p in self.ends)
        return a, b

    def disconnect(self) -> None:
        """Unplug the cable from both ports."""
        self.a.link = None
        self.b.link = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Link {self.a.node.name}:{self.a.num}"
            f" <-> {self.b.node.name}:{self.b.num}>"
        )
