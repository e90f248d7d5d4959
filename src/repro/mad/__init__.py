"""Management datagram (MAD/SMP) model: packets, routing modes, transport."""

from repro.mad.smp import Smp, SmpKind, SmpMethod, SmpPlan, SmpResult, make_set_lft_block
from repro.mad.transport import SmpTransport, TransportStats

__all__ = [
    "Smp",
    "SmpKind",
    "SmpMethod",
    "SmpPlan",
    "SmpResult",
    "make_set_lft_block",
    "SmpTransport",
    "TransportStats",
]
