"""Management datagram (MAD/SMP) model: packets, routing modes, transport."""

from repro.mad.smp import Smp, SmpKind, SmpMethod, SmpPlan, SmpResult, make_set_lft_block
from repro.mad.transport import SmpTransport, TransportStats
from repro.mad.wire import ATTR_PAYLOAD_SIZE, MAD_SIZE, decode_smp, encode_smp

__all__ = [
    "Smp",
    "SmpKind",
    "SmpMethod",
    "SmpPlan",
    "SmpResult",
    "make_set_lft_block",
    "SmpTransport",
    "MAD_SIZE",
    "ATTR_PAYLOAD_SIZE",
    "encode_smp",
    "decode_smp",
    "TransportStats",
]
