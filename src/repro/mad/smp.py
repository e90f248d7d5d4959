"""Subnet Management Packets (SMPs).

SMPs are the management datagrams the SM exchanges with switches and HCAs on
QP0. Two routing modes exist (paper section VI-A):

* **directed routing** — the packet carries the hop-by-hop path; every
  intermediate switch must process and rewrite the header (hop pointer,
  reverse path), adding the per-hop overhead the paper calls ``r``. OpenSM
  uses directed routing for everything because it works before LFTs exist.
* **destination-based (LID) routing** — forwarded immediately by the LFTs;
  usable by the paper's reconfiguration because switch LIDs never move when
  only VMs migrate (this removes ``r`` — equation (5)).

An :class:`Smp` is one packet and an :class:`SmpPlan` many of them as a
struct of arrays; the semantics of delivering them live in
:mod:`repro.mad.transport`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Dict, Iterator, Optional, Sequence

import numpy as np

from repro.constants import LFT_BLOCK_SIZE
from repro.errors import TopologyError
from repro.fabric.lft import check_blocks

__all__ = [
    "SmpKind",
    "SmpMethod",
    "SmpStatus",
    "SmInfoAttrMod",
    "Smp",
    "SmpResult",
    "SmpPlan",
    "make_set_lft_block",
]


class SmpMethod(enum.Enum):
    """The management method of the packet."""

    GET = "SubnGet"
    SET = "SubnSet"


class SmpKind(enum.Enum):
    """Management attribute the packet addresses."""

    NODE_INFO = "NodeInfo"
    PORT_INFO = "PortInfo"
    LFT_BLOCK = "LinearForwardingTable"
    VGUID = "VirtualGUIDInfo"  # alias-GUID programming on a hypervisor HCA
    SM_INFO = "SMInfo"
    NOTICE = "Notice"  # trap notices (IBA 13.4.8/13.4.9) riding VL15
    #: PMA PortCounters read/reset — what the PerfManager sweeps. GETs
    #: return the 32-bit wrapped per-port counter view; SETs with a
    #: ``reset`` payload clear the counters (PortCounters with reset bits).
    PORT_COUNTERS = "PortCounters"


class SmInfoAttrMod(enum.IntEnum):
    """AttributeModifier values of SubnSet(SMInfo) (IBA 14.4.1).

    The master-election handshake of the HA protocol: a takeover sends
    HANDOVER to the previous master and DISABLE to the remaining
    standbys, which answer ACKNOWLEDGE; DISCOVER re-arms a standby's
    polling after a demotion.
    """

    HANDOVER = 1
    ACKNOWLEDGE = 2
    DISABLE = 3
    STANDBY = 4
    DISCOVER = 5


@dataclass
class Smp:
    """One subnet management packet.

    ``target`` names the node the packet is addressed to; ``directed`` picks
    the routing mode; ``payload`` carries attribute-specific fields (e.g.
    ``block``/``entries`` for LFT writes, ``lid``/``port`` for PortInfo).
    """

    method: SmpMethod
    kind: SmpKind
    target: str
    payload: Dict[str, Any] = field(default_factory=dict)
    directed: bool = True
    #: SM generation number stamped on fenced writes (LFT/PortInfo SETs).
    #: ``None`` means unfenced — the pre-HA behaviour. The transport
    #: rejects fenced writes older than the fabric's generation, which is
    #: how a stale master re-emerging after a partition heal is stopped
    #: (see :mod:`repro.sm.ha`).
    generation: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is not SmpKind.LFT_BLOCK:
            return
        entries = self.payload.get("entries")
        if self.method is SmpMethod.SET and (entries is None or len(entries) != LFT_BLOCK_SIZE):
            raise TopologyError("SET LFT SMP needs a 64-entry payload")
        if "block" not in self.payload:
            raise TopologyError("LFT SMP needs a block index")
        check_blocks([self.payload["block"]])

    @property
    def is_lft_update(self) -> bool:
        """True for SubnSet(LFT) — the packets the paper counts in Table I."""
        return self.kind is SmpKind.LFT_BLOCK and self.method is SmpMethod.SET

    @property
    def is_fenced_write(self) -> bool:
        """True for the writes the split-brain fence guards: SubnSet of
        an LFT block or of PortInfo (the routing-state mutations a stale
        master must not be allowed to apply)."""
        return self.method is SmpMethod.SET and self.kind in (
            SmpKind.LFT_BLOCK,
            SmpKind.PORT_INFO,
        )


class SmpStatus(enum.Enum):
    """What happened to one SMP on the wire.

    MADs are unacknowledged UD datagrams: the sender learns about a lost
    packet only by timing out. ``TIMEOUT`` therefore covers both an
    injected drop and a response that never arrived — the sender cannot
    tell the difference, exactly as on real fabrics.
    """

    DELIVERED = "delivered"
    TIMEOUT = "timeout"
    #: A fenced write rejected because its SM generation is behind the
    #: fabric's (split-brain fencing; the effect was NOT applied). Unlike
    #: a timeout this is definitive — retransmitting cannot succeed.
    STALE_GENERATION = "stale-generation"


@dataclass
class SmpResult:
    """Outcome of delivering one SMP."""

    smp: Smp
    hops: int
    latency: float
    data: Optional[Dict[str, Any]] = None
    status: SmpStatus = SmpStatus.DELIVERED

    @property
    def ok(self) -> bool:
        """True iff the SMP was delivered (and answered, for GETs)."""
        return self.status is SmpStatus.DELIVERED


@dataclass
class SmpPlan:
    """SMPs to deliver in order, as a struct of arrays.

    Row ``i`` is ``counts[i]`` consecutive packets of kind ``kinds[i]``
    to the node ``targets[i]`` — SubnSet for an LFT block, SubnGet for
    anything else — all in one routing mode and under one fence stamp
    (*generation*, ``None`` for unfenced). Packet ``p``, rows laid end to
    end, carries ``args[p]``: the port of a PortInfo, or the block of an
    LFT write whose 64-entry payload is ``entries[p]``.
    """

    targets: Sequence[str]
    kinds: Sequence[SmpKind]
    counts: Sequence[int]
    args: Sequence[int]
    entries: Optional[np.ndarray] = None
    directed: bool = True
    generation: Optional[int] = None

    def __post_init__(self) -> None:
        n = len(self.args)
        shape = None if self.entries is None else self.entries.shape
        lft = shape is not None or SmpKind.LFT_BLOCK in self.kinds
        if sum(self.counts) != n or (lft and shape != (n, LFT_BLOCK_SIZE)):
            raise TopologyError(
                f"a plan of {sum(self.counts)} SMPs got {n} arguments and LFT"
                f" payloads of shape {shape}, not ({n}, {LFT_BLOCK_SIZE})"
            )

    @classmethod
    def lft_sweep(
        cls,
        targets: Sequence[str],
        blocks: Sequence[int],
        entries: np.ndarray,
        *,
        directed: bool,
        generation: Optional[int] = None,
    ) -> "SmpPlan":
        """One SubnSet(LFT) per row ``i``: the 64-entry payload
        ``entries[i]`` into block ``blocks[i]`` of the switch
        ``targets[i]``, with one plan row per stretch of consecutive
        packets to one switch."""
        runs = [(name, sum(1 for _ in run)) for name, run in groupby(targets)]
        return cls(
            [name for name, _ in runs], [SmpKind.LFT_BLOCK] * len(runs),
            [count for _, count in runs], blocks,
            np.asarray(entries, dtype=np.int16), directed, generation,
        )

    @staticmethod
    def method_of(kind: SmpKind) -> SmpMethod:
        """The method of a row of *kind*."""
        return SmpMethod.SET if kind is SmpKind.LFT_BLOCK else SmpMethod.GET

    def packets(self) -> Iterator[Smp]:
        """The plan packet by packet, as :meth:`SmpTransport.send` takes them."""
        rows = zip(self.targets, self.kinds, self.counts)
        heads = ((name, kind) for name, kind, count in rows for _ in range(count))
        for p, (name, kind) in enumerate(heads):
            payload: Dict[str, Any] = {}
            if kind is SmpKind.LFT_BLOCK:
                payload = {"block": int(self.args[p]), "entries": self.entries[p]}
            elif kind is SmpKind.PORT_INFO:
                payload = {"port": self.args[p]}
            yield Smp(
                self.method_of(kind), kind, name, payload,
                self.directed, self.generation,
            )


def make_set_lft_block(
    target: str, block: int, entries: np.ndarray, *, directed: bool = True
) -> Smp:
    """Convenience constructor for the LFT-block write packet."""
    return Smp(
        method=SmpMethod.SET,
        kind=SmpKind.LFT_BLOCK,
        target=target,
        payload={"block": int(block), "entries": np.asarray(entries, dtype=np.int16)},
        directed=directed,
    )
