"""LFT distribution: the one path by which an LFT change reaches the switches.

Implements the ``LFTD_t`` half of the paper's cost model (equation (2)):
``LFTD_t = n * m * (k + r)`` for a full distribution of ``m`` blocks to each
of ``n`` switches over directed-route SMPs — **full** (every used block:
the section VI-A baseline, Table I's "Min SMPs Full RC") or **diff** (only
blocks that differ from the switch's, as OpenSM does). A distribution and
the vSwitch column edit of :mod:`repro.core.reconfig` (``n' * m' * k``,
equation (5)) are both one :meth:`LftDistributor.update`: one write
transaction that sends, rolls back and prices (serial and pipelined,
section VI-B) into one :class:`LftReport`.

A resilient SM (its sender a retransmitting
:class:`~repro.mad.reliable.ReliableSmpSender`) verifies every block write
with a SubnGet(LFT) read-back against the SM's shadow copy, re-syncs a
dropped or corrupted one, and rolls an update it cannot complete back
block by block — the subnet ends in the new routing or the old one, never
in between. A bare SM sends one sweep and restores what it delivered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.constants import LFT_BLOCK_SIZE, LFT_UNSET
from repro.errors import DistributionError, ReproError, TransportError
from repro.fabric.lft import lft_block_of, widen
from repro.fabric.node import Switch
from repro.fabric.topology import Topology
from repro.mad.reliable import ReliableSmpSender
from repro.mad.smp import Smp, SmpKind, SmpMethod, SmpPlan, make_set_lft_block
from repro.mad.transport import SmpTransport
from repro.obs.hub import get_hub, span
from repro.sm.routing.base import RoutingTables

__all__ = ["LftDistributor", "LftReport", "LftUpdate", "PIPELINE_WINDOW"]

#: LFT SMPs the SM keeps in flight when it pipelines (section VI-B).
PIPELINE_WINDOW = 8

#: The writes an update applied, oldest first, in batches of (switch rows,
#: blocks, pre-images) — a sweep's batch shares its arrays, no row copies.
Undo = List[Tuple[Sequence[int], Sequence[int], np.ndarray]]


@dataclass
class LftReport:
    """Cost accounting of one LFT update: a distribution's ``n * m`` or a
    vSwitch edit's ``n' * m'`` SubnSet(LFT) blocks, priced by one k/r
    model."""

    mode: str = ""  # "full"/"diff" for a distribution, else the vSwitch op
    smps_sent: int = 0  # every SMP, read-backs and retransmissions included
    lft_smps: int = 0  # the SubnSet(LFT) SMPs among them
    switches_updated: int = 0  # n'
    blocks_per_switch: Dict[str, int] = field(default_factory=dict)
    serial_time: float = 0.0
    pipelined_time: float = 0.0
    verified_blocks: int = 0  # read-backs that matched the shadow copy
    resyncs: int = 0  # block rewrites forced by a failed read-back
    rolled_back: int = 0  # applied writes a failed update restored

    @property
    def max_blocks_on_one_switch(self) -> int:
        """The paper's ``m`` (``m'`` for a vSwitch edit; 0 if none)."""
        return max(self.blocks_per_switch.values(), default=0)


class LftDistributor:
    """Sends LFT blocks to switches through an SMP transport."""

    #: Write+read-back rounds per block before declaring the switch failed
    #: (each round's sends also retry internally).
    verify_attempts = 3

    def __init__(self, topology: Topology, transport: SmpTransport) -> None:
        self.topology = topology
        self.transport = transport
        #: What ``.send()`` actually goes through — the raw transport by
        #: default, a :class:`~repro.mad.reliable.ReliableSmpSender` once
        #: the SM enables resilience.
        self.sender = transport

    @property
    def transactional(self) -> bool:
        """Whether block writes are read-back verified: a resilient SM
        verifies, a bare SM sweeps."""
        return isinstance(self.sender, ReliableSmpSender)

    def distribute(self, tables: RoutingTables, *, force_full: bool = False) -> LftReport:
        """Program every switch's LFT from *tables*.

        ``force_full`` resends every used block even if identical (the
        traditional full-reconfiguration baseline); the default diffs
        against the switches' current LFTs. A failed pass is rolled back
        and raised as :class:`~repro.errors.DistributionError`.
        """
        mode = "full" if force_full else "diff"
        report = LftReport(mode=mode)
        send, changed, desired = self._diff_plan(tables, force_full)
        # Row-major: switch order, and within a switch ascending blocks.
        rows, blocks = np.nonzero(send)
        # A plan that sends every block needs no gather, and a copy of
        # exactly the matrix's size made malloc's trim-or-keep of the freed
        # pair (so peak RSS and later page faults) differ run to run.
        full = desired.reshape(-1, LFT_BLOCK_SIZE)
        entries = full if send.all() else desired[rows, blocks]
        # Nor does the undo, where its pre-images are known: a block that
        # does not change held what it is sent, and a store never written
        # (its least entry is the largest, unset) held unset.
        pre = None
        if not changed.any():
            pre = entries
        elif self.topology.lft.min() == LFT_UNSET:
            pre = np.broadcast_to(np.int16(LFT_UNSET), entries.shape)
        try:
            with self.update(  # a distribution's SMPs travel directed-routed
                report, "lft_distribution", directed=True,
                error=DistributionError, mode=mode,
                switches=self.topology.num_switches,
            ) as write:
                write(rows, blocks, entries, pre)
        except TransportError as exc:
            raise DistributionError(
                f"LFT distribution aborted ({exc}); rolled back"
                f" {report.rolled_back} applied block writes"
            ) from exc
        metrics = get_hub().metrics
        metrics.gauge("repro_lftd_smps").set(report.smps_sent)
        metrics.gauge("repro_lftd_serial_seconds").set(report.serial_time)
        metrics.gauge("repro_lftd_pipelined_seconds").set(report.pipelined_time)
        return report

    def update(
        self, report: LftReport, span_name: str, *, directed: bool,
        error: Type[ReproError], **attributes: object,
    ) -> "LftUpdate":
        """One LFT write transaction in span *span_name* (an
        :class:`LftUpdate`): the only way an LFT change reaches the switches."""
        return LftUpdate(self, report, span(span_name, **attributes), directed, error)

    def _diff_plan(
        self, tables: RoutingTables, force_full: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Which blocks to send, from one stacked block compare.

        Returns ``(send, changed, desired)``: ``send[i, b]`` says whether
        block ``b`` goes to the ``i``-th switch, ``changed[i, b]`` whether
        it differs from the switch's (``send`` itself unless
        *force_full*), and ``desired`` is the stacked (num_switches,
        n_blocks, 64) target LFT matrix. The whole diff is one compare
        against the hardware store in place, a block reshape and an
        ``any`` reduction — no per-switch copy. Computing the plan
        up front is equivalent to the old interleaved diff-while-sending:
        a switch's LFT is only mutated by its *own* sends, so the pre-send
        state each old diff read is exactly the state read here.
        """
        # Widen to whichever is larger: the new routing or the hardware
        # store — stale entries above the new top LID must be cleared, not
        # silently kept.
        hardware = self.topology.lft
        s, width = hardware.shape
        top = lft_block_of(max(width - 1, tables.top_lid)) * LFT_BLOCK_SIZE
        desired = widen(tables.ports[:s], top + LFT_BLOCK_SIZE - 1)
        # Beyond the store every hardware entry reads unset.
        differs = desired != LFT_UNSET
        shape = (s, desired.shape[1] // LFT_BLOCK_SIZE, LFT_BLOCK_SIZE)
        used = differs.reshape(shape).any(axis=2) if force_full else None
        np.not_equal(desired[:, :width], hardware, out=differs[:, :width])
        changed = differs.reshape(shape).any(axis=2)
        return changed if used is None else used, changed, desired.reshape(shape)

    def write_block_verified(
        self, sw: Switch, block: int, entries: np.ndarray, *, directed: bool,
        undo: Optional[Undo] = None, report: Optional[LftReport] = None,
    ) -> None:
        """Write one block and prove it landed intact.

        A SubnGet(LFT) read-back compares the switch's block against the
        shadow copy being written; a mismatch (dropped SET without a
        reliable sender, or silent in-flight corruption) re-syncs the block
        from the shadow, up to :attr:`verify_attempts` rounds, after which
        :class:`~repro.errors.TransportError` is raised. The block's
        pre-image is logged in *undo* once a SET was delivered; *report*
        counts the verified blocks and the re-syncs.
        """
        pre = self.topology.lft_blocks([sw.index], [block])
        recorded = undo is None
        for attempt in range(self.verify_attempts):
            if attempt and report is not None:
                report.resyncs += 1
            result = self.sender.send(
                make_set_lft_block(sw.name, block, entries, directed=directed)
            )
            if result.ok and not recorded:
                undo.append(([sw.index], [block], pre))
                recorded = True
            readback = self.sender.send(
                Smp(
                    SmpMethod.GET, SmpKind.LFT_BLOCK, sw.name,
                    payload={"block": block}, directed=directed,
                )
            )
            if (
                readback.ok
                and readback.data is not None
                and np.array_equal(readback.data["entries"], entries)
            ):
                if report is not None:
                    report.verified_blocks += 1
                return
        raise TransportError(
            f"switch {sw.name!r} block {block} failed read-back"
            f" verification after {self.verify_attempts} attempts"
        )

    def rollback(self, undo: Undo, *, directed: bool, error: Type[ReproError]) -> None:
        """Restore the pre-image of every applied write, newest first.

        On a resilient SM the restores themselves are read-back
        verified — a rollback write silently corrupted in flight would
        otherwise leave a third state neither old nor new. A restore that
        fails raises *error* naming the block: the subnet is then
        genuinely inconsistent.
        """
        switches = self.topology.switches
        for rows, blocks, pres in reversed(undo):
            for row, block, pre in zip(
                np.asarray(rows)[::-1].tolist(), np.asarray(blocks)[::-1].tolist(),
                pres[::-1],
            ):
                sw = switches[row]
                try:
                    if self.transactional:
                        self.write_block_verified(sw, block, pre, directed=directed)
                    else:
                        self.sender.send(
                            make_set_lft_block(sw.name, block, pre, directed=directed)
                        )
                except TransportError as exc:
                    raise error(
                        f"rollback of switch {sw.name!r} block {block} failed;"
                        " subnet may be inconsistent"
                    ) from exc

    def pending_blocks(self, tables: RoutingTables) -> int:
        """Count the block writes a diff distribution of *tables* would
        send, without sending anything.

        The HA acceptance check compares a light failover sweep's actual
        block writes against this figure: a successor whose journal was
        current must never program more than the pending diff.
        """
        return int(self._diff_plan(tables, False)[0].sum())


class LftUpdate:
    """One LFT write transaction (:meth:`LftDistributor.update`); ``with``
    yields :meth:`write`. A :class:`~repro.errors.TransportError` inside
    restores every applied write newest first and re-raises (*error* if a
    restore fails); success prices the report from one transport delta
    and puts ``smps_sent``, ``switches_updated`` and ``m`` on the span."""

    __slots__ = (
        "_owner", "_report", "_span", "_directed", "_error", "_undo", "_before", "_sp",
    )

    def __init__(
        self, owner: LftDistributor, report: LftReport, span_cm, directed: bool,
        error: Type[ReproError],
    ) -> None:
        self._owner, self._report, self._span = owner, report, span_cm
        self._directed, self._error = directed, error
        self._undo: Undo = []

    def __enter__(self) -> Callable[..., None]:
        self._before = self._owner.transport.stats.snapshot()
        self._sp = self._span.__enter__()
        return self.write

    def write(self, rows, blocks, entries, pre=None) -> None:
        """Block ``blocks[i]`` of switch row ``rows[i]`` takes ``entries[i]``
        (switch order, ascending blocks; ``pre[i]`` its current content if
        read), verified block by block on a resilient SM, else one
        :meth:`SmpPlan.lft_sweep`; the report counts ``n'`` and blocks."""
        if not len(rows):
            return
        owner, report, undo = self._owner, self._report, self._undo
        switches, per_switch = owner.topology.switches, report.blocks_per_switch
        counts = np.bincount(rows)
        for i in np.flatnonzero(counts).tolist():
            name = switches[i].name
            per_switch[name] = per_switch.get(name, 0) + int(counts[i])
        report.switches_updated = len(per_switch)
        if owner.transactional:
            for row, block, entry in zip(
                np.asarray(rows).tolist(), np.asarray(blocks).tolist(), entries
            ):
                owner.write_block_verified(
                    switches[row], block, entry, directed=self._directed,
                    undo=undo, report=report,
                )
            return
        if pre is None:
            pre = owner.topology.lft_blocks(rows, blocks)
        applied: List[int] = []
        try:
            owner.sender.deliver(
                SmpPlan.lft_sweep(
                    [switches[i].name for i in np.asarray(rows).tolist()],
                    blocks, entries, directed=self._directed,
                ),
                applied=applied,
            )
        finally:
            if len(applied) == len(rows):
                undo.append((rows, blocks, pre))
            elif applied:
                undo.append((
                    np.asarray(rows)[applied], np.asarray(blocks)[applied],
                    pre[applied],
                ))

    def __exit__(self, kind, exc, tb) -> Optional[bool]:
        report, undo = self._report, self._undo
        try:
            if kind is None:
                delta = self._owner.transport.stats.delta_since(self._before)
                report.smps_sent = delta.total_smps
                report.lft_smps = delta.lft_update_smps
                report.serial_time = delta.serial_time
                report.pipelined_time = delta.pipelined_time(PIPELINE_WINDOW)
                self._sp.set_attributes(
                    smps_sent=report.smps_sent,
                    switches_updated=report.switches_updated,
                    m=report.max_blocks_on_one_switch,
                )
            elif issubclass(kind, TransportError):
                self._owner.rollback(undo, directed=self._directed, error=self._error)
                report.rolled_back = sum(len(batch[0]) for batch in undo)
        except ReproError as failed:  # a restore failed: the span says so
            self._span.__exit__(type(failed), failed, failed.__traceback__)
            raise
        return self._span.__exit__(kind, exc, tb)
