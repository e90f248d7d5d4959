"""LFT distribution: turning a routing function into SubnSet(LFT) SMPs.

Implements the ``LFTD_t`` half of the paper's cost model (equation (2)):
``LFTD_t = n * m * (k + r)`` for a full distribution of ``m`` blocks to each
of ``n`` switches, serially over directed-route SMPs. The distributor
supports three modes:

* **full** — send every used block to every switch (the traditional
  reconfiguration baseline of section VI-A; its SMP count is the
  "Min SMPs Full RC" column of Table I);
* **diff** — send only blocks that differ from what the switch already has
  (what OpenSM actually does on incremental changes);
* both modes report serial and pipelined times (section VI-B notes OpenSM
  pipelines LFT updates).

With :attr:`LftDistributor.transactional` set (normally via
:meth:`repro.sm.subnet_manager.SubnetManager.enable_resilience`), every
block write is *verified*: a SubnGet(LFT) read-back compares the switch's
actual block against the SM's shadow copy, silently corrupted or dropped
writes are re-synced from that shadow, and a distribution that cannot be
completed is rolled back block-by-block — the subnet ends in either the
new routing or the old one, never in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from repro.constants import LFT_BLOCK_SIZE, LFT_UNSET
from repro.errors import (
    DistributionError,
    ReproError,
    RoutingError,
    TransportError,
)
from repro.fabric.lft import lft_block_of, widen
from repro.fabric.node import Switch
from repro.fabric.topology import Topology
from repro.mad.smp import Smp, SmpKind, SmpMethod, SmpPlan, make_set_lft_block
from repro.mad.transport import SmpTransport
from repro.obs.hub import get_hub, span
from repro.sm.routing.base import RoutingTables

__all__ = ["DistributionReport", "LftDistributor"]


@dataclass
class DistributionReport:
    """Cost accounting of one LFT distribution pass."""

    smps_sent: int = 0
    switches_updated: int = 0
    blocks_per_switch: Dict[str, int] = field(default_factory=dict)
    serial_time: float = 0.0
    pipelined_time: float = 0.0
    #: Blocks whose read-back matched the shadow copy (transactional mode).
    verified_blocks: int = 0
    #: Block rewrites forced by a failed read-back (drop or corruption).
    resyncs: int = 0
    #: True when the pass failed and every applied block was restored.
    rolled_back: bool = False

    @property
    def max_blocks_on_one_switch(self) -> int:
        """The paper's ``m`` for this pass."""
        return max(self.blocks_per_switch.values(), default=0)


class LftDistributor:
    """Sends LFT blocks to switches through an SMP transport."""

    #: LFT SMPs travel directed-routed.
    DIRECTED = True

    def __init__(
        self,
        topology: Topology,
        transport: SmpTransport,
        *,
        pipeline_window: int = 8,
    ) -> None:
        if pipeline_window < 1:
            raise RoutingError("pipeline window must be >= 1")
        self.topology = topology
        self.transport = transport
        #: What ``.send()`` actually goes through — the raw transport by
        #: default, a :class:`~repro.mad.reliable.ReliableSmpSender` once
        #: the SM enables resilience.
        self.sender = transport
        self.pipeline_window = pipeline_window
        #: Verify every block write with a GetResp read-back, re-sync
        #: mismatches from the shadow copy, roll back on failure.
        self.transactional = False
        #: Write+read-back rounds per block before declaring the switch
        #: failed (each round's sends also retry internally when the
        #: sender is reliable).
        self.verify_attempts = 3

    def distribute(
        self,
        tables: RoutingTables,
        *,
        force_full: bool = False,
    ) -> DistributionReport:
        """Program every switch's LFT from *tables*.

        ``force_full`` resends every used block even if identical (the
        traditional full-reconfiguration baseline); the default diffs
        against the switches' current LFTs.
        """
        report = DistributionReport()
        before = self.transport.stats.snapshot()
        with span(
            "lft_distribution",
            mode="full" if force_full else "diff",
            switches=self.topology.num_switches,
        ) as sp:
            self._distribute_blocks(tables, report, force_full)
            delta = self.transport.stats.delta_since(before)
            report.smps_sent = delta.total_smps
            report.serial_time = delta.serial_time
            report.pipelined_time = delta.pipelined_time(self.pipeline_window)
            sp.set_attributes(
                smps_sent=report.smps_sent,
                switches_updated=report.switches_updated,
                m=report.max_blocks_on_one_switch,
            )
        metrics = get_hub().metrics
        metrics.gauge("repro_lftd_smps").set(report.smps_sent)
        metrics.gauge("repro_lftd_serial_seconds").set(report.serial_time)
        metrics.gauge("repro_lftd_pipelined_seconds").set(
            report.pipelined_time
        )
        return report

    def _diff_plan(
        self, tables: RoutingTables, force_full: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Which blocks to send, from one stacked block compare.

        Returns ``(send, desired)``: ``send[i, b]`` says whether block
        ``b`` goes to the ``i``-th switch and ``desired`` is the stacked
        (num_switches, n_blocks, 64) target LFT matrix. The whole diff is
        one compare against the hardware store in place, a block reshape
        and an ``any`` reduction — no per-switch copy. Computing the plan
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
        send = desired != LFT_UNSET
        if not force_full:
            send[:, :width] = desired[:, :width] != hardware
        shape = (s, desired.shape[1] // LFT_BLOCK_SIZE, LFT_BLOCK_SIZE)
        return send.reshape(shape).any(axis=2), desired.reshape(shape)

    def _distribute_blocks(
        self,
        tables: RoutingTables,
        report: DistributionReport,
        force_full: bool,
    ) -> None:
        #: (switch, block, pre-image) of every write actually applied, so
        #: a failed transactional pass can be unwound.
        undo: List[Tuple[Switch, int, np.ndarray]] = []
        send, desired = self._diff_plan(tables, force_full)
        switches = self.topology.switches
        for i, count in enumerate(send.sum(axis=1).tolist()):
            if count:
                report.switches_updated += 1
                report.blocks_per_switch[switches[i].name] = count
        # Row-major: switch order, and within a switch ascending blocks.
        rows, blocks = np.nonzero(send)
        # A plan that sends every block needs no gather, and a copy of
        # exactly the matrix's size made malloc's trim-or-keep of the freed
        # pair (so peak RSS and later page faults) differ run to run.
        full = desired.reshape(-1, LFT_BLOCK_SIZE)
        entries = full if send.all() else desired[rows, blocks]
        targets = [switches[i] for i in rows.tolist()]
        try:
            if self.transactional:
                for sw, block, row in zip(targets, blocks.tolist(), entries):
                    self.write_block_verified(
                        sw, block, row, directed=self.DIRECTED,
                        undo=undo, report=report,
                    )
            else:
                self.sender.deliver(
                    SmpPlan.lft_sweep(
                        [sw.name for sw in targets], blocks, entries,
                        directed=self.DIRECTED,
                    )
                )
        except TransportError as exc:
            self.rollback(undo, directed=self.DIRECTED)
            report.rolled_back = True
            raise DistributionError(
                f"LFT distribution aborted ({exc}); rolled back"
                f" {len(undo)} applied block writes"
            ) from exc

    def write_block_verified(
        self,
        sw: Switch,
        block: int,
        entries: np.ndarray,
        *,
        directed: bool,
        undo: Optional[List[Tuple[Switch, int, np.ndarray]]] = None,
        report: Optional[DistributionReport] = None,
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
        pre = self.topology.lft_blocks([sw.index], [block])[0]
        recorded = undo is None
        for attempt in range(self.verify_attempts):
            if attempt and report is not None:
                report.resyncs += 1
            result = self.sender.send(
                make_set_lft_block(sw.name, block, entries, directed=directed)
            )
            if result.ok and not recorded:
                undo.append((sw, block, pre))
                recorded = True
            readback = self.sender.send(
                Smp(
                    SmpMethod.GET,
                    SmpKind.LFT_BLOCK,
                    sw.name,
                    payload={"block": block},
                    directed=directed,
                )
            )
            if (
                readback.ok
                and readback.data is not None
                and np.array_equal(
                    np.asarray(readback.data["entries"], dtype=np.int16),
                    np.asarray(entries, dtype=np.int16),
                )
            ):
                if report is not None:
                    report.verified_blocks += 1
                return
        raise TransportError(
            f"switch {sw.name!r} block {block} failed read-back"
            f" verification after {self.verify_attempts} attempts"
        )

    def rollback(
        self,
        undo: List[Tuple[Switch, int, np.ndarray]],
        *,
        directed: bool,
        error: Type[ReproError] = DistributionError,
    ) -> None:
        """Restore the pre-image of every applied write, newest first.

        In transactional mode the restores themselves are read-back
        verified — a rollback write silently corrupted in flight would
        otherwise leave a third state neither old nor new. A restore that
        fails raises *error* naming the block: the subnet is then
        genuinely inconsistent.
        """
        for sw, block, pre in reversed(undo):
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
