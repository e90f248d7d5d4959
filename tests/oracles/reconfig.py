"""The packet-by-packet vSwitch reconfigurer — oracle for the column-edit
kernel of :mod:`repro.core.reconfig` and for the LFT sweep
:meth:`repro.mad.smp.SmpPlan.lft_sweep` builds.

Algorithm 1 exactly as it was written before the sweep: per switch, clone
the whole LFT, apply the edit to the clone, compare the affected 64-entry
blocks, and ``send`` one ``SubnSet(LFT)`` packet per changed block (SET
then GET, up to three rounds, when the SM is resilient), keeping an undo
log of the delivered writes and restoring it newest-first on a transport
error. The :class:`~repro.sm.lft_distribution.LftReport` is priced with
``snapshot()``/``delta_since()`` and its pricing lands on the span.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from repro.constants import LFT_DROP_PORT
from repro.errors import ReconfigError, ReconfigRollbackError, TransportError
from repro.fabric.lft import lft_block_of, widen
from repro.mad.smp import Smp, SmpKind, SmpMethod, make_set_lft_block
from repro.obs.hub import get_hub, span
from repro.sm.lft_distribution import PIPELINE_WINDOW, LftReport
from repro.sm.subnet_manager import SubnetManager
from tests.oracles.lft import LinearForwardingTable

__all__ = ["PacketByPacketReconfigurer"]


class PacketByPacketReconfigurer:
    """Executes the paper's swap/copy LFT updates against a live subnet.

    Operates on the switches' actual LFTs (the hardware state), keeps the
    SM's recorded routing function consistent, and accounts every SMP
    through the SM's transport. ``destination_routed`` selects the
    equation-(5) optimization of sending the LFT updates with
    destination-based routing instead of directed routing.
    """

    def __init__(
        self,
        sm: SubnetManager,
        *,
        destination_routed: bool = False,
    ) -> None:
        self.sm = sm
        self.destination_routed = destination_routed

    # -- public operations ---------------------------------------------------

    def swap_lids(
        self,
        lid_a: int,
        lid_b: int,
        *,
        limit_switches: Optional[Set[int]] = None,
    ) -> LftReport:
        """Prepopulated-LIDs migration: swap two LID entries on all switches.

        Implements UPDATELFTBLOCKSONALLSWITCHES of Algorithm 1 for the
        swapping variant: iterate every LFT block of every switch, send an
        SMP only where the block actually changes.

        ``limit_switches`` restricts the update to a skyline subset (the
        section VI-D minimal reconfiguration). Only safe when every LID
        involved attaches *within* the limited region — the intra-leaf
        special case — which is validated here.
        """
        if lid_a == lid_b:
            raise ReconfigError("cannot swap a LID with itself")
        self._check_lid_known(lid_a)
        self._check_lid_known(lid_b)
        if limit_switches is not None:
            self._check_limit_safe((lid_a, lid_b), limit_switches)
        report = LftReport(mode="swap")
        before = self.sm.transport.stats.snapshot()
        undo: List[Tuple] = []
        with span("lft_swap", lid_a=lid_a, lid_b=lid_b) as sp:
            try:
                for sw in self._switch_sweep(limit_switches):
                    pa, pb = sw.route(lid_a), sw.route(lid_b)
                    if pa == pb:
                        continue  # same forwarding port: switch keeps balance
                    blocks = sorted({lft_block_of(lid_a), lft_block_of(lid_b)})
                    desired = self._hardware(sw)
                    desired.swap(lid_a, lid_b)
                    self._send_blocks(sw, desired, blocks, report, undo)
            except TransportError:
                self._rollback_blocks(undo)
                raise
            self._finish(report, before, sp)
        self._record_swap(lid_a, lid_b, limit_switches)
        return report

    def copy_path(
        self,
        template_lid: int,
        target_lid: int,
        *,
        limit_switches: Optional[Set[int]] = None,
    ) -> LftReport:
        """Dynamic-assignment migration/creation: *target_lid* inherits
        *template_lid*'s forwarding port on every switch (V-C2).

        ``template_lid`` is the LID of the PF of the hypervisor hosting (or
        about to host) the VM. At most one block per switch changes.
        ``limit_switches`` as in :meth:`swap_lids`.
        """
        if template_lid == target_lid:
            raise ReconfigError("template and target LIDs must differ")
        self._check_lid_known(template_lid)
        if limit_switches is not None:
            self._check_limit_safe((template_lid, target_lid), limit_switches)
        report = LftReport(mode="copy")
        before = self.sm.transport.stats.snapshot()
        block = lft_block_of(target_lid)
        undo: List[Tuple] = []
        with span("lft_copy", template_lid=template_lid, target_lid=target_lid) as sp:
            try:
                for sw in self._switch_sweep(limit_switches):
                    src_port = sw.route(template_lid)
                    if sw.route(target_lid) == src_port:
                        continue
                    desired = self._hardware(sw)
                    desired.copy_entry(template_lid, target_lid)
                    self._send_blocks(sw, desired, [block], report, undo)
            except TransportError:
                self._rollback_blocks(undo)
                raise
            self._finish(report, before, sp)
        self._record_copy(template_lid, target_lid, limit_switches)
        return report

    def copy_paths(
        self,
        pairs: List[Tuple[int, int]],
        *,
        limit_switches: Optional[Set[int]] = None,
    ) -> LftReport:
        """Batched :meth:`copy_path`: program many (template, target)
        copies in one sweep, coalescing SMPs per (switch, block).

        This is what lets N concurrent tenant boots cost far fewer SMPs
        than N sequential ones: freshly assigned LIDs are consecutive, so
        on each switch many of them land in the same 64-entry LFT block
        and one ``SubnSet(LFT)`` carries all of their entries at once.
        All-or-nothing like the single-copy path: a transport failure
        rolls every applied block back and re-raises.
        """
        if not pairs:
            return LftReport(mode="copy-batch")
        seen: Set[int] = set()
        for template_lid, target_lid in pairs:
            if template_lid == target_lid:
                raise ReconfigError("template and target LIDs must differ")
            if target_lid in seen:
                raise ReconfigError(
                    f"target LID {target_lid} appears twice in the batch"
                )
            seen.add(target_lid)
            self._check_lid_known(template_lid)
        if limit_switches is not None:
            self._check_limit_safe(
                tuple(t for pair in pairs for t in pair), limit_switches
            )
        report = LftReport(mode="copy-batch")
        before = self.sm.transport.stats.snapshot()
        undo: List[Tuple] = []
        with span("lft_copy_batch", pairs=len(pairs)) as sp:
            try:
                for sw in self._switch_sweep(limit_switches):
                    changed = [
                        (tpl, tgt)
                        for tpl, tgt in pairs
                        if sw.route(tgt) != sw.route(tpl)
                    ]
                    if not changed:
                        continue
                    desired = self._hardware(sw)
                    for tpl, tgt in changed:
                        desired.copy_entry(tpl, tgt)
                    blocks = sorted({lft_block_of(tgt) for _, tgt in changed})
                    self._send_blocks(sw, desired, blocks, report, undo)
            except TransportError:
                self._rollback_blocks(undo)
                raise
            self._finish(report, before, sp)
        for template_lid, target_lid in pairs:
            self._record_copy(template_lid, target_lid, limit_switches)
        return report

    def safe_swap_lids(
        self,
        lid_a: int,
        lid_b: int,
        *,
        limit_switches: Optional[Set[int]] = None,
    ) -> LftReport:
        """The section VI-C *partially-static* swap.

        Before the actual entry swap, the LIDs being moved are pointed at
        port 255 on every switch that will be updated, so in-flight traffic
        toward them is dropped instead of racing the reconfiguration (and
        the transition can never contribute the moved LIDs' channels to a
        dependency cycle). Costs the extra "n' SMPs (1 SMP per switch that
        needs to be updated, to invalidate the LID of the migrated VM
        before the actual reconfiguration)" the paper prices in — here one
        invalidation SMP per affected (switch, changed block).
        """
        if lid_a == lid_b:
            raise ReconfigError("cannot swap a LID with itself")
        self._check_lid_known(lid_a)
        self._check_lid_known(lid_b)
        if limit_switches is not None:
            self._check_limit_safe((lid_a, lid_b), limit_switches)
        report = LftReport(mode="safe-swap")
        before = self.sm.transport.stats.snapshot()
        undo: List[Tuple] = []
        with span("lft_safe_swap", lid_a=lid_a, lid_b=lid_b) as sp:
            affected = [
                sw
                for sw in self._switch_sweep(limit_switches)
                if sw.route(lid_a) != sw.route(lid_b)
            ]
            try:
                # Phase 1: invalidate the moving LIDs on the affected
                # switches.
                with span("invalidate_phase"):
                    for sw in affected:
                        desired = self._hardware(sw)
                        desired.drop(lid_a)
                        desired.drop(lid_b)
                        blocks = sorted(
                            {lft_block_of(lid_a), lft_block_of(lid_b)}
                        )
                        self._send_blocks(sw, desired, blocks, report, undo)
                # Phase 2: program the swapped entries (recomputed per switch
                # from the pre-invalidation ports captured in the SM's
                # tables).
                tbl = self.sm.current_tables
                with span("swap_phase"):
                    for sw in affected:
                        desired = self._hardware(sw)
                        if tbl is not None and max(lid_a, lid_b) <= tbl.top_lid:
                            pa = tbl.port_for(sw.index, lid_a)
                            pb = tbl.port_for(sw.index, lid_b)
                        else:  # pragma: no cover - tables always exist
                            pa, pb = desired.get(lid_a), desired.get(lid_b)
                        desired.set(lid_a, pb)
                        desired.set(lid_b, pa)
                        blocks = sorted(
                            {lft_block_of(lid_a), lft_block_of(lid_b)}
                        )
                        self._send_blocks(sw, desired, blocks, report, undo)
            except TransportError:
                self._rollback_blocks(undo)
                raise
            # blocks_per_switch was incremented per phase; n' is the number of
            # distinct switches, not phase-entries.
            report.switches_updated = len(affected)
            self._finish(report, before, sp)
        self._record_swap(lid_a, lid_b, limit_switches)
        return report

    def invalidate_lid(self, lid: int) -> LftReport:
        """Partially-static pre-step (section VI-C): forward *lid* to port
        255 on every switch so in-flight traffic toward the migrating VM is
        dropped rather than risking a transition deadlock."""
        report = LftReport(mode="invalidate")
        before = self.sm.transport.stats.snapshot()
        block = lft_block_of(lid)
        undo: List[Tuple] = []
        with span("lft_invalidate", lid=lid) as sp:
            try:
                for sw in self.sm.topology.switches:
                    if sw.route(lid) == LFT_DROP_PORT:
                        continue
                    desired = self._hardware(sw)
                    desired.drop(lid)
                    self._send_blocks(sw, desired, [block], report, undo)
            except TransportError:
                self._rollback_blocks(undo)
                raise
            self._finish(report, before, sp)
        if self.sm.current_tables is not None:
            tbl = self.sm.current_tables
            if lid <= tbl.top_lid:
                tbl.ports[:, lid] = LFT_DROP_PORT
                if self.sm.ha is not None:
                    self.sm.ha.note_vswitch({"op": "invalidate", "lid": lid})
        return report

    # -- prediction (no mutation) -----------------------------------------------

    def predict_swap(self, lid_a: int, lid_b: int) -> Tuple[int, int]:
        """(n', total SMPs) a swap would cost, without performing it."""
        n_prime = 0
        smps = 0
        blocks = {lft_block_of(lid_a), lft_block_of(lid_b)}
        for sw in self.sm.topology.switches:
            if sw.route(lid_a) != sw.route(lid_b):
                n_prime += 1
                smps += len(blocks)
        return n_prime, smps

    def predict_copy(self, template_lid: int, target_lid: int) -> Tuple[int, int]:
        """(n', total SMPs) a copy would cost, without performing it."""
        n_prime = 0
        for sw in self.sm.topology.switches:
            if sw.route(template_lid) != sw.route(target_lid):
                n_prime += 1
        return n_prime, n_prime

    # -- internals ------------------------------------------------------------------

    def _hardware(self, sw) -> LinearForwardingTable:
        """A per-switch table holding *sw*'s hardware row."""
        return LinearForwardingTable.of(self.sm.topology.lft[sw.index])

    def _check_lid_known(self, lid: int) -> None:
        if self.sm.topology.port_of_lid(lid) is None:
            raise ReconfigError(f"LID {lid} is not bound anywhere in the subnet")

    def _switch_sweep(self, limit_switches: Optional[Set[int]]):
        if limit_switches is None:
            return self.sm.topology.switches
        return [
            sw
            for sw in self.sm.topology.switches
            if sw.index in limit_switches
        ]

    def _check_limit_safe(self, lids, limit_switches: Set[int]) -> None:
        """A skyline-limited update is only correct when every involved LID
        (a copy's targets too) attaches at one switch inside the limited
        region: switches outside keep their old entries, which still
        deliver only if every moved LID still terminates where they lead.
        That is the intra-leaf case (both hypervisors behind one leaf),
        which is what we validate."""
        where = set()
        for lid in lids:
            port = self.sm.topology.port_of_lid(lid)
            attach = None if port is None else port.remote
            where.add(-1 if attach is None else attach.node.index)
        if len(where) > 1 or not where <= limit_switches:
            raise ReconfigError(
                f"LIDs {sorted(lids)} do not attach at one switch within the"
                " limited switch set; a restricted update would strand traffic"
            )

    def _send_blocks(
        self,
        sw,
        desired,
        blocks: List[int],
        report: LftReport,
        undo: Optional[List[Tuple]] = None,
    ) -> None:
        sent = 0
        # Read the resilience state off the SM at send time: a later
        # enable_resilience() call upgrades reconfigurers that already
        # exist (the cloud layer builds them at scheme construction).
        verified = self.sm.distributor.transactional
        for block in blocks:
            pre = self._hardware(sw).get_block(block)
            entries = desired.get_block(block)
            if np.array_equal(pre, entries):
                continue
            if verified:
                self._write_block_verified(sw, block, entries, pre, undo, report)
            else:
                result = self.sm.smp_sender.send(
                    make_set_lft_block(
                        sw.name,
                        block,
                        entries,
                        directed=not self.destination_routed,
                    )
                )
                if undo is not None and result.ok:
                    undo.append((sw, block, pre))
            sent += 1
        if sent:
            report.switches_updated += 1
            report.blocks_per_switch[sw.name] = (
                report.blocks_per_switch.get(sw.name, 0) + sent
            )

    #: Read-back rounds per block when the SM is resilient.
    VERIFY_ATTEMPTS = 3

    def _write_block_verified(
        self, sw, block: int, entries, pre, undo: Optional[List[Tuple]],
        report: Optional[LftReport] = None,
    ) -> None:
        """Write one block and prove it landed intact.

        Mirrors the distributor's verified writes for the migration
        fast path: a SubnGet(LFT) read-back compares the switch's block
        against the desired entries, and a mismatch — an in-flight
        corruption silently applied — is re-synced. Exhausting the
        attempts raises :class:`TransportError` so the caller's undo-log
        rollback fires and the migration state machine compensates.
        """
        directed = not self.destination_routed
        recorded = False
        for attempt in range(self.VERIFY_ATTEMPTS):
            if attempt and report is not None:
                report.resyncs += 1
            result = self.sm.smp_sender.send(
                make_set_lft_block(sw.name, block, entries, directed=directed)
            )
            if result.ok and not recorded and undo is not None:
                undo.append((sw, block, pre))
                recorded = True
            readback = self.sm.smp_sender.send(
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
            f" verification after {self.VERIFY_ATTEMPTS} attempts"
        )

    def _rollback_blocks(self, undo: List[Tuple]) -> None:
        """Restore the pre-image of every applied block write, newest first.

        Turns a mid-flight transport failure into a clean "nothing
        happened": the caller sees the original :class:`TransportError`
        and every switch holds its pre-reconfiguration entries. If the
        rollback writes themselves fail, the subnet is genuinely
        inconsistent and :class:`ReconfigRollbackError` says so.
        """
        verified = self.sm.distributor.transactional
        for sw, block, pre in reversed(undo):
            try:
                if verified:
                    # Restores are read-back verified too: a rollback
                    # write silently corrupted in flight would otherwise
                    # leave a state neither old nor new.
                    self._write_block_verified(sw, block, pre, pre, None)
                else:
                    self.sm.smp_sender.send(
                        make_set_lft_block(
                            sw.name,
                            block,
                            pre,
                            directed=not self.destination_routed,
                        )
                    )
            except TransportError as exc:
                raise ReconfigRollbackError(
                    f"rollback of switch {sw.name!r} block {block} failed;"
                    " subnet may be inconsistent"
                ) from exc

    def _finish(self, report: LftReport, before, sp) -> None:
        delta = self.sm.transport.stats.delta_since(before)
        report.smps_sent = delta.total_smps
        report.lft_smps = delta.lft_update_smps
        report.serial_time = delta.serial_time
        report.pipelined_time = delta.pipelined_time(PIPELINE_WINDOW)
        sp.set_attributes(
            smps_sent=report.smps_sent,
            switches_updated=report.switches_updated,
            m=report.max_blocks_on_one_switch,
        )
        metrics = get_hub().metrics
        metrics.gauge("repro_vswitch_lft_smps", mode=report.mode).set(
            report.lft_smps
        )
        metrics.gauge("repro_vswitch_switches_updated", mode=report.mode).set(
            report.switches_updated
        )
        metrics.gauge("repro_vswitch_m_prime", mode=report.mode).set(
            report.max_blocks_on_one_switch
        )
        metrics.gauge("repro_vswitch_serial_seconds", mode=report.mode).set(
            report.serial_time
        )
        metrics.gauge("repro_vswitch_pipelined_seconds", mode=report.mode).set(
            report.pipelined_time
        )

    def _record_swap(
        self,
        lid_a: int,
        lid_b: int,
        limit_switches: Optional[Set[int]] = None,
    ) -> None:
        """Keep the SM's recorded routing function in sync."""
        tbl = self.sm.current_tables
        if tbl is None:
            return
        top = max(lid_a, lid_b)
        if top > tbl.top_lid:
            return
        rows = (
            slice(None)
            if limit_switches is None
            else sorted(limit_switches)
        )
        col_a = tbl.ports[rows, lid_a].copy()
        tbl.ports[rows, lid_a] = tbl.ports[rows, lid_b]
        tbl.ports[rows, lid_b] = col_a
        if self.sm.ha is not None:
            self.sm.ha.note_vswitch(
                {
                    "op": "swap",
                    "lid_a": lid_a,
                    "lid_b": lid_b,
                    "switches": (
                        None
                        if limit_switches is None
                        else sorted(limit_switches)
                    ),
                }
            )

    def _record_copy(
        self,
        template_lid: int,
        target_lid: int,
        limit_switches: Optional[Set[int]] = None,
    ) -> None:
        tbl = self.sm.current_tables
        if tbl is None:
            return
        tbl.ports = widen(tbl.ports, max(template_lid, target_lid))
        rows = (
            slice(None)
            if limit_switches is None
            else sorted(limit_switches)
        )
        tbl.ports[rows, target_lid] = tbl.ports[rows, template_lid]
        if self.sm.ha is not None:
            self.sm.ha.note_vswitch(
                {
                    "op": "copy",
                    "template_lid": template_lid,
                    "target_lid": target_lid,
                    "switches": (
                        None
                        if limit_switches is None
                        else sorted(limit_switches)
                    ),
                }
            )
