"""Topology-agnostic dynamic reconfiguration (paper section V-C, Algorithm 1).

The vSwitch property — every VF shares the uplink with its PF — lets a live
migration be absorbed by *editing* LFT entries instead of recomputing paths:

* **LID swapping** (prepopulated LIDs, V-C1): exchange the migrating VM's
  LID entry with the entry of the destination VF's LID on every switch
  where they differ. 1 SMP per switch if both LIDs share a 64-LID block,
  2 otherwise (``m' in {1, 2}``).
* **LID copying** (dynamic assignment, V-C2): overwrite the VM LID's entry
  with the destination hypervisor PF's entry — always at most 1 SMP per
  switch (``m' = 1``).

Only the ``n' <= n`` switches whose entries actually differ receive SMPs
(section VI-B), and because switch LIDs never move, the updates may use
destination-based routing, dropping the per-hop directed-routing overhead
``r`` (equation (5)).

Path computation time is zero by construction — the headline result.

Every operation here is one **column edit**: "these LID columns take
these per-switch ports". One kernel (:meth:`VSwitchReconfigurer._edit`)
compares the affected entries, keeps the ``n'`` switches where they
differ, builds only the changed 64-entry blocks and hands them to the
transport as one multi-target sweep
(:meth:`repro.mad.smp.SmpPlan.lft_sweep`, delivered by
:meth:`repro.mad.transport.SmpTransport.deliver`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.constants import LFT_BLOCK_SIZE, LFT_DROP_PORT
from repro.errors import ReconfigError, ReconfigRollbackError, TransportError
from repro.fabric.lft import apply_column_op
from repro.fabric.node import Switch
from repro.mad.smp import SmpPlan
from repro.obs.hub import get_hub, span
from repro.sm.subnet_manager import SubnetManager

__all__ = ["ReconfigReport", "VSwitchReconfigurer"]


@dataclass
class ReconfigReport:
    """Cost accounting of one LFT reconfiguration — the paper's
    ``vSwitch RC_t = n' * m' * k`` quantities."""

    mode: str = ""
    lft_smps: int = 0
    switches_updated: int = 0  # n'
    blocks_per_switch: Dict[str, int] = field(default_factory=dict)
    serial_time: float = 0.0
    pipelined_time: float = 0.0
    path_compute_seconds: float = 0.0  # identically 0 — kept for symmetry

    @property
    def max_blocks_on_one_switch(self) -> int:
        """The realized ``m'`` (0 if nothing changed)."""
        return max(self.blocks_per_switch.values(), default=0)

    @property
    def total_seconds_serial(self) -> float:
        """End-to-end reconfiguration time, serial SMPs."""
        return self.path_compute_seconds + self.serial_time


class VSwitchReconfigurer:
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
        pipeline_window: int = 8,
    ) -> None:
        if pipeline_window < 1:
            raise ReconfigError("pipeline window must be >= 1")
        self.sm = sm
        self.destination_routed = destination_routed
        self.pipeline_window = pipeline_window

    # -- public operations ---------------------------------------------------

    def swap_lids(
        self,
        lid_a: int,
        lid_b: int,
        *,
        limit_switches: Optional[Set[int]] = None,
    ) -> ReconfigReport:
        """Prepopulated-LIDs migration: swap two LID entries on all switches.

        Implements UPDATELFTBLOCKSONALLSWITCHES of Algorithm 1 for the
        swapping variant: an SMP goes only where a block actually changes.

        ``limit_switches`` restricts the update to a skyline subset (the
        section VI-D minimal reconfiguration). Only safe when every LID
        involved attaches *within* the limited region — the intra-leaf
        special case — which is validated here.
        """
        lids = self._check_swap(lid_a, lid_b, limit_switches)
        with self._reconfiguration(
            "swap", "lft_swap", lid_a=lid_a, lid_b=lid_b
        ) as (report, undo):
            switches = self._switch_sweep(limit_switches)
            have = self._entries(switches, lids)
            self._edit(switches, lids, have, have[:, ::-1], report, undo)
        self._record(limit_switches, op="swap", lid_a=lid_a, lid_b=lid_b)
        return report

    def copy_path(
        self,
        template_lid: int,
        target_lid: int,
        *,
        limit_switches: Optional[Set[int]] = None,
    ) -> ReconfigReport:
        """Dynamic-assignment migration/creation: *target_lid* inherits
        *template_lid*'s forwarding port on every switch (V-C2).

        ``template_lid`` is the LID of the PF of the hypervisor hosting (or
        about to host) the VM. At most one block per switch changes.
        ``limit_switches`` as in :meth:`swap_lids`.
        """
        return self._copy(
            [(template_lid, target_lid)], limit_switches, "copy", "lft_copy",
            {"template_lid": template_lid, "target_lid": target_lid},
        )

    def copy_paths(
        self,
        pairs: List[Tuple[int, int]],
        *,
        limit_switches: Optional[Set[int]] = None,
    ) -> ReconfigReport:
        """Batched :meth:`copy_path`: program many (template, target)
        copies in one sweep, coalescing SMPs per (switch, block).

        This is what lets N concurrent tenant boots cost far fewer SMPs
        than N sequential ones: freshly assigned LIDs are consecutive, so
        on each switch many of them land in the same 64-entry LFT block
        and one ``SubnSet(LFT)`` carries all of their entries at once.
        All-or-nothing like the single-copy path: a transport failure
        rolls every applied block back and re-raises. Every template is
        read before any target is written, so a target may not double
        as a template.
        """
        if not pairs:
            return ReconfigReport(mode="copy-batch")
        return self._copy(
            pairs, limit_switches, "copy-batch", "lft_copy_batch",
            {"pairs": len(pairs)},
        )

    def safe_swap_lids(
        self,
        lid_a: int,
        lid_b: int,
        *,
        limit_switches: Optional[Set[int]] = None,
    ) -> ReconfigReport:
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
        lids = self._check_swap(lid_a, lid_b, limit_switches)
        with self._reconfiguration(
            "safe-swap", "lft_safe_swap", lid_a=lid_a, lid_b=lid_b
        ) as (report, undo):
            switches = self._switch_sweep(limit_switches)
            have = self._entries(switches, lids)
            differ = have[:, 0] != have[:, 1]
            affected = [sw for sw, hit in zip(switches, differ) if hit]
            ports = have[differ]
            # Phase 1: invalidate the moving LIDs on the affected switches.
            with span("invalidate_phase"):
                dropped = np.full_like(ports, LFT_DROP_PORT)
                self._edit(affected, lids, ports, dropped, report, undo)
            # Phase 2: program the swapped entries — the pre-invalidation
            # ports as the SM's tables recorded them.
            tbl = self.sm.current_tables
            if tbl is not None and max(lids) <= tbl.top_lid:
                index = [sw.index for sw in affected]
                ports = tbl.ports[index][:, list(lids)]
            with span("swap_phase"):
                self._edit(
                    affected, lids, self._entries(affected, lids),
                    ports[:, ::-1], report, undo,
                )
            # blocks_per_switch was incremented per phase; n' is the number of
            # distinct switches, not phase-entries.
            report.switches_updated = len(affected)
        self._record(limit_switches, op="swap", lid_a=lid_a, lid_b=lid_b)
        return report

    def invalidate_lid(self, lid: int) -> ReconfigReport:
        """Partially-static pre-step (section VI-C): forward *lid* to port
        255 on every switch so in-flight traffic toward the migrating VM is
        dropped rather than risking a transition deadlock."""
        with self._reconfiguration(
            "invalidate", "lft_invalidate", lid=lid
        ) as (report, undo):
            switches = self.sm.topology.switches
            have = self._entries(switches, (lid,))
            dropped = np.full_like(have, LFT_DROP_PORT)
            self._edit(switches, (lid,), have, dropped, report, undo)
        self._record(None, op="invalidate", lid=lid)
        return report

    # -- prediction (no mutation) -----------------------------------------------

    def predict_swap(self, lid_a: int, lid_b: int) -> Tuple[int, int]:
        """(n', total SMPs) a swap would cost, without performing it."""
        switches = self.sm.topology.switches
        have = self._entries(switches, (lid_a, lid_b))
        return self._edit(switches, (lid_a, lid_b), have, have[:, ::-1])

    def predict_copy(self, template_lid: int, target_lid: int) -> Tuple[int, int]:
        """(n', total SMPs) a copy would cost, without performing it."""
        switches = self.sm.topology.switches
        return self._edit(
            switches,
            (target_lid,),
            self._entries(switches, (target_lid,)),
            self._entries(switches, (template_lid,)),
        )

    # -- the column-edit kernel ------------------------------------------------------

    def _entries(self, switches: Sequence[Switch], lids: Sequence[int]) -> np.ndarray:
        """The hardware LFT entries ``[switch, lid]`` of a sweep, one
        column gather."""
        return self.sm.topology.lft_columns(lids)[[sw.index for sw in switches]]

    def _edit(
        self,
        switches: Sequence[Switch],
        lids: Sequence[int],
        have: np.ndarray,
        want: np.ndarray,
        report: Optional[ReconfigReport] = None,
        undo: Optional[List[Tuple[Switch, int, np.ndarray]]] = None,
    ) -> Tuple[int, int]:
        """The LFT columns *lids* take the per-switch ports *want*.

        ``have[s, l]`` is what ``switches[s]`` forwards ``lids[l]`` to now.
        Only where it differs from ``want[s, l]`` does anything happen:
        the ``n'`` switches with a difference each get one
        ``SubnSet(LFT)`` per 64-entry block that holds one, in switch
        order and ascending blocks. Returns ``(n', SMPs)``; without a
        *report* nothing is sent (the prediction). Otherwise the blocks
        go out as one sweep — or, when the SM runs transactionally, as
        verified writes block by block — *report* is charged, and the
        pre-image of every delivered block lands in *undo*, also when
        the sweep dies half-way with a transport error.
        """
        at_switch, at_lid = np.nonzero(have != want)
        if not at_switch.size:
            return 0, 0
        at_block, at_offset = np.divmod(np.asarray(lids)[at_lid], LFT_BLOCK_SIZE)
        n_blocks = int(at_block.max()) + 1
        # One row per distinct (switch, block) that holds a difference.
        keys, row_of = np.unique(
            at_switch * n_blocks + at_block, return_inverse=True
        )
        owners, blocks = np.divmod(keys, n_blocks)
        per_switch = np.bincount(owners, minlength=len(switches))
        hit = np.flatnonzero(per_switch)
        if report is None:
            return hit.size, keys.size
        for i in hit.tolist():
            name = switches[i].name
            report.switches_updated += 1
            report.blocks_per_switch[name] = report.blocks_per_switch.get(
                name, 0
            ) + int(per_switch[i])
        targets = [switches[i] for i in owners.tolist()]
        blocks = blocks.tolist()
        pre = self.sm.topology.lft_blocks([sw.index for sw in targets], blocks)
        entries = pre.copy()
        entries[row_of, at_offset] = want[at_switch, at_lid]
        self._write(targets, blocks, entries, pre, undo)
        return hit.size, keys.size

    def _write(
        self,
        targets: List[Switch],
        blocks: List[int],
        entries: np.ndarray,
        pre: np.ndarray,
        undo: List[Tuple[Switch, int, np.ndarray]],
    ) -> None:
        # Read the resilience state off the SM at send time: a later
        # enable_resilience() call upgrades reconfigurers that already
        # exist (the cloud layer builds them at scheme construction).
        distributor = self.sm.distributor
        directed = not self.destination_routed
        if distributor.transactional:
            for sw, block, row in zip(targets, blocks, entries):
                distributor.write_block_verified(
                    sw, block, row, directed=directed, undo=undo
                )
            return
        applied: List[int] = []
        try:
            distributor.sender.deliver(
                SmpPlan.lft_sweep(
                    [sw.name for sw in targets], blocks, entries, directed=directed
                ),
                applied=applied,
            )
        finally:
            undo.extend((targets[i], blocks[i], pre[i]) for i in applied)

    @contextmanager
    def _reconfiguration(
        self, mode: str, name: str, **attributes: int
    ) -> Iterator[Tuple[ReconfigReport, List[Tuple[Switch, int, np.ndarray]]]]:
        """The shell every operation shares: a span *name*, an undo log
        that turns a mid-flight transport failure into a clean "nothing
        happened" (the caller sees the original :class:`TransportError`
        and every switch holds its pre-reconfiguration entries;
        :class:`ReconfigRollbackError` if the restores themselves fail),
        and a report priced from the transport's counters."""
        report = ReconfigReport(mode=mode)
        undo: List[Tuple[Switch, int, np.ndarray]] = []
        before = self.sm.transport.stats.snapshot()
        with span(name, **attributes):
            try:
                yield report, undo
            except TransportError:
                self.sm.distributor.rollback(
                    undo,
                    directed=not self.destination_routed,
                    error=ReconfigRollbackError,
                )
                raise
            self._finish(report, before)

    # -- internals ------------------------------------------------------------------

    def _check_swap(
        self, lid_a: int, lid_b: int, limit_switches: Optional[Set[int]]
    ) -> Tuple[int, int]:
        if lid_a == lid_b:
            raise ReconfigError("cannot swap a LID with itself")
        self._check_lid_known(lid_a)
        self._check_lid_known(lid_b)
        if limit_switches is not None:
            self._check_limit_safe((lid_a, lid_b), limit_switches)
        return lid_a, lid_b

    def _copy(
        self,
        pairs: List[Tuple[int, int]],
        limit_switches: Optional[Set[int]],
        mode: str,
        name: str,
        attributes: Dict[str, int],
    ) -> ReconfigReport:
        templates = [template for template, _ in pairs]
        targets = [target for _, target in pairs]
        sources, seen = set(templates), set()
        for template_lid, target_lid in pairs:
            if target_lid in sources:
                raise ReconfigError("template and target LIDs must differ")
            if target_lid in seen:
                raise ReconfigError(
                    f"target LID {target_lid} appears twice in the batch"
                )
            seen.add(target_lid)
            self._check_lid_known(template_lid)
        if limit_switches is not None:
            self._check_limit_safe(templates, limit_switches)
        with self._reconfiguration(mode, name, **attributes) as (report, undo):
            switches = self._switch_sweep(limit_switches)
            self._edit(
                switches,
                targets,
                self._entries(switches, targets),
                self._entries(switches, templates),
                report,
                undo,
            )
        for template_lid, target_lid in pairs:
            self._record(
                limit_switches,
                op="copy",
                template_lid=template_lid,
                target_lid=target_lid,
            )
        return report

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
        terminates inside the limited region: switches outside keep stale
        entries, which still deliver only if they point toward the region.
        That is guaranteed for the intra-leaf case (both hypervisors behind
        one leaf), which is what we validate."""
        for lid in lids:
            attach = self.sm.topology.port_of_lid(lid).remote
            if attach is None or attach.node.index not in limit_switches:
                raise ReconfigError(
                    f"LID {lid} does not attach within the limited switch"
                    " set; a restricted update would strand traffic"
                )

    def _finish(self, report: ReconfigReport, before) -> None:
        delta = self.sm.transport.stats.delta_since(before)
        report.lft_smps = delta.lft_update_smps
        report.serial_time = delta.serial_time
        report.pipelined_time = delta.pipelined_time(self.pipeline_window)
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

    def _record(self, limit_switches: Optional[Set[int]], **op: object) -> None:
        """Land the edit the switches just took on the SM's recorded
        routing function and hand the same record to the standby SMs —
        both through :func:`~repro.fabric.lft.apply_column_op`, so the
        replicas hold what the master holds. A skyline-limited edit
        carries its switch rows; an edit beyond the recorded matrix that
        does not grow it is neither recorded nor replicated."""
        tbl = self.sm.current_tables
        if tbl is None:
            return
        op["switches"] = (
            None if limit_switches is None else sorted(limit_switches)
        )
        ports = apply_column_op(tbl.ports, op)
        if ports is None:
            return
        tbl.ports = ports
        if self.sm.ha is not None:
            self.sm.ha.note_vswitch(op)
