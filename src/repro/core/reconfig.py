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
differ and builds only the changed 64-entry blocks. Those rows go out
through the SM's one LFT write transaction,
:meth:`repro.sm.lft_distribution.LftDistributor.update`, which sends
them, rolls a failed edit back and prices it in an
:class:`~repro.sm.lft_distribution.LftReport`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.constants import LFT_BLOCK_SIZE, LFT_DROP_PORT
from repro.errors import ReconfigError, ReconfigRollbackError
from repro.fabric.lft import apply_column_op
from repro.fabric.node import Switch
from repro.obs.hub import get_hub, span
from repro.sm.lft_distribution import LftReport
from repro.sm.subnet_manager import SubnetManager

__all__ = ["VSwitchReconfigurer"]

#: ``repro_vswitch_*{mode}`` gauge and the report field it publishes.
_GAUGES = (
    ("repro_vswitch_lft_smps", "lft_smps"),
    ("repro_vswitch_switches_updated", "switches_updated"),
    ("repro_vswitch_m_prime", "max_blocks_on_one_switch"),
    ("repro_vswitch_serial_seconds", "serial_time"),
    ("repro_vswitch_pipelined_seconds", "pipelined_time"),
)


class VSwitchReconfigurer:
    """Executes the paper's swap/copy LFT updates against a live subnet.

    Operates on the switches' actual LFTs (the hardware state), keeps the
    SM's recorded routing function consistent, and writes and prices every
    edit through the SM's :class:`~repro.sm.lft_distribution.LftDistributor`.
    ``destination_routed`` selects the equation-(5) optimization of sending
    the LFT updates with destination-based routing instead of directed
    routing.
    """

    def __init__(self, sm: SubnetManager, *, destination_routed: bool = False) -> None:
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
        swapping variant: an SMP goes only where a block actually changes.

        ``limit_switches`` restricts the update to a skyline subset (the
        section VI-D minimal reconfiguration). Only safe when every LID
        involved attaches at one switch *within* the limited region — the
        intra-leaf special case — which is validated here.
        """
        lids = self._check_swap(lid_a, lid_b, limit_switches)
        report = LftReport(mode="swap")
        with self._update(report, "lft_swap", lid_a=lid_a, lid_b=lid_b) as write:
            switches = self._switch_sweep(limit_switches)
            have = self._entries(switches, lids)
            self._edit(switches, lids, have, have[:, ::-1], write)
        self._gauges(report)
        self._record(limit_switches, op="swap", lid_a=lid_a, lid_b=lid_b)
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
        return self._copy(
            [(template_lid, target_lid)], limit_switches, "copy", "lft_copy",
            {"template_lid": template_lid, "target_lid": target_lid},
        )

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
        rolls every applied block back and re-raises. Every template is
        read before any target is written, so a target may not double
        as a template.
        """
        if not pairs:
            return LftReport(mode="copy-batch")
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
        lids = self._check_swap(lid_a, lid_b, limit_switches)
        report = LftReport(mode="safe-swap")
        with self._update(report, "lft_safe_swap", lid_a=lid_a, lid_b=lid_b) as write:
            switches = self._switch_sweep(limit_switches)
            have = self._entries(switches, lids)
            differ = have[:, 0] != have[:, 1]
            affected = [sw for sw, hit in zip(switches, differ) if hit]
            ports = have[differ]
            # Phase 1: invalidate the moving LIDs on the affected switches.
            with span("invalidate_phase"):
                dropped = np.full_like(ports, LFT_DROP_PORT)
                self._edit(affected, lids, ports, dropped, write)
            # Phase 2: program the swapped entries — the pre-invalidation
            # ports as the SM's tables recorded them.
            tbl = self.sm.current_tables
            if tbl is not None and max(lids) <= tbl.top_lid:
                index = [sw.index for sw in affected]
                ports = tbl.ports[index][:, list(lids)]
            with span("swap_phase"):
                self._edit(
                    affected, lids, self._entries(affected, lids),
                    ports[:, ::-1], write,
                )
        self._gauges(report)
        self._record(limit_switches, op="swap", lid_a=lid_a, lid_b=lid_b)
        return report

    def invalidate_lid(self, lid: int) -> LftReport:
        """Partially-static pre-step (section VI-C): forward *lid* to port
        255 on every switch so in-flight traffic toward the migrating VM is
        dropped rather than risking a transition deadlock."""
        report = LftReport(mode="invalidate")
        with self._update(report, "lft_invalidate", lid=lid) as write:
            switches = self.sm.topology.switches
            have = self._entries(switches, (lid,))
            dropped = np.full_like(have, LFT_DROP_PORT)
            self._edit(switches, (lid,), have, dropped, write)
        self._gauges(report)
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
        write: Optional[Callable[..., None]] = None,
    ) -> Tuple[int, int]:
        """The LFT columns *lids* take the per-switch ports *want*.

        ``have[s, l]`` is what ``switches[s]`` forwards ``lids[l]`` to now.
        Only where it differs from ``want[s, l]`` does a block change: the
        ``n'`` switches with a difference each get one row per 64-entry
        block that holds one, in switch order and ascending blocks, handed
        to *write* (an :meth:`~repro.sm.lft_distribution.LftDistributor.update`
        transaction's) as ``(switch rows, blocks, entries, pre-images)``.
        Returns ``(n', SMPs)``; without *write* nothing is built or sent
        (the prediction).
        """
        at_switch, at_lid = np.nonzero(have != want)
        at_block, at_offset = np.divmod(np.asarray(lids)[at_lid], LFT_BLOCK_SIZE)
        n_blocks = int(at_block.max()) + 1 if at_block.size else 1
        # One row per distinct (switch, block) that holds a difference.
        keys, row_of = np.unique(
            at_switch * n_blocks + at_block, return_inverse=True
        )
        owners, blocks = np.divmod(keys, n_blocks)
        if write is not None:
            rows = [switches[i].index for i in owners.tolist()]
            blocks = blocks.tolist()
            pre = self.sm.topology.lft_blocks(rows, blocks)
            entries = pre.copy()
            entries[row_of, at_offset] = want[at_switch, at_lid]
            write(rows, blocks, entries, pre)
        return len(set(owners.tolist())), keys.size

    def _update(self, report: LftReport, name: str, **attributes: int):
        """The SM's one LFT write transaction in span *name*: a transport
        failure re-raises (:class:`ReconfigRollbackError` if a restore fails)."""
        return self.sm.distributor.update(
            report, name, directed=not self.destination_routed,
            error=ReconfigRollbackError, **attributes,
        )

    @staticmethod
    def _gauges(report: LftReport) -> None:
        """The ``repro_vswitch_*`` gauges of a priced edit."""
        metrics = get_hub().metrics
        for series, field in _GAUGES:
            metrics.gauge(series, mode=report.mode).set(getattr(report, field))

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
    ) -> LftReport:
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
            self._check_limit_safe(templates + targets, limit_switches)
        report = LftReport(mode=mode)
        with self._update(report, name, **attributes) as write:
            switches = self._switch_sweep(limit_switches)
            self._edit(
                switches,
                targets,
                self._entries(switches, targets),
                self._entries(switches, templates),
                write,
            )
        self._gauges(report)
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
        switches = self.sm.topology.switches
        if limit_switches is None:
            return switches
        return [sw for sw in switches if sw.index in limit_switches]

    def _check_limit_safe(self, lids, limit_switches: Set[int]) -> None:
        """A skyline-limited update is only correct when every involved LID
        attaches at one switch inside the limited region: switches outside
        keep their old entries, which still deliver only if they lead to
        where every moved LID still terminates. That is the intra-leaf
        case (both hypervisors behind one leaf), which is what we
        validate."""
        where = {self.sm.topology.attachment(lid)[0] for lid in lids}
        if len(where) > 1 or not where <= limit_switches:
            raise ReconfigError(
                f"LIDs {sorted(lids)} do not attach at one switch within the"
                " limited switch set; a restricted update would strand traffic"
            )

    def _record(self, limit_switches: Optional[Set[int]], **op: object) -> None:
        """Land the edit the switches just took on the SM's recorded
        routing function — both planes, ports and lanes — and hand the
        same record to the standby SMs, all through
        :func:`~repro.fabric.lft.apply_column_op`, so the replicas hold
        what the master holds. A skyline-limited edit carries its switch
        rows; an edit beyond the recorded matrix that does not grow it is
        neither recorded nor replicated."""
        tbl = self.sm.current_tables
        if tbl is None:
            return
        op["switches"] = (
            None if limit_switches is None else sorted(limit_switches)
        )
        planes = apply_column_op(tbl.ports, op, tbl.lanes)
        if planes is None:
            return
        tbl.ports, tbl.lanes = planes
        if self.sm.ha is not None:
            self.sm.ha.note_vswitch(op)
