"""Subnet verification: prove a fabric's hardware state is consistent.

Downstream users (and this repository's own integration tests) need to
answer "is this subnet actually correct right now?" after arbitrary
sequences of migrations, reconfigurations and failures. The audit operates
on the *switches' LFT contents* — the hardware truth — rather than any
controller bookkeeping, and reads them exactly once: one
:class:`~repro.analysis.static.FabricSnapshot` of the hardware feeds

* **delivery** — every bound LID from every switch, loop-free and out of
  the right final port: the successor-matrix classifier
  :func:`~repro.analysis.static.check_reachability`, whose LFT001–LFT004
  findings are the delivery faults;
* **consistency** — the hardware LFTs equal the SM's recorded routing
  function on every bound LID: one array comparison, reported in
  :attr:`VerificationReport.failures`;
* **the rest of the static pass** (:mod:`repro.analysis.static`) — CDG
  deadlock-freedom, per-VL rules and engine-specific legality checks —
  whose structured findings ride along in
  :attr:`VerificationReport.findings` and surface through
  :meth:`VerificationReport.raise_if_failed` with per-switch detail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.constants import LFT_UNSET
from repro.errors import StaticAnalysisError
from repro.fabric.topology import Topology
from repro.sm.routing.base import RoutingTables
from repro.sm.subnet_manager import SubnetManager
from repro.analysis.static import (
    FabricSnapshot,
    Finding,
    analyze_subnet,
    check_reachability,
)

__all__ = ["VerificationReport", "verify_delivery", "verify_sm_consistency", "verify_subnet"]


@dataclass
class VerificationReport:
    """Outcome of a subnet audit."""

    lids_checked: int = 0
    switches_checked: int = 0
    #: Hardware/SM divergences, one string per differing LFT cell.
    failures: List[str] = field(default_factory=list)
    #: Structured findings (delivery faults, CDG cycles, legality).
    findings: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff every check passed."""
        return not self.failures and not self.findings

    def problems(self) -> List[str]:
        """Every failure as a string — divergences plus rendered findings
        (``CDG001 [sw 3/leaf-1, lid 42] ...``, per-switch detail included)."""
        return self.failures + [f.render() for f in self.findings]

    def raise_if_failed(self) -> None:
        """Raise :class:`~repro.errors.StaticAnalysisError` listing the
        failures."""
        problems = self.problems()
        if problems:
            raise StaticAnalysisError(
                f"subnet verification failed ({len(problems)} problems):"
                f" {problems[:5]}"
            )


def _divergences(snap: FabricSnapshot, tables: RoutingTables) -> List[str]:
    """Cells where the hardware snapshot differs from the recorded tables,
    over every bound LID (a LID beyond the recorded width reads unset):
    one compare, masked to the bound columns."""
    hardware, recorded = snap.ports, tables.ports
    width = min(hardware.shape[1], recorded.shape[1])
    differ = hardware != LFT_UNSET
    differ[:, :width] = hardware[:, :width] != recorded[:, :width]
    bound = np.zeros(hardware.shape[1], dtype=bool)
    bound[snap.lids] = True
    rows, lids = np.nonzero(differ & bound)
    return [
        f"LID {lid} at {snap.name_of(s)}: hardware={hardware[s, lid]}"
        f" recorded={recorded[s, lid] if lid < width else LFT_UNSET}"
        for s, lid in zip(rows.tolist(), lids.tolist())
    ]


def _audit(sm: SubnetManager, *, delivery: bool, static: bool) -> VerificationReport:
    """One pass over one hardware snapshot; see the module docstring."""
    snap = FabricSnapshot.from_topology(sm.topology)
    report = VerificationReport(
        lids_checked=int(snap.lids.size), switches_checked=snap.num_switches
    )
    tables = sm.current_tables
    if tables is None:
        report.failures.append("SM has no recorded routing")
    else:
        report.failures.extend(_divergences(snap, tables))
    if static and tables is not None:
        # Reachability is the static pass's first check.
        report.findings.extend(analyze_subnet(sm, snapshot=snap).findings)
    elif delivery:
        report.findings.extend(check_reachability(snap))
    return report


def verify_delivery(topology: Topology) -> VerificationReport:
    """Every bound LID is deliverable from every switch of the hardware
    LFTs; faults are LFT001–LFT004 findings."""
    snap = FabricSnapshot.from_topology(topology)
    return VerificationReport(
        lids_checked=int(snap.lids.size),
        switches_checked=snap.num_switches,
        findings=check_reachability(snap),
    )


def verify_sm_consistency(
    sm: SubnetManager, *, static: bool = True
) -> VerificationReport:
    """Hardware LFTs must equal the SM's recorded routing for bound LIDs.

    With ``static=True`` (the default) the full
    :func:`~repro.analysis.static.analyze_subnet` pass also runs over the
    same hardware snapshot, attaching its findings to the report.
    """
    return _audit(sm, delivery=False, static=static)


def verify_subnet(sm: SubnetManager, *, static: bool = True) -> VerificationReport:
    """Full audit: delivery, SM/hardware consistency, static analysis.

    ``static=False`` keeps delivery and consistency and skips the CDG and
    legality rules.
    """
    return _audit(sm, delivery=True, static=static)
