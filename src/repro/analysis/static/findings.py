"""Structured findings of the static fabric analyzer.

Every check in :mod:`repro.analysis.static.checks` returns a list of
:class:`Finding` objects — one per violated invariant, carrying a stable
rule identifier, the switch/LID it anchors to, and free-form detail. The
:class:`StaticAnalysisReport` aggregates them per run, renders them for
humans, merges them into the runtime
:class:`~repro.analysis.verification.VerificationReport`, and exposes
counts through the observability metrics registry.

Rule identifiers (see docs/STATIC_ANALYSIS.md for the full rationale):

========  ==============================================================
LFT001    forwarding loop: following the tables never leaves the fabric
LFT002    black hole: an unprogrammed entry drops traffic mid-path
LFT003    misdelivery: traffic exits the fabric at the wrong endpoint
LFT004    unreachable LID: no switch can deliver the LID at all
CDG001    channel-dependency cycle on a one-lane fabric: a deadlock
CDG002    transition CDG cycle on one lane: the old+new union admits one
UPDN001   down->up transition: an Up*/Down*-illegal hop sequence
DOR001    dimension-order violation: a Y-phase hop followed by an X hop
VSW001    vSwitch VF LID does not resolve to its hypervisor's PF port
VSW002    vSwitch PF LID disagrees with the uplink port's LID
SKY001    concurrent migrations with overlapping switch skylines
VLC001    per-VL channel-dependency cycle: a data lane admits a deadlock
          (CDG001 is its trivial-assignment case: every terminal on VL0)
VLC002    VL assignment inconsistent: nonexistent lane or dangling entry
VLC003    VL capacity violation: layer overflow or unassigned pair/LID
VLC004    per-VL transition CDG cycle: old+new union deadlocks on a lane
          (CDG002 when neither side exports an assignment)
META001   suppression notice: per-rule finding cap reached
========  ==============================================================

Every finding fails a report (:attr:`StaticAnalysisReport.ok`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

__all__ = ["Finding", "StaticAnalysisReport", "RULES"]

#: rule id -> one-line description (kept in sync with the module docstring).
RULES: Dict[str, str] = {
    "LFT001": "forwarding loop",
    "LFT002": "black hole (unprogrammed entry on a used path)",
    "LFT003": "misdelivery (wrong endpoint or off-fabric exit)",
    "LFT004": "unreachable LID (no switch delivers it)",
    "CDG001": "channel-dependency cycle (deadlock)",
    "CDG002": "transition channel-dependency cycle (deadlock)",
    "UPDN001": "Up*/Down* legality violation (down->up hop)",
    "DOR001": "dimension-order violation (Y hop before X hop)",
    "VSW001": "VF LID not bound to its hypervisor's PF port",
    "VSW002": "PF LID inconsistent with uplink port LID",
    "SKY001": "overlapping concurrent-migration skylines",
    "VLC001": "per-VL channel-dependency cycle (deadlock on a data lane)",
    "VLC002": "VL assignment inconsistent (nonexistent lane or dangling entry)",
    "VLC003": "VL capacity violation (layer overflow or unassigned pair)",
    "VLC004": "per-VL transition channel-dependency cycle (deadlock)",
    "META001": "per-rule finding cap reached; further findings suppressed",
}


@dataclass(frozen=True)
class Finding:
    """One violated invariant, anchored to fabric state."""

    rule: str
    message: str
    #: Dense index of the switch the violation anchors to (if any).
    switch: Optional[int] = None
    #: Human-readable switch name (if resolvable).
    switch_name: Optional[str] = None
    #: Destination LID involved (if any).
    lid: Optional[int] = None
    #: Free-form structured context (cycle channels, affected sources, ...).
    detail: Mapping[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        """One-line human rendering, e.g. ``CDG001 [sw 3/leaf-1, lid 42] ...``."""
        where = []
        if self.switch is not None:
            name = f"/{self.switch_name}" if self.switch_name else ""
            where.append(f"sw {self.switch}{name}")
        if self.lid is not None:
            where.append(f"lid {self.lid}")
        anchor = f" [{', '.join(where)}]" if where else ""
        return f"{self.rule}{anchor} {self.message}"


@dataclass
class StaticAnalysisReport:
    """Aggregated outcome of one static-analysis pass over a fabric."""

    fabric: str = "subnet"
    #: Check names that actually ran (in run order).
    checks_run: List[str] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    lids_analyzed: int = 0
    switches_analyzed: int = 0

    @property
    def ok(self) -> bool:
        """True iff every executed check held."""
        return not self.findings

    def findings_for(self, rule: str) -> List[Finding]:
        """All findings of one rule."""
        return [f for f in self.findings if f.rule == rule]

    def count_by_rule(self) -> Dict[str, int]:
        """rule id -> number of findings, sorted by rule id."""
        out: Dict[str, int] = {}
        for f in sorted(self.findings, key=lambda f: f.rule):
            out[f.rule] = out.get(f.rule, 0) + 1
        return out

    def extend(self, check: str, findings: List[Finding]) -> None:
        """Record one executed check and its findings."""
        self.checks_run.append(check)
        self.findings.extend(findings)

    def render(self, *, max_findings: int = 20) -> str:
        """Multi-line human summary."""
        head = (
            f"static analysis of {self.fabric!r}:"
            f" {self.switches_analyzed} switches,"
            f" {self.lids_analyzed} LIDs,"
            f" checks: {', '.join(self.checks_run) or 'none'}"
        )
        if self.ok:
            return f"{head}\n  OK — all invariants hold"
        lines = [head, f"  {len(self.findings)} finding(s):"]
        for f in self.findings[:max_findings]:
            lines.append(f"  - {f.render()}")
        if len(self.findings) > max_findings:
            lines.append(f"  ... and {len(self.findings) - max_findings} more")
        return "\n".join(lines)

    def failure_messages(self) -> List[str]:
        """Findings rendered as flat strings (VerificationReport format)."""
        return [f.render() for f in self.findings]

    def emit_metrics(self) -> None:
        """Publish finding counts to the process-wide metrics registry."""
        from repro.obs import get_hub

        metrics = get_hub().metrics
        metrics.counter("repro_static_checks_total").add(len(self.checks_run))
        for rule, count in self.count_by_rule().items():
            metrics.counter(
                "repro_static_findings_total", rule=rule
            ).add(count)
        metrics.gauge("repro_static_fabric_ok", fabric=self.fabric).set(
            1.0 if self.ok else 0.0
        )

    def raise_if_failed(self) -> None:
        """Raise :class:`~repro.errors.StaticAnalysisError` on findings."""
        if self.findings:
            from repro.errors import StaticAnalysisError

            shown = "; ".join(f.render() for f in self.findings[:5])
            raise StaticAnalysisError(
                f"static analysis found {len(self.findings)} violation(s):"
                f" {shown}"
            )
