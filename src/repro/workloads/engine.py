"""The run engine: one step loop, declared rule tables, one event bracket.

A runner (:mod:`repro.workloads.chaos`, :mod:`repro.workloads.serve`) is
collaborators, a report and an ordered **rule table**: each :class:`Rule`
says *when* it fires (:func:`at_step`, :func:`with_rate`, :func:`spread`,
:func:`every`, :data:`always`) and which handler performs it.
:meth:`StepRunner.run` is the only step loop: attach the injector, open
the root span, evaluate the table top to bottom once per step, detach,
finalize, audit, expose.

Order is behaviour: rows are evaluated lazily and in table order, so a
rate rule draws from ``fabric_rng`` exactly when the rows above it have
finished (and a zero rate draws nothing) — which is what lets a run
replay bit-identically from its seed. Rows also *declare* the
:class:`~repro.faults.plan.FaultPlan` fields they consume
(:func:`consumed_fields`), so a command can reject a knob its table has
no rule for instead of silently ignoring it.

Adding an action kind = one handler + one table row + one plan field.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace
from typing import (
    Any,
    Callable,
    FrozenSet,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.errors import DistributionError, TopologyError, TransportError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.mad.reliable import RetryPolicy
from repro.obs.hub import get_hub, span
from repro.workloads.reports import RunReport

__all__ = [
    "Rule",
    "StepRunner",
    "When",
    "always",
    "at_step",
    "consumed_fields",
    "every",
    "spread",
    "with_rate",
]

#: What a control-plane action raises when the (lossy) fabric beat its
#: retries — repairable by re-driving the distribution.
CONTROL_PLANE_ERRORS = (TransportError, DistributionError)


class When(NamedTuple):
    """A firing condition: ``fires(run, step)`` -> firings this step."""

    fires: Callable[[Any, int], int]
    #: The ``FaultPlan`` fields the condition reads.
    fields: Tuple[str, ...] = ()


def at_step(field: str, *, after: Optional[str] = None) -> When:
    """Once, at step ``plan.<field>`` (plus ``plan.<after>``); never
    while the field is None."""

    def fires(run: Any, step: int) -> bool:
        at = getattr(run.plan, field)
        if at is not None and after:
            at += getattr(run.plan, after)
        return at == step

    return When(fires, (field, after) if after else (field,))


def with_rate(field: str) -> When:
    """With per-step probability ``plan.<field>``, drawn from the
    injector's ``fabric_rng``; a zero rate draws nothing."""

    def fires(run: Any, step: int) -> bool:
        rate = getattr(run.plan, field)
        return bool(rate) and run.injector.fabric_rng.random() < rate

    return When(fires, (field,))


def spread(field: str) -> When:
    """``plan.<field>`` firings in total, spread evenly over the run (a
    deterministic schedule; only the handler's choices use an RNG)."""

    def fires(run: Any, step: int) -> int:
        ops, last = getattr(run.plan, field), max(run.steps - 1, 0)
        return sum(
            min(int((i + 1) * run.steps / (ops + 1)), last) == step
            for i in range(ops)
        )

    return When(fires, (field,))


def every(attr: str) -> When:
    """Every ``run.<attr>`` steps, starting at step 0; 0 means never."""

    def fires(run: Any, step: int) -> bool:
        interval = getattr(run, attr)
        return bool(interval) and step % interval == 0

    return When(fires)


#: Every step.
always = When(lambda run, step: True)


class Rule(NamedTuple):
    """One rule-table row."""

    when: When
    handler: Callable[[Any, int], None]
    #: Plan fields the *handler* reads beyond the ones ``when`` names.
    reads: Tuple[str, ...] = ()


def consumed_fields(rules: Iterable[Rule]) -> FrozenSet[str]:
    """Every ``FaultPlan`` field a rule table has a rule for."""
    return frozenset(
        name for rule in rules for name in (*rule.when.fields, *rule.reads)
    )


class StepRunner:
    """Collaborators every run needs, the step loop, the event bracket.

    Subclasses name a rule table (``RULES``), a root span (``SPAN``) and
    a report class (``REPORT``) and fill the report in :meth:`_finalize`;
    handlers reach it through ``self.report``.
    """

    RULES: Tuple[Rule, ...] = ()
    SPAN = ""
    REPORT: type = RunReport

    def __init__(
        self,
        cloud: Any,
        plan: FaultPlan,
        *,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.cloud = cloud
        self.sm = cloud.sm
        self.plan = plan
        self.injector = FaultInjector(plan)
        # MAD retries + read-back-verified, complete-or-rollback LFT writes.
        self.sm.enable_resilience(retry_policy)
        self.steps = 0
        self.report: Any = None

    def run(self, steps: int) -> Any:
        """Perform *steps* steps of the rule table, then audit the subnet."""
        self.steps = steps
        report = self.report = self._new_report(steps)
        transport = self.sm.transport
        if self.plan.injects_smp_faults:
            transport.set_fault_injector(self.injector)
        before = transport.stats.snapshot()
        try:
            with span(self.SPAN, steps=steps, plan=self.plan.describe()):
                for step in range(steps):
                    for rule in self.RULES:
                        for _ in range(rule.when.fires(self, step)):
                            rule.handler(self, step)
                self._wind_down()
        finally:
            transport.set_fault_injector(None)
        self._finalize(transport.stats.delta_since(before))
        # The pass criterion: the forwarding state verifies exact.
        from repro.analysis.verification import verify_subnet

        report.verification_failures = verify_subnet(self.sm).problems()
        report.verified = True
        metrics = get_hub().metrics
        for name, value in report.gauges().items():
            metrics.gauge(name).set(value)
        return report

    def _new_report(self, steps: int) -> Any:
        return self.REPORT(steps=steps, plan=self.plan.describe())

    def _wind_down(self) -> None:
        """After the last step, still inside the root span."""

    def _finalize(self, delta: Any) -> None:
        """Fold the run's transport *delta* and ledgers into the report."""

    # -- the event bracket -----------------------------------------------------

    @contextmanager
    def event(
        self,
        name: str,
        /,
        *,
        books: Optional[str] = None,
        refuses: Optional[str] = None,
        label: Optional[str] = None,
        labels: Optional[dict] = None,
        **attrs: Any,
    ) -> Iterator[SimpleNamespace]:
        """Bracket one injected event in span *name* and book its outcome.

        A ``TopologyError`` out of the block means the SM refused the
        event (it would have partitioned the fabric; nothing was
        touched): the span is marked ``refused`` and the report's
        *refuses* counter bumped. A transport/distribution failure is
        logged under *label* and repaired (:meth:`repair`); the event
        still counts as performed. A performed event bumps the report's
        *books* counter and ``repro_chaos_<books>_total`` (with
        *labels*), and its LFT SMPs go to ``reroute_smps`` — the
        legitimate heavy reconfigurations, kept apart from the migration
        ledger. Yields ``ev`` with ``ev.span``, ``ev.refused`` (the
        refusing error or None) and, once the block exits, ``ev.delta``
        (transport stats over the bracket).
        """
        ev = SimpleNamespace(span=None, refused=None, delta=None)
        stats = self.sm.transport.stats
        before = stats.snapshot()
        with span(name, **attrs) as ev.span:
            try:
                yield ev
            except TopologyError as exc:
                ev.span.set_attribute("refused", True)
                ev.refused = exc
            except CONTROL_PLANE_ERRORS as exc:
                self.repair(
                    exc, label or name.replace("_", " "), f"{name} repair"
                )
        ev.delta = stats.delta_since(before)
        report = self.report
        if ev.refused is not None:
            if refuses:
                setattr(report, refuses, getattr(report, refuses) + 1)
        elif books:
            setattr(report, books, getattr(report, books) + 1)
            report.reroute_smps += ev.delta.lft_update_smps
            get_hub().metrics.counter(
                f"repro_chaos_{books}_total", **(labels or {})
            ).add(1)

    def recover(
        self, action: Callable[[], Any], *, label: str = "reconfiguration"
    ) -> None:
        """Run one control-plane action; on failure re-drive distribution.

        A transactional distribution that exhausts its retries rolls the
        switches back but leaves the SM's *intent* (the computed tables)
        standing, so simply re-distributing is the correct repair. Two
        repair attempts, then the error lands in the report and the final
        audit decides whether the fabric actually diverged.
        """
        try:
            action()
            return
        except CONTROL_PLANE_ERRORS as exc:
            last = exc
        for _ in range(2):
            try:
                self.sm.distribute()
                return
            except CONTROL_PLANE_ERRORS as exc:
                last = exc
        self.report.control_plane_errors.append(f"{label}: {last}")

    def repair(
        self, exc: Exception, label: str, repair_label: str = "reconfiguration"
    ) -> None:
        """A reconfiguration died half-way: log it, re-drive distribution."""
        self.report.control_plane_errors.append(f"{label}: {exc}")
        self.recover(self.sm.distribute, label=repair_label)
