"""Fault plans: the declarative half of the fault-injection layer.

A :class:`FaultPlan` says *what* should go wrong; the
:class:`~repro.faults.injector.FaultInjector` decides *when*, using RNG
streams derived from the plan's seed. Plans are plain data — hashable
enough to log, compare and rebuild — and can be parsed from the compact
``key=value[,key=value...]`` syntax the ``repro chaos`` CLI accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import FaultInjectionError

__all__ = ["ScriptedFault", "FaultPlan", "spec_fields"]

#: ``--inject`` spec keys understood by :meth:`FaultPlan.from_spec`.
_SPEC_KEYS = {
    "smp-drop": "smp_drop_rate",
    "smp-corrupt": "smp_corrupt_rate",
    "smp-delay": "smp_delay_rate",
    "link-flap": "link_flap_rate",
    "switch-fail": "switch_failure_rate",
}

#: Integer-valued ``--inject`` keys (steps and counts, not rates).
_INT_SPEC_KEYS = {
    "sm-death": "sm_death_step",
    "partition": "partition_step",
    "heal-after": "partition_heal_steps",
    "flap-storm": "link_flap_storm_step",
    "storm-size": "link_flap_storm_size",
    "rewire": "rewire_ops",
    "kill-service": "service_kill_step",
    "tenant-storm": "tenant_storm_step",
    "storm-factor": "tenant_storm_factor",
}


def _spec_items(spec: str) -> Iterator[Tuple[str, str]]:
    """The ``(key, value)`` pairs of a ``key=value[,key=value...]`` spec."""
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise FaultInjectionError(
                f"bad --inject item {item!r} (expected key=value)"
            )
        key, _, value = item.partition("=")
        yield key.strip(), value


def spec_fields(spec: str) -> Dict[str, str]:
    """``{key: FaultPlan field}`` for every known key *spec* names."""
    known = {**_SPEC_KEYS, **_INT_SPEC_KEYS}
    return {key: known[key] for key, _ in _spec_items(spec) if key in known}


@dataclass(frozen=True)
class ScriptedFault:
    """One precisely aimed fault, fired at a hook point or a sim time.

    ``nth`` counts *matching* SMPs (1-based): a rule with
    ``target="switch7", kind="lft_block", nth=3`` drops exactly the third
    LFT-block SMP addressed to switch7. ``at_time`` instead arms the rule
    from the given sim time onward (first match fires it). Each rule fires
    ``count`` times, then disarms.
    """

    action: str = "drop"  # drop | corrupt | delay
    target: Optional[str] = None  # node name; None matches any target
    kind: Optional[str] = None  # SmpKind name, lower-case; None = any
    nth: int = 1
    at_time: Optional[float] = None
    count: int = 1
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ("drop", "corrupt", "delay"):
            raise FaultInjectionError(
                f"unknown scripted action {self.action!r}"
            )
        if self.nth < 1:
            raise FaultInjectionError("nth is 1-based and must be >= 1")
        if self.count < 1:
            raise FaultInjectionError("count must be >= 1")
        if self.action == "delay" and self.delay_seconds <= 0:
            raise FaultInjectionError("delay faults need delay_seconds > 0")


def _check_rate(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise FaultInjectionError(f"{name} must be in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class FaultPlan:
    """Everything a chaos run injects, fully determined by ``seed``.

    SMP-level probabilities apply per send; ``per_target_drop`` overrides
    the global drop rate for named nodes (a "lossy link" to one switch).
    The fabric-level knobs (``link_flap_rate``, ``switch_failure_rate``,
    ``sm_death_step``) are consumed by the chaos runner, which draws from
    the injector's dedicated fabric RNG stream so SMP fault decisions and
    fabric events never perturb each other's sequences.
    """

    seed: int = 0
    smp_drop_rate: float = 0.0
    smp_corrupt_rate: float = 0.0
    smp_delay_rate: float = 0.0
    smp_delay_seconds: float = 1e-3
    per_target_drop: Dict[str, float] = field(default_factory=dict)
    scripted: Tuple[ScriptedFault, ...] = ()
    #: Probability that one chaos step flaps a random non-partitioning
    #: inter-switch link (down, reroute, back up, reroute).
    link_flap_rate: float = 0.0
    #: Probability that one chaos step kills a random spine switch.
    switch_failure_rate: float = 0.0
    #: Chaos step (0-based) at which the master SM dies mid-run; the
    #: standby must take over and complete any pending distribution.
    sm_death_step: Optional[int] = None
    #: Chaos step at which the master SM is partitioned from the rest of
    #: the management plane: SMInfo SMPs to/from it are dropped (its node
    #: firmware still answers PortInfo/NodeInfo — the management
    #: *process* is unreachable, the cable is not cut).
    partition_step: Optional[int] = None
    #: Steps the partition lasts before healing. At the heal the old
    #: master re-emerges and tries to act; the generation fence must
    #: reject its writes and demote it.
    partition_heal_steps: int = 4
    #: Chaos step at which one link flaps repeatedly in a burst — the
    #: trap pipeline must coalesce and throttle instead of paying one
    #: reroute per flap.
    link_flap_storm_step: Optional[int] = None
    #: Down/up cycles in the storm burst.
    link_flap_storm_size: int = 6
    #: Live topology mutations to spread evenly over the run (the chaos
    #: ``rewire`` knob): each picks an add/remove/restore link-or-switch
    #: mutation from the fabric RNG stream, drives it through
    #: ``SubnetManager.handle_topology_change`` and audits convergence.
    rewire_ops: int = 0
    #: Chaos step (0-based) at which the control-plane worker is killed
    #: mid-sweep (``ServiceKilled`` at the next journal append) and then
    #: warm-recovered from its intent journal. The run must end with an
    #: audit-clean cloud and every submission accounted for.
    service_kill_step: Optional[int] = None
    #: Chaos step at which every tenant bursts ``tenant_storm_factor``×
    #: its usual request count at once — the admission-control stress:
    #: the service must shed with retry-after, never drop silently.
    tenant_storm_step: Optional[int] = None
    #: Multiplier applied to per-step submissions during the storm.
    tenant_storm_factor: int = 10

    def __post_init__(self) -> None:
        _check_rate("smp_drop_rate", self.smp_drop_rate)
        _check_rate("smp_corrupt_rate", self.smp_corrupt_rate)
        _check_rate("smp_delay_rate", self.smp_delay_rate)
        _check_rate("link_flap_rate", self.link_flap_rate)
        _check_rate("switch_failure_rate", self.switch_failure_rate)
        if self.smp_delay_seconds < 0:
            raise FaultInjectionError("smp_delay_seconds must be >= 0")
        if self.partition_heal_steps < 1:
            raise FaultInjectionError("partition_heal_steps must be >= 1")
        if self.link_flap_storm_size < 1:
            raise FaultInjectionError("link_flap_storm_size must be >= 1")
        if self.rewire_ops < 0:
            raise FaultInjectionError("rewire_ops must be >= 0")
        if self.tenant_storm_factor < 1:
            raise FaultInjectionError("tenant_storm_factor must be >= 1")
        for name, rate in self.per_target_drop.items():
            _check_rate(f"per_target_drop[{name!r}]", rate)
        if isinstance(self.scripted, list):  # tolerate list literals
            object.__setattr__(self, "scripted", tuple(self.scripted))

    @property
    def injects_smp_faults(self) -> bool:
        """True iff any SMP-level fault can ever fire.

        A partition counts: isolation is enforced inside the injector
        (deterministic SMInfo drops), so the transport needs it attached.
        """
        return bool(
            self.smp_drop_rate
            or self.smp_corrupt_rate
            or self.smp_delay_rate
            or self.per_target_drop
            or self.scripted
            or self.partition_step is not None
        )

    @classmethod
    def from_spec(cls, spec: str, *, seed: int = 0, **extra) -> "FaultPlan":
        """Parse ``smp-drop=0.1,smp-corrupt=0.01,sm-death=5`` into a plan."""
        kwargs: Dict[str, object] = dict(extra)
        for key, value in _spec_items(spec):
            if key in _INT_SPEC_KEYS:
                try:
                    kwargs[_INT_SPEC_KEYS[key]] = int(value)
                except ValueError:
                    raise FaultInjectionError(
                        f"--inject {key} needs an integer, got {value!r}"
                    ) from None
                continue
            if key not in _SPEC_KEYS:
                raise FaultInjectionError(
                    f"unknown --inject key {key!r};"
                    f" choose {sorted(_SPEC_KEYS)} or"
                    f" {sorted(_INT_SPEC_KEYS)}"
                )
            try:
                kwargs[_SPEC_KEYS[key]] = float(value)
            except ValueError:
                raise FaultInjectionError(
                    f"--inject {key} needs a number, got {value!r}"
                ) from None
        return cls(seed=seed, **kwargs)  # type: ignore[arg-type]

    def describe(self) -> str:
        """One-line human summary (used by the chaos CLI banner)."""
        parts: List[str] = [f"seed={self.seed}"]
        for attr, label in (
            ("smp_drop_rate", "drop"),
            ("smp_corrupt_rate", "corrupt"),
            ("smp_delay_rate", "delay"),
            ("link_flap_rate", "link-flap"),
            ("switch_failure_rate", "switch-fail"),
        ):
            value = getattr(self, attr)
            if value:
                parts.append(f"{label}={value}")
        if self.per_target_drop:
            parts.append(f"targeted={len(self.per_target_drop)}")
        if self.scripted:
            parts.append(f"scripted={len(self.scripted)}")
        if self.sm_death_step is not None:
            parts.append(f"sm-death@{self.sm_death_step}")
        if self.partition_step is not None:
            parts.append(
                f"partition@{self.partition_step}"
                f"+{self.partition_heal_steps}"
            )
        if self.link_flap_storm_step is not None:
            parts.append(
                f"flap-storm@{self.link_flap_storm_step}"
                f"x{self.link_flap_storm_size}"
            )
        if self.rewire_ops:
            parts.append(f"rewire={self.rewire_ops}")
        if self.service_kill_step is not None:
            parts.append(f"kill-service@{self.service_kill_step}")
        if self.tenant_storm_step is not None:
            parts.append(
                f"tenant-storm@{self.tenant_storm_step}"
                f"x{self.tenant_storm_factor}"
            )
        return " ".join(parts)
