"""What the command modules share: argument declarations, usage errors,
fault-plan parsing and cloud bring-up — each spelt once."""

from __future__ import annotations

import argparse
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Tuple, Type

#: VFs per hypervisor on every CLI-built cloud.
NUM_VFS = 4


class UsageError(Exception):
    """Bad command-line input: ``main`` prints it to stderr and exits 2."""


@contextmanager
def usage_errors(*kinds: Type[Exception]) -> Iterator[None]:
    """Any of *kinds* raised in the block is the user's mistake."""
    try:
        yield
    except kinds as exc:
        raise UsageError(str(exc)) from exc


def add_fabric_arguments(
    parser: argparse.ArgumentParser, *, scheme: str = "prepopulated"
) -> None:
    """``--profile`` and ``--scheme``: which cloud to bring up."""
    parser.add_argument("--profile", default="2l-small")
    parser.add_argument(
        "--scheme", choices=["prepopulated", "dynamic"], default=scheme
    )


def add_run_arguments(
    parser: argparse.ArgumentParser, *, steps: int, what: str
) -> None:
    """``--seed``, ``--steps`` and ``--retries`` of an engine run."""
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--steps", type=int, default=steps, help=f"{what} steps (default {steps})"
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=8,
        help="MAD retries per SMP (default 8)",
    )


def cloud_recipe(args: argparse.Namespace) -> Dict[str, object]:
    """The :func:`~repro.virt.cloud.build_cloud` recipe *args* selects."""
    return {
        "profile": args.profile,
        "scheme": args.scheme,
        "engine": "minhop",
        "num_vfs": NUM_VFS,
        "placement": "first-fit",
    }


def bring_up_cloud(recipe: Dict[str, object]) -> Any:
    """Build and bring up the cloud; an unknown profile is a usage error."""
    from repro.errors import ReproError
    from repro.virt.cloud import build_cloud

    with usage_errors(ReproError):
        return build_cloud(recipe)


def parse_fault_plan(spec: str, args: argparse.Namespace) -> Tuple[Any, Any]:
    """``(FaultPlan, RetryPolicy)`` of an engine command, or a usage error.

    SMP-level keys compose with every command; a fabric- or service-level
    key is honoured only by the command whose rule table has a rule for
    it, and rejected (not silently ignored) by the other.
    """
    from repro.errors import FaultInjectionError
    from repro.faults.plan import FaultPlan, spec_fields
    from repro.mad.reliable import RetryPolicy
    from repro.workloads.chaos import ChaosRunner
    from repro.workloads.engine import consumed_fields
    from repro.workloads.serve import ServiceChaosRunner

    with usage_errors(FaultInjectionError):
        plan = FaultPlan.from_spec(spec, seed=args.seed)
        policy = RetryPolicy(retries=args.retries)
    tables = {
        "chaos": consumed_fields(ChaosRunner.RULES),
        "serve": consumed_fields(ServiceChaosRunner.RULES),
    }
    for key, field in spec_fields(spec).items():
        for command, fields in tables.items():
            if command != args.command and field in fields:
                raise UsageError(
                    f"'repro {args.command}' has no rule for {key!r};"
                    f" 'repro {command}' honours it"
                )
    return plan, policy
