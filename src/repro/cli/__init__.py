"""Command-line interface: regenerate the paper's artifacts from a shell.

::

    python -m repro claims [--paper-scale] [--json]  # the paper's claims
    python -m repro fig7 [--paper-scale]  # path-computation sweep
    python -m repro migrate-demo          # end-to-end migration walkthrough
    python -m repro check-fabric          # static verification matrix
    python -m repro chaos [--inject SPEC] # churn under injected faults
    python -m repro serve [--chaos SPEC]  # the tenant service under kills
    python -m repro perf [--export F]     # telemetry sweep + dashboard export
    python -m repro top [--iterations N]  # hottest-links view
    python -m repro trace RUN             # replay a recorded run
    python -m repro metrics CMD [ARGS]    # run CMD, print the exposition

Each command is one module of this package exposing ``HELP``,
``add_arguments(parser)`` and ``run(args) -> int``, registered below;
``main`` parses and calls ``args.run(args)``. Every run command accepts
``--record DIR`` to persist the observability timeline (``trace.jsonl``)
and the metrics exposition (``metrics.prom`` + ``metrics.json``) for
later replay with ``repro trace DIR``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from types import ModuleType
from typing import Callable, Dict, List, Optional

from repro.cli import (
    chaos,
    check_fabric,
    claims,
    fig7,
    metrics,
    migrate_demo,
    perf,
    serve,
    top,
    trace,
)
from repro.cli._common import UsageError

__all__ = ["main", "build_parser", "RUN_COMMANDS"]

#: Commands that execute a run (and therefore reset the observability hub
#: and support ``--record``), by name ...
RUN_COMMANDS: Dict[str, ModuleType] = {
    "claims": claims,
    "fig7": fig7,
    "migrate-demo": migrate_demo,
    "check-fabric": check_fabric,
    "chaos": chaos,
    "serve": serve,
    "perf": perf,
    "top": top,
}
#: ... and the ones that inspect a recorded run.
INSPECT_COMMANDS: Dict[str, ModuleType] = {"trace": trace, "metrics": metrics}


def _recorded(run: Callable[[argparse.Namespace], int]):
    """A run command: fresh hub, run, then ``--record`` if asked."""

    def wrapper(args: argparse.Namespace) -> int:
        from repro.obs import export_run, get_hub, reset_hub

        reset_hub()
        rc = run(args)
        if args.record:
            hub = get_hub()
            out = Path(args.record)
            out.mkdir(parents=True, exist_ok=True)
            export_run(hub, out / "trace.jsonl")
            (out / "metrics.prom").write_text(
                hub.metrics.render_prometheus(), encoding="utf-8"
            )
            (out / "metrics.json").write_text(
                hub.metrics.dump_json() + "\n", encoding="utf-8"
            )
            print(f"recorded run -> {out}")
        return rc

    return wrapper


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Towards the InfiniBand SR-IOV vSwitch"
            " Architecture' (CLUSTER 2015)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, module in {**RUN_COMMANDS, **INSPECT_COMMANDS}.items():
        command = sub.add_parser(name, help=module.HELP)
        module.add_arguments(command)
        run = module.run
        if name in RUN_COMMANDS:
            command.add_argument(
                "--record",
                metavar="DIR",
                default=None,
                help=(
                    "write the run's observability timeline and metrics"
                    " exposition into DIR (replay with 'repro trace DIR')"
                ),
            )
            run = _recorded(run)
        command.set_defaults(run=run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
