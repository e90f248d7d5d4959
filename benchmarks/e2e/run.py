#!/usr/bin/env python3
"""End-to-end benchmark of the repro package: one command, four workloads.

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed N] [--quick]
                                                [--workload W] [--out FILE]
    python benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

The first form is the full report: every workload is repeated R times,
each repeat in a fresh child process, repeats interleaved round-robin
across workloads, then one traced repeat per workload; every metric is
printed by name with its unit and the envelope is written to ``--out``.
The last form is the BENCHMARK.json contract: one workload, the result
as one JSON line. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [path for path in (SRC, HERE) if path not in sys.path]

import metrics  # noqa: E402 - beside this file, after the path set-up
import stats  # noqa: E402
DEFAULT_SEED = 11
DEFAULT_OUT = os.path.join(HERE, "out", "latest.json")
#: A child that has not answered by then is killed (the contract's cap
#: on a whole run is 180 s).
CHILD_TIMEOUT_S = 170
#: Contract mode: one repeat per this many ``--seconds``, at least two.
SECONDS_PER_REPEAT = 10
#: Full mode repeats; the 30 s bring-up gets fewer.
FULL_REPEATS = {"fig7-bringup-5832": 3}
FULL_REPEATS_DEFAULT = 5


def _plans():
    """The plans module; importing it (like workloads) needs ``src/repro``."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"run.py: {SRC}/repro not found — nothing to benchmark")
    import plans

    return plans


# ---------------------------------------------------------------------------
# one repeat = one child process
# ---------------------------------------------------------------------------


def child_main(argv: List[str]) -> int:
    """``run.py _child --trace T --spawned-at T0``: plan on stdin, result
    as one JSON line on stdout."""
    parser = argparse.ArgumentParser(prog="run.py _child")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    plan = json.load(sys.stdin)
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    _plans()  # exits if there is no src/repro to import
    import workloads

    result = workloads.run_repeat(
        plan, traced=bool(args.trace), spawned_at=args.spawned_at, expected=expected
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def spawn_repeat(plan: Dict[str, Any], *, traced: bool) -> Dict[str, Any]:
    """Run one repeat of *plan* in a fresh interpreter and wait for it."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "_child",
        "--trace", str(int(traced)), "--spawned-at", repr(time.time()),
    ]
    done = subprocess.run(
        command, input=json.dumps(plan), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"repeat of {plan['workload']} exited with {done.returncode}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def calibrate() -> float:
    """Wall seconds of a fixed Python+numpy kernel: how fast is the host
    right now? Sampled between repeats; its spread qualifies the run."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += (i * i) % 7
    values = np.arange(200_000, dtype=np.float64)
    for _ in range(8):
        values = np.sqrt(values * values + 1.0)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# repeats -> metrics
# ---------------------------------------------------------------------------


def summarise(
    plan: Dict[str, Any],
    repeats: List[Dict[str, Any]],
    traced: Optional[Dict[str, Any]],
    calib: List[float],
) -> Dict[str, Any]:
    """Reduce the repeats of one workload to its metrics and verdict."""
    plans = _plans()
    first = repeats[0]
    ops = len(first["op_s"])
    wall = stats.wall_metrics([r["step_s"] for r in repeats], [r["op_s"] for r in repeats])
    every = repeats + ([traced] if traced else [])
    deterministic = all(
        r["exact"] == first["exact"] and r["op_kinds"] == first["op_kinds"] for r in every
    )
    failures = max((r["failed"] for r in every), key=len)
    failed = min(ops, len(failures) + (0 if deterministic else 1))
    totals = [sum(r["step_s"]) for r in repeats]
    exact = first["exact"]
    end_to_end = {
        "ops_per_s": wall["ops_per_s"],
        "op_p50_ms": wall["op_p50_ms"],
        "op_tail_ms": wall["op_tail_ms"],
        "failed_share": failed / ops,
        "setup_s": min(r["setup_s"] for r in repeats),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in repeats),
        "sim_smps_per_op": exact["smps"] / ops,
        "sim_lft_smps_per_op": exact["lft_smps"] / ops,
        "sim_s_per_op": exact["sim_s"] / ops,
    }
    source = traced or first
    per_layer = metrics.per_layer_values(source["counts"], source["trace"])
    per_layer["sim_lft_smps_per_op"] = end_to_end["sim_lft_smps_per_op"]
    traced_total = 0.0
    per_layer["bench.layer_sum_share"] = per_layer["bench.tracing_overhead_share"] = 0.0
    if traced:
        layers = traced["trace"]["layers"]
        traced_total = sum(row["self_s"] for row in layers.values())
        inside = traced_total - layers.get("bench", {}).get("self_s", 0.0)
        per_layer["bench.layer_sum_share"] = inside / traced_total
        per_layer["bench.tracing_overhead_share"] = (
            sum(traced["step_s"]) / wall["quiet_total_s"] - 1.0
        )
    per_layer["bench.calib_spread"] = stats.p90_over_p10(calib)
    per_layer["bench.rep_spread"] = max(totals) / min(totals)
    checks: Dict[str, bool] = {"deterministic_across_repeats": deterministic}
    for r in every:
        for name, ok in r["checks"].items():
            checks[name] = checks.get(name, True) and ok
    return {
        "why": plans.WORKLOADS[plan["workload"]],
        "scale": plan["scale"],
        "op_list_sha256": plans.plan_sha256(plan),
        "repeats": len(repeats),
        "attempted": ops,
        "failed": failed,
        "correct": failed == 0 and all(checks.values()),
        "end_to_end": end_to_end,
        "tail": {
            "percentile": wall["op_tail_percentile"],
            "samples_beyond": wall["op_tail_samples_beyond"],
            "samples": wall["op_samples"],
        },
        "per_layer": per_layer,
        "checks": checks,
        "failures": failures[:20],
        "exact": exact,
        "raw": {
            "repeat_totals_s": totals,
            "repeat_setup_s": [r["setup_s"] for r in repeats],
            "repeat_peak_rss_mb": [r["peak_rss_mb"] for r in repeats],
            "quiet_total_s": wall["quiet_total_s"],
            "traced_total_s": traced_total,
            "calib_s": calib,
        },
        "spans": traced["trace"]["spans"] if traced else [],
        "spans_dropped": traced["trace"]["spans_dropped"] if traced else 0,
    }


def measure(
    names: List[str], scale: str, seed: int, repeats: Dict[str, int], *, trace: bool
) -> Dict[str, Dict[str, Any]]:
    """Run *repeats[w]* untraced repeats of every workload, interleaved
    round-robin so one workload's repeats are far apart in time, then
    (with *trace*) one traced repeat each."""
    plan = {name: _plans().make_plan(name, scale, seed) for name in names}
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    calib = [calibrate()]
    for round_ in range(max(repeats.values())):
        for name in names:
            if round_ < repeats[name]:
                runs[name].append(spawn_repeat(plan[name], traced=False))
                calib.append(calibrate())
    traced = {name: spawn_repeat(plan[name], traced=True) if trace else None for name in names}
    return {name: summarise(plan[name], runs[name], traced[name], calib) for name in names}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _git(*args: str) -> str:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=20, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def write_envelope(
    path: str, results: Dict[str, Dict[str, Any]], *, seed: int, scale: str,
    load_start: List[float], started: float,
) -> Dict[str, Any]:
    """The one writer of the output file: environment, inputs, metrics,
    raw per-repeat numbers and the span dump, keys in stable order."""
    import numpy

    envelope = {
        "schema": 1,
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "wall_s": time.time() - started,
        "seed": seed,
        "scale": scale,
        "workloads": results,
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(envelope, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return envelope


def print_report(results: Dict[str, Dict[str, Any]]) -> None:
    """Every metric by name, with its unit."""
    for name, result in results.items():
        print(f"\n== {name}  [{result['scale']}, R={result['repeats']},"
              f" {result['attempted']} ops, plan {result['op_list_sha256'][:12]}]")
        tail = result["tail"]
        for metric, unit, _ in metrics.END_TO_END + metrics.ZERO_AT_BASELINE:
            note = ""
            if metric == "op_tail_ms":
                note = f"  ({tail['percentile']}, {tail['samples_beyond']} of {tail['samples']} beyond)"
            print(f"  {metric:<22}{result['end_to_end'][metric]:>16.6g} {unit}{note}")
        print("  -- per layer (idle rows omitted)")
        for metric, unit, _ in metrics.PER_LAYER:
            value = result["per_layer"][metric]
            if value:
                print(f"  {metric:<44}{value:>16.6g} {unit}")
        bad = [check for check, ok in result["checks"].items() if not ok]
        print(f"  checks: {len(result['checks']) - len(bad)} ok"
              + (f", FAILED: {', '.join(bad)}" if bad else ""))
        for failure in result["failures"]:
            print(f"    failed op {failure['op']} ({failure['kind']}): {failure['error']}")


def contract_line(result: Dict[str, Any], *, trace: bool) -> str:
    """The last stdout line the BENCHMARK.json contract asks for."""
    if trace:
        chosen = {m: (result["per_layer"][m], unit) for m, unit, _ in metrics.PER_LAYER}
    else:
        chosen = {m: (result["end_to_end"][m], unit) for m, unit, _ in metrics.END_TO_END}
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": value, "unit": unit} for m, (value, unit) in chosen.items()},
    })


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def compare_main(argv: List[str]) -> int:
    """``run.py compare A.json B.json``: B against A, metric by metric."""
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    with open(args.a, encoding="utf-8") as fh:
        a_doc = json.load(fh)
    with open(args.b, encoding="utf-8") as fh:
        b_doc = json.load(fh)
    verdicts = compare(a_doc, b_doc, bounds)
    bad = 0
    print(f"{'workload':<24}{'metric':<22}{'A':>14}{'B':>14}{'change':>9}  verdict")
    for row in verdicts:
        change = "" if row["change"] is None else f"{row['change']:+.1%}"
        print(f"{row['workload']:<24}{row['metric']:<22}{row['a']:>14.6g}{row['b']:>14.6g}"
              f"{change:>9}  {row['verdict']}")
        bad += row["verdict"] in ("worse", "changed", "missing")
    print(f"compare: {len(verdicts)} rows, {bad} failing")
    return 1 if bad else 0


def compare(
    a_doc: Dict[str, Any], b_doc: Dict[str, Any], bounds: Dict[str, float]
) -> List[Dict[str, Any]]:
    """One verdict per (workload, end-to-end metric).

    ``better | same | worse`` against the metric's bound; ``unresolved``
    when the move exceeds the bound but either run was noisier than the
    bound and their per-repeat totals overlap; ``changed`` when a metric
    that must repeat exactly (``sim_*``, ``failed_share``) differs;
    ``missing`` when B lacks a workload or measured another plan.
    """
    rows: List[Dict[str, Any]] = []
    for name, a in a_doc["workloads"].items():
        b = b_doc["workloads"].get(name)
        if b is None or a["op_list_sha256"] != b["op_list_sha256"]:
            rows.append({"workload": name, "metric": "op_list_sha256", "a": 0.0, "b": 0.0,
                         "change": None, "verdict": "missing"})
            continue
        a_lo, a_hi = min(a["raw"]["repeat_totals_s"]), max(a["raw"]["repeat_totals_s"])
        b_lo, b_hi = min(b["raw"]["repeat_totals_s"]), max(b["raw"]["repeat_totals_s"])
        overlap = a_lo <= b_hi and b_lo <= a_hi
        for metric, _, better in metrics.END_TO_END + metrics.ZERO_AT_BASELINE:
            va, vb = a["end_to_end"][metric], b["end_to_end"][metric]
            row = {"workload": name, "metric": metric, "a": va, "b": vb, "change": None}
            if metric in metrics.EXACT:
                row["verdict"] = "same" if va == vb else "changed"
            else:
                bound = bounds[metric]
                row["change"] = (vb - va) / va
                worse_by = row["change"] if better == "lower" else -row["change"]
                noise = max(
                    run["per_layer"][key] - 1.0
                    for run in (a, b) for key in ("bench.rep_spread", "bench.calib_spread")
                )
                if abs(worse_by) <= bound:
                    row["verdict"] = "same"
                elif noise > bound and overlap:
                    row["verdict"] = "unresolved"
                else:
                    row["verdict"] = "worse" if worse_by > 0 else "better"
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: List[str]) -> int:
    if argv[:1] == ["_child"]:
        return child_main(argv[1:])
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: R=1 on scaled fabrics; numbers are never compared")
    parser.add_argument("--out", help=f"envelope file (full mode default: {DEFAULT_OUT})")
    parser.add_argument("--seconds", type=int,
                        help="BENCHMARK.json contract mode: measure one workload for about"
                             " this long and print the result as one JSON line")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: 1 prints the per-layer metrics of a traced repeat")
    args = parser.parse_args(argv)
    names = list(_plans().WORKLOADS)
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        names = [args.workload]
    started = time.time()
    load_start = list(os.getloadavg())

    if args.seconds is not None:
        if len(names) != 1 or args.quick:
            parser.error("--seconds needs --workload and excludes --quick")
        count = 1 if args.trace else max(2, args.seconds // SECONDS_PER_REPEAT)
        results = measure(names, "driver", args.seed, {names[0]: count}, trace=bool(args.trace))
        if args.out:
            write_envelope(args.out, results, seed=args.seed, scale="driver",
                           load_start=load_start, started=started)
        result = results[names[0]]
        for failure in result["failures"]:
            print(f"failed op {failure['op']} ({failure['kind']}): {failure['error']}",
                  file=sys.stderr)
        print(contract_line(result, trace=bool(args.trace)))
        return 0

    scale = "quick" if args.quick else "full"
    repeats = {
        name: 1 if args.quick else FULL_REPEATS.get(name, FULL_REPEATS_DEFAULT) for name in names
    }
    results = measure(names, scale, args.seed, repeats, trace=True)
    out = args.out or DEFAULT_OUT
    write_envelope(out, results, seed=args.seed, scale=scale,
                   load_start=load_start, started=started)
    print_report(results)
    print(f"\nwrote {out} in {time.time() - started:.0f} s")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
