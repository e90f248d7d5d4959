"""Benchmark E8 — control-plane overhead under SMP loss.

Runs the same deterministic migration batch on the paper-324 structural
twin (``2l-small``) at drop rates 0, 0.01 and 0.1 with MAD retries
enabled, and measures what the loss costs: extra SMPs over the lossless
n'·m', retry backoff added to VM downtime, and wall-clock overhead of
the resilient send path. The headline assertion is the robustness
contract: at every drop rate the final forwarding state is byte-identical
to the fault-free run.

Results are written to ``BENCH_fault_overhead.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.fabric.presets import scaled_fattree
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.mad.reliable import RetryPolicy
from repro.virt.cloud import CloudManager

DROP_RATES = (0.0, 0.01, 0.1)
NUM_VMS = 8
NUM_MIGRATIONS = 8

#: {label: {metric: value}} accumulated across the module.
RESULTS = {}

_OUT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_fault_overhead.json",
)


def build_cloud():
    built = scaled_fattree("2l-small")
    cloud = CloudManager(
        built.topology, built=built, lid_scheme="prepopulated", num_vfs=4
    )
    cloud.adopt_all_hcas()
    cloud.bring_up_subnet()
    cloud.sm.enable_resilience(RetryPolicy(retries=16))
    for _ in range(NUM_VMS):
        cloud.boot_vm()
    return cloud


def lft_snapshot(cloud):
    return {
        sw.name: sw.topology.lft[sw.index].copy()
        for sw in cloud.topology.switches
    }


def run_at_drop_rate(drop):
    cloud = build_cloud()
    if drop:
        cloud.sm.transport.set_fault_injector(
            FaultInjector(FaultPlan(seed=17, smp_drop_rate=drop))
        )
    stats = cloud.sm.transport.stats
    before = stats.snapshot()
    downtime = 0.0
    t0 = time.perf_counter()
    outcomes = []
    for i in range(NUM_MIGRATIONS):
        vm = cloud.vms[f"vm{i % NUM_VMS + 1}"]
        dest = next(
            name
            for name in sorted(cloud.hypervisors, reverse=True)
            if name != vm.hypervisor_name
            and cloud.hypervisors[name].has_capacity()
        )
        report = cloud.live_migrate(vm.name, dest)
        outcomes.append(report.outcome)
        downtime += report.downtime_seconds
    wall = time.perf_counter() - t0
    delta = stats.delta_since(before)
    cloud.sm.transport.set_fault_injector(None)
    return {
        "cloud": cloud,
        "outcomes": outcomes,
        "lft_smps": delta.lft_update_smps,
        "retries": delta.retransmissions,
        "timeouts": delta.timeouts,
        "retry_wait_s": delta.retry_wait_seconds,
        "downtime_s": downtime,
        "wall_s": wall,
        "lfts": lft_snapshot(cloud),
    }


def test_fault_overhead_sweep(benchmark):
    baseline = None
    for drop in DROP_RATES:
        run = run_at_drop_rate(drop)
        label = f"drop-{drop}"
        assert all(o == "completed" for o in run["outcomes"])
        if drop == 0.0:
            baseline = run
            assert run["retries"] == 0
            assert run["retry_wait_s"] == 0.0
        else:
            # Robustness contract: loss costs retries, never a different
            # forwarding state.
            assert set(run["lfts"]) == set(baseline["lfts"])
            assert all(
                np.array_equal(run["lfts"][k], baseline["lfts"][k])
                for k in run["lfts"]
            )
            assert run["lft_smps"] >= baseline["lft_smps"]
        RESULTS[label] = {
            "drop_rate": drop,
            "migrations": NUM_MIGRATIONS,
            "lft_smps": run["lft_smps"],
            "smp_overhead_ratio": (
                run["lft_smps"] / baseline["lft_smps"]
                if baseline["lft_smps"]
                else 1.0
            ),
            "retries": run["retries"],
            "timeouts": run["timeouts"],
            "retry_wait_s": run["retry_wait_s"],
            "downtime_s": run["downtime_s"],
            "downtime_inflation": (
                run["retry_wait_s"] / run["downtime_s"]
                if run["downtime_s"]
                else 0.0
            ),
            "wall_s": run["wall_s"],
        }
    # Stable pytest-benchmark statistics on the lossless configuration.
    benchmark.pedantic(
        lambda: run_at_drop_rate(0.0), rounds=1, iterations=1
    )


def test_write_results(benchmark):
    """Persist the measurements (runs last: files sort after the others)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not RESULTS:
        pytest.skip("no measurements collected")
    with open(_OUT_PATH, "w") as fh:
        json.dump(RESULTS, fh, indent=2, sort_keys=True)
    print(f"\nwrote {_OUT_PATH}")
    for label, entry in RESULTS.items():
        print(
            f"  {label}: {entry['lft_smps']} LFT SMPs"
            f" ({entry['smp_overhead_ratio']:.2f}x),"
            f" {entry['retries']} retries,"
            f" retry wait {entry['retry_wait_s'] * 1e3:.2f}ms"
            f" ({entry['downtime_inflation']:.1%} of downtime)"
        )
