"""Benchmark E5 — equations (1)-(5): analytic model vs event-level replay.

Sweeps the cost model across the paper's four subnet sizes and cross-checks
the analytic LFT-distribution time against the discrete-event pipeline
replay; ablates the directed-routing term ``r`` (equation (4) vs (5)) and
the SM pipelining window (section VI-B).
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import render_table
from repro.core.cost_model import (
    PAPER_TABLE1_INPUTS,
    lftd_time,
    table1_row,
    traditional_rc_time,
    vswitch_rc_time,
)
from repro.core.reconfig import VSwitchReconfigurer
from repro.fabric.presets import scaled_fattree
from repro.obs import reset_hub
from repro.sim.engine import replay_smp_pipeline
from repro.sm.subnet_manager import SubnetManager

#: Transport constants for the sweep (k and r of section VI-A).
K = 2.0e-6
R = 1.0e-6


def test_cost_model_sweep(benchmark):
    """RCt vs vSwitch_RCt across the paper's subnet sizes."""

    def sweep():
        rows = []
        for nodes, switches in PAPER_TABLE1_INPUTS:
            row = table1_row(nodes, switches)
            m = row.min_lft_blocks_per_switch
            rc = traditional_rc_time(0.0, switches, m, K, R)  # LFTD only
            vs_worst = vswitch_rc_time(switches, 2, K)
            vs_best = vswitch_rc_time(1, 1, K)
            rows.append((nodes, switches, m, rc, vs_worst, vs_best))
        return rows

    rows = benchmark(sweep)
    for nodes, switches, m, rc, vs_worst, vs_best in rows:
        assert vs_best < vs_worst < rc
    # The gap must widen with subnet size (the paper's scaling claim).
    ratios = [rc / vs_worst for _, _, _, rc, vs_worst, _ in rows]
    assert ratios == sorted(ratios)
    print("\n=== Reconfiguration time model (LFT distribution only) ===")
    print(
        render_table(
            ["nodes", "n", "m", "full RCt (s)", "vSwitch worst", "vSwitch best"],
            [
                (n, s, m, f"{rc:.4f}", f"{w:.6f}", f"{b:.6f}")
                for n, s, m, rc, w, b in rows
            ],
        )
    )


def test_equation5_destination_routing_ablation(benchmark):
    """Equation (4) vs (5): dropping the per-hop directed-routing term."""
    built = scaled_fattree("2l-small")
    topo = built.topology
    sm = SubnetManager(topo, built=built)
    sm.assign_lids()
    lid_a = sm.lid_manager.assign_extra_lid(topo.hcas[0].port(1))
    lid_b = sm.lid_manager.assign_extra_lid(topo.hcas[-1].port(1))
    sm.compute_routing()
    sm.distribute()
    rec_dir = VSwitchReconfigurer(sm, destination_routed=False)
    rec_dst = VSwitchReconfigurer(sm, destination_routed=True)

    def both():
        a = rec_dir.swap_lids(lid_a, lid_b)
        b = rec_dst.swap_lids(lid_a, lid_b)
        return a, b

    directed, destination = benchmark.pedantic(both, rounds=3, iterations=1)
    assert directed.lft_smps == destination.lft_smps
    assert destination.serial_time < directed.serial_time
    saved = 1 - destination.serial_time / directed.serial_time
    print(
        f"\ndirected={directed.serial_time * 1e6:.2f}us"
        f" destination-routed={destination.serial_time * 1e6:.2f}us"
        f" (r elimination saves {saved:.0%})"
    )


@pytest.mark.parametrize("window", [1, 2, 4, 8, 16])
def test_pipelining_ablation(benchmark, window):
    """Section VI-B: OpenSM pipelines LFT updates; DES replay vs analytic."""
    built = scaled_fattree("2l-wide")
    flight = reset_hub().flight
    sm = SubnetManager(built.topology, built=built)
    sm.assign_lids()
    sm.compute_routing()
    report = sm.distribute()
    # The flight ring keeps every SMP's latency (the replay's input); none
    # may have been evicted, or the list is not the whole distribution.
    assert flight.dropped == 0
    latencies = [e.latency for e in flight.lft_updates()[-report.smps_sent :]]
    assert len(latencies) == report.smps_sent

    result = benchmark(lambda: replay_smp_pipeline(latencies, window))
    # The DES replay obeys the analytic bounds of TransportStats.
    assert result <= sum(latencies) + 1e-12
    assert result >= max(latencies) - 1e-12
    if window == 1:
        assert result == pytest.approx(sum(latencies))


def test_analytic_vs_des_agreement(benchmark):
    """Uniform-latency case: n*m*(k+r) == DES serial replay exactly."""
    n, m = 12, 3
    lat = K + R
    latencies = [lat] * (n * m)
    analytic = lftd_time(n, m, K, R)
    des = benchmark(lambda: replay_smp_pipeline(latencies, 1))
    assert des == pytest.approx(analytic)
