"""Benchmark — operational events vs migrations.

Puts the paper's central comparison in operational context: what the SM
pays for the events that *legitimately* need reconfiguration (cable and
switch failures, SM failover) versus the near-free vSwitch migration.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import render_table
from repro.fabric.node import Switch
from repro.fabric.presets import scaled_fattree
from repro.sm.ha import HighAvailabilityManager, SmHaState
from repro.sm.subnet_manager import SubnetManager
from repro.virt.cloud import CloudManager


def fresh_sm():
    built = scaled_fattree("2l-wide")
    sm = SubnetManager(
        built.topology, built=built, engine="minhop", fallback_engine="minhop"
    )
    sm.initial_configure(with_discovery=False)
    return built, sm


def fresh_ha():
    built, sm = fresh_sm()
    ha = HighAvailabilityManager(sm)
    for i, hca in enumerate(built.topology.hcas[:3]):
        ha.register(hca.name, guid=i + 1, priority=1)
    ha.bootstrap()
    return built, ha


def test_handover_state_sharing(benchmark):
    """Standby takeover from a current replica: handshake + discovery only."""
    built, ha = fresh_ha()

    def takeover():
        old = ha.master
        ha.kill_master()
        report = ha.failover(old)
        # Revive the dead SM as a synced standby for the next round.
        old.alive = True
        old.state = SmHaState.STANDBY
        ha.transport.mark_sm_alive(old.node_name)
        ha.resync_standby(old.node_name)
        return report

    report = benchmark.pedantic(takeover, rounds=5, iterations=1)
    assert report.sweep_mode == "light"
    assert report.path_compute_seconds == 0.0
    assert report.lft_smps == 0


def test_handover_resweep(benchmark):
    """Naive restart-style takeover: pays PCt, distributes nothing new."""
    built, ha = fresh_ha()
    late_joiners = iter(built.topology.hcas[3:])

    def takeover():
        # The successor joined after the journal was seeded and never
        # received it: it must rediscover and recompute.
        ha.register(next(late_joiners).name, guid=99, priority=2)
        old = ha.master
        ha.kill_master()
        return ha.failover(old)

    report = benchmark.pedantic(takeover, rounds=3, iterations=1)
    assert report.sweep_mode == "heavy"
    assert report.path_compute_seconds > 0
    assert report.lft_smps == 0


def test_link_failure_reroute(benchmark):
    """Cable failure: the genuinely necessary recompute + diff."""
    built, sm = fresh_sm()
    topo = built.topology
    links = [
        l
        for l in topo.links
        if isinstance(l.a.node, Switch) and isinstance(l.b.node, Switch)
    ]
    state = {"i": 0}

    def fail_and_repair():
        link = links[state["i"] % len(links)]
        state["i"] += 1
        spec = (link.a.node, link.a.num, link.b.node, link.b.num)
        report = sm.handle_link_failure(link)
        # Repair for the next round.
        topo.connect(*spec)
        topo.invalidate_fabric_view()
        sm.transport.invalidate_distances()
        sm.compute_routing()
        sm.distribute()
        return report

    report = benchmark.pedantic(fail_and_repair, rounds=3, iterations=1)
    assert report.path_compute_seconds > 0
    assert report.lft_smps > 0


def test_operations_cost_comparison(benchmark):
    """The summary table: failures pay PCt, migrations never do."""
    built = scaled_fattree("2l-wide")
    cloud = CloudManager(
        built.topology, built=built, lid_scheme="prepopulated", num_vfs=4
    )
    cloud.adopt_all_hcas()
    cloud.bring_up_subnet()
    vm = cloud.boot_vm(on="l0h0")
    mig = benchmark.pedantic(
        lambda: cloud.live_migrate(
            vm.name, "l11h5" if vm.hypervisor_name != "l11h5" else "l0h0"
        ),
        rounds=2,
        iterations=1,
    )
    topo = cloud.topology
    link = next(
        l
        for l in topo.links
        if isinstance(l.a.node, Switch) and isinstance(l.b.node, Switch)
    )
    fail = cloud.sm.handle_link_failure(link)
    rows = [
        (
            "VM live migration",
            "0",
            mig.reconfig.lft_smps,
            f"{mig.reconfig.total_seconds_serial * 1e6:.1f}us",
        ),
        (
            "cable failure reroute",
            f"{fail.path_compute_seconds * 1e3:.1f}ms",
            fail.lft_smps,
            f"{fail.total_seconds_serial * 1e3:.1f}ms",
        ),
    ]
    print("\n=== operational reconfiguration costs ===")
    print(render_table(["event", "PCt", "LFT SMPs", "total"], rows))
    assert mig.reconfig.path_compute_seconds == 0.0
    assert fail.path_compute_seconds > 0
