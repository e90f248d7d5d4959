"""The paper's claims as one executable register.

Every row of :data:`CLAIMS` is one statement of the paper (or of a
subsystem this reproduction adds on top of it), the code that observes
it, and what the observation must be. Seeded, count-based quantities —
Table I, ``n·m`` against ``n′·m′``, the SMP counts of a swap, a copy or a
boot — are pinned as exact values; a predicate stands in only where the
paper states an ordering or an equality between two observed numbers.

Rows come in two scales. ``small`` rows run on the scaled fat-tree twins
in well under a second each; ``tests/analysis/test_claims.py`` runs all
of them and ``repro claims`` prints them. ``paper`` rows (Fig. 7's
wall-clock shape) need the paper's own instances and run only under
``repro claims --paper-scale``, which also hands every evaluator
``paper_scale=True``: the measured Table I rows then count on the real
324-node fat-tree.

Wall-clock throughput (cold/warm/repair routing seconds, rewire and
service wall time, data-plane packets per second) is not a claim here:
the end-to-end benchmark under ``benchmarks/e2e/`` measures it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.cost_model import (
    PAPER_TABLE1_INPUTS,
    improvement_percent,
    lftd_time,
    paper_table1,
    table1_row,
    traditional_rc_time,
    vswitch_rc_time,
)
from repro.core.reconfig import VSwitchReconfigurer
from repro.fabric.builders.fattree import BuiltTopology
from repro.fabric.presets import paper_fattree, scaled_fattree
from repro.sm.subnet_manager import SubnetManager, path_computations
from repro.virt.cloud import CloudManager, build_cloud

__all__ = ["Claim", "CLAIMS"]


@dataclass(frozen=True)
class Claim:
    """One paper statement, how to observe it, and what it must read.

    ``expect`` is either the exact observed value or a predicate on it;
    ``scale`` is ``small`` (always run) or ``paper`` (``--paper-scale``
    only).
    """

    id: str
    section: str
    statement: str
    evaluate: Callable[[bool], object]
    expect: object
    scale: str = "small"

    def holds(self, observed: object) -> bool:
        if callable(self.expect):
            return bool(self.expect(observed))
        return observed == self.expect


# ---------------------------------------------------------------------------
# Shared set-ups


def _cloud(profile: str, scheme: str = "prepopulated", num_vfs: int = 4) -> CloudManager:
    return build_cloud({"profile": profile, "scheme": scheme, "num_vfs": num_vfs})


def _routed_sm(built: BuiltTopology, engine: str = "minhop") -> SubnetManager:
    sm = SubnetManager(built.topology, built=built, engine=engine)
    sm.initial_configure(with_discovery=False)
    return sm


def _lft_smps(cloud: CloudManager) -> int:
    return cloud.sm.transport.stats.lft_update_smps


def _boot_cycle_smps(cloud: CloudManager, cycles: int = 4) -> Tuple[int, ...]:
    """LFT SMPs of each boot when one VM alternates between the first and
    the last hypervisor (stopped before each re-boot), so a recycled LID
    needs real edits every time."""
    names = list(cloud.hypervisors)
    vm, out = None, []
    for i in range(cycles):
        if vm is not None:
            cloud.stop_vm(vm.name)
        before = _lft_smps(cloud)
        vm = cloud.boot_vm(on=names[0] if i % 2 == 0 else names[-1])
        out.append(_lft_smps(cloud) - before)
    return tuple(out)


def _migration(report) -> Tuple[int, int, int]:
    """(LFT SMPs, switches updated n′, most blocks on one switch m′)."""
    rc = report.reconfig
    return (rc.lft_smps, rc.switches_updated, rc.max_blocks_on_one_switch)


# ---------------------------------------------------------------------------
# Section I / IV — the motivation


def _shared_port(*, lid_swap: bool = False, use_cache: bool = False) -> Tuple[int, int]:
    """(connections broken, SA repair queries) after one Shared-Port
    migration of a VM with eight peers and one co-resident bystander."""
    from repro.virt.connections import ConnectionManager
    from repro.virt.shared_port_fleet import SharedPortFleet

    fleet = SharedPortFleet(scaled_fattree("2l-wide").topology, num_vfs=4)
    fleet.adopt_all_hcas()
    cm = ConnectionManager(fleet.sa, use_cache=use_cache)
    migrate = fleet.migrate_vm_with_lid_swap if lid_swap else fleet.migrate_vm
    broken = _motivation_run(fleet, cm, lambda vm: migrate(vm.name, "l11h5"))
    return broken, cm.repair()


def _motivation_run(fleet, cm, migrate) -> int:
    vm = fleet.boot_vm(on="l0h0")
    bystander = fleet.boot_vm(on="l0h0")
    peers = [fleet.boot_vm(on=f"l{i}h{i % 6}") for i in range(1, 9)]
    for peer in peers:
        cm.connect(peer.gid, vm.gid)
    cm.connect(peers[0].gid, bystander.gid)
    migrate(vm)
    return cm.audit().broken_count


def _sa_storm(paper_scale: bool) -> Dict[str, Tuple[int, int]]:
    return {
        "shared-port": _shared_port(),
        "shared-port+ref10-cache": _shared_port(use_cache=True),
    }


def _lid_swap_collateral(paper_scale: bool) -> Tuple[int, int]:
    return _shared_port(lid_swap=True)


def _vswitch_connections(paper_scale: bool) -> Tuple[int, int]:
    from repro.virt.connections import ConnectionManager

    cloud = _cloud("2l-wide")
    cm = ConnectionManager(cloud.sa)
    broken = _motivation_run(
        cloud, cm, lambda vm: cloud.live_migrate(vm.name, "l11h5")
    )
    return broken, cm.repair()


def _smp_reduction(paper_scale: bool) -> Tuple[int, int]:
    cloud = _cloud("2l-wide")
    vm = cloud.boot_vm(on="l1h0")
    migration = cloud.live_migrate(vm.name, "l10h3")
    return migration.reconfig.lft_smps, cloud.sm.full_reconfigure().lft_smps


def _lid_schemes(paper_scale: bool) -> Dict[str, Tuple[int, int, int]]:
    """(LIDs consumed, LFT cells path computation filled, bring-up LFT
    SMPs) per scheme on 2l-wide with 8 VFs per HCA."""
    out = {}
    for scheme in ("prepopulated", "dynamic"):
        cloud = _cloud("2l-wide", scheme, num_vfs=8)
        fill = cloud.sm.routing_state.stats.fill_cells
        out[scheme] = (cloud.sm.lids_consumed, fill, _lft_smps(cloud))
    return out


# ---------------------------------------------------------------------------
# Section V — the two LID schemes and Algorithm 1


def _boot_prepopulated(paper_scale: bool) -> Tuple[int, ...]:
    return _boot_cycle_smps(_cloud("2l-wide", num_vfs=8))


def _boot_dynamic(paper_scale: bool) -> Tuple[Tuple[int, ...], int]:
    cloud = _cloud("2l-wide", "dynamic", num_vfs=8)
    return _boot_cycle_smps(cloud), cloud.topology.num_switches


def _vf_overcommit(paper_scale: bool) -> Tuple[int, int, bool]:
    cloud = _cloud("2l-small", "dynamic", num_vfs=64)
    return (
        cloud.total_capacity,
        cloud.sm.lids_consumed,
        cloud.boot_vm().lid is not None,
    )


def _swap_migration(paper_scale: bool) -> Tuple[int, int, int]:
    cloud = _cloud("2l-wide")
    vm = cloud.boot_vm(on="l0h0")
    return _migration(cloud.live_migrate(vm.name, "l11h5"))


def _copy_migration(paper_scale: bool) -> Tuple[int, int, int]:
    cloud = _cloud("2l-wide", "dynamic")
    vm = cloud.boot_vm(on="l0h0")
    return _migration(cloud.live_migrate(vm.name, "l11h5"))


def _two_vm_lids(lid_a: Optional[int] = None, lid_b: Optional[int] = None):
    """A MinHop-routed 2l-small with one extra LID (next free, or the one
    given) on its first and one on its last HCA."""
    built = scaled_fattree("2l-small")
    topo = built.topology
    sm = SubnetManager(topo, built=built, engine="minhop")
    sm.assign_lids()
    lid_a = sm.lid_manager.assign_extra_lid(topo.hcas[0].port(1), lid=lid_a)
    lid_b = sm.lid_manager.assign_extra_lid(topo.hcas[-1].port(1), lid=lid_b)
    sm.compute_routing()
    sm.distribute()
    return sm, lid_a, lid_b


def _swap_worst_case(paper_scale: bool) -> Tuple[int, int]:
    """A cross-block swap (LIDs 60 and 70): ``m′ = 2`` on the switches it
    touches."""
    sm, lid_a, lid_b = _two_vm_lids(60, 70)
    report = VSwitchReconfigurer(sm).swap_lids(lid_a, lid_b)
    return report.lft_smps, report.max_blocks_on_one_switch


def _balance(scheme: str) -> Tuple[float, float]:
    """All-to-all max/mean link imbalance before and after 12 random
    migrations among 30 VMs on 2l-small (three VFs per HCA), measured
    over every VF LID (prepopulated) or over the live VMs (dynamic)."""
    from repro.sm.routing.base import RoutingRequest
    from repro.workloads.migration_patterns import ANY, MigrationPlanner
    from repro.workloads.traffic import all_to_all_flows, link_loads

    built = scaled_fattree("2l-small")
    cloud = CloudManager(built.topology, built=built, lid_scheme=scheme, num_vfs=3)
    cloud.adopt_all_hcas()
    cloud.bring_up_subnet()
    for _ in range(30):
        cloud.boot_vm()

    def imbalance() -> float:
        if scheme == "prepopulated":
            lids = [
                vf.lid
                for vsw in cloud.scheme.vswitches
                for vf in vsw.vfs
                if vf.lid is not None
            ]
        else:
            lids = [vm.lid for vm in cloud.vms.values()]
        request = RoutingRequest.from_topology(cloud.topology)
        loads = link_loads(cloud.sm.current_tables, request, all_to_all_flows(lids))
        return round(loads.imbalance, 6)

    before = imbalance()
    planner = MigrationPlanner(cloud, built, seed=3)
    for _ in range(12):
        cloud.live_migrate(*planner.plan_one(ANY))
    return before, imbalance()


def _swap_balance(paper_scale: bool) -> Tuple[float, float]:
    return _balance("prepopulated")


def _copy_balance(paper_scale: bool) -> Tuple[float, float]:
    return _balance("dynamic")


# ---------------------------------------------------------------------------
# Section VI — analysis

#: Transport constants ``k`` and ``r`` of section VI-A for the model rows.
K, R = 2.0e-6, 1.0e-6


def _rct_gap(paper_scale: bool) -> Tuple[float, ...]:
    """Full LFTD time (eq. 2, PCt = 0) over the worst vSwitch time (eq. 5,
    ``n′ = n``, ``m′ = 2``) on the four Table I fabrics."""
    out = []
    for nodes, switches in PAPER_TABLE1_INPUTS:
        m = table1_row(nodes, switches).min_lft_blocks_per_switch
        full = traditional_rc_time(0.0, switches, m, K, R)
        out.append(round(full / vswitch_rc_time(switches, 2, K), 6))
    return tuple(out)


def _destination_routing(paper_scale: bool) -> Tuple[int, int, float]:
    """(directed SMPs, destination-routed SMPs, serial time saved)."""
    sm, lid_a, lid_b = _two_vm_lids()
    directed = VSwitchReconfigurer(sm).swap_lids(lid_a, lid_b)
    routed = VSwitchReconfigurer(sm, destination_routed=True).swap_lids(lid_a, lid_b)
    saved = 1 - routed.serial_time / directed.serial_time
    return directed.lft_smps, routed.lft_smps, round(saved, 6)


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 6)


def _lftd_serial(paper_scale: bool) -> Tuple[float, float]:
    """Eq. (2) for n = 12, m = 3 against a window-1 DES replay, in µs."""
    from repro.sim.engine import replay_smp_pipeline

    return _us(lftd_time(12, 3, K, R)), _us(replay_smp_pipeline([K + R] * 36, 1))


def _pipelined_lftd(paper_scale: bool) -> Tuple[Tuple[float, ...], float, float]:
    """DES replays of 2l-wide's bring-up distribution at windows 1, 2, 4,
    8 and 16, then its serial sum and its slowest SMP, in µs."""
    from repro.obs import reset_hub
    from repro.sim.engine import replay_smp_pipeline

    flight = reset_hub().flight
    built = scaled_fattree("2l-wide")
    sm = SubnetManager(built.topology, built=built)
    sm.assign_lids()
    sm.compute_routing()
    report = sm.distribute()
    latencies = [e.latency for e in flight.lft_updates()[-report.smps_sent :]]
    if flight.dropped or len(latencies) != report.smps_sent:
        return (), 0.0, 0.0
    replays = tuple(_us(replay_smp_pipeline(latencies, w)) for w in (1, 2, 4, 8, 16))
    return replays, _us(sum(latencies)), _us(max(latencies))


def _transition_deadlock(paper_scale: bool) -> Dict[str, List[str]]:
    """Rules the old ∪ new union raises: an Up*/Down* swap on 2l-small and
    MinHop on a 3×3 torus (compared with itself)."""
    from repro.analysis.static import FabricSnapshot, check_transition_deadlock
    from repro.fabric.builders.generic import build_torus_2d
    from repro.sm.routing.base import RoutingRequest
    from repro.sm.routing.registry import create_engine

    def routed(built, engine):
        SubnetManager(built.topology, built=built, engine=engine).assign_lids()
        request = RoutingRequest.from_topology(built.topology, built=built)
        tables = create_engine(engine).compute(request)
        return FabricSnapshot.from_topology(built.topology, tables.ports, tables=tables), tables

    built = scaled_fattree("2l-small")
    old, tables = routed(built, "updn")
    a, b = old.terminal_lids[0], old.terminal_lids[-1]
    ports = tables.ports.copy()
    ports[:, [a, b]] = ports[:, [b, a]]
    new = FabricSnapshot.from_topology(built.topology, ports)
    torus, _ = routed(build_torus_2d(3, 3, 2), "minhop")
    return {
        "updn-swap": [f.rule for f in check_transition_deadlock(old, new)],
        "minhop-torus": [f.rule for f in check_transition_deadlock(torus, torus)],
    }


def _ib_timeouts(paper_scale: bool) -> Dict[str, Tuple[int, int, int]]:
    """(injected, delivered, HOQ-timeout drops) of 24 crossing flows on a
    6-switch ring with one credit per channel."""
    from repro.fabric.builders.generic import build_ring
    from repro.sim.dataplane import DataPlaneSimulator

    out = {}
    for engine in ("minhop", "updn"):
        built = build_ring(6, 1)
        _routed_sm(built, engine)
        lids = [h.lid for h in built.topology.hcas]
        sim = DataPlaneSimulator(
            built.topology, channel_credits=1, hop_time=1e-6, hoq_timeout=50e-6
        )
        sim.inject_flows([(lids[i], lids[(i + 3) % 6]) for i in range(6)] * 4)
        stats = sim.run()
        out[engine] = (stats.injected, stats.delivered, stats.dropped_timeout)
    return out


def _migration_under_traffic(paper_scale: bool) -> Tuple[Tuple[int, int, int], ...]:
    """(injected, delivered, timeouts) of four bursts, each racing a LID
    copy that moves a VM between two leaves and back."""
    from repro.sim.dataplane import DataPlaneSimulator

    built = scaled_fattree("2l-small")
    sm = _routed_sm(built)
    topo = built.topology
    src, homes = topo.hcas[0], [topo.hcas[-1], topo.hcas[-7]]
    vm_lid = sm.lid_manager.assign_extra_lid(homes[0].port(1))
    sm.compute_routing()
    sm.distribute()
    rec = VSwitchReconfigurer(sm)
    out = []
    for i in range(4):
        target = homes[(i + 1) % 2]
        sim = DataPlaneSimulator(topo, hop_time=1e-6)
        for p in range(16):
            sim.inject(src.lid, vm_lid, delay=p * 4e-6)

        def migrate(target=target):
            rec.copy_path(target.port(1).lid, vm_lid)
            sm.lid_manager.move_lid(vm_lid, target.port(1))

        sim.engine.schedule(30e-6, migrate)
        stats = sim.run()
        out.append((stats.injected, stats.delivered, stats.dropped_timeout))
    return tuple(out)


def _pod_cloud():
    """40 VMs on the 3-level twin with a seeded migration planner."""
    from repro.workloads.migration_patterns import MigrationPlanner

    built = scaled_fattree("3l-small")
    cloud = CloudManager(
        built.topology, built=built, lid_scheme="prepopulated", num_vfs=2
    )
    cloud.adopt_all_hcas()
    cloud.bring_up_subnet()
    planner = MigrationPlanner(cloud, built, seed=7)
    for _ in range(40):
        cloud.boot_vm()
    return cloud, planner


def _fig6_gradient(paper_scale: bool) -> Dict[str, float]:
    """Mean minimal update set of four planned migrations per distance."""
    from repro.core.skyline import minimal_update_set
    from repro.workloads.migration_patterns import INTER_POD, INTRA_LEAF, INTRA_POD

    cloud, planner = _pod_cloud()
    out = {}
    for klass in (INTRA_LEAF, INTRA_POD, INTER_POD):
        sizes = []
        for _ in range(4):
            vm_name, dest_name = planner.plan_one(klass)
            sizes.append(len(minimal_update_set(
                cloud.topology,
                cloud.vms[vm_name].lid,
                cloud.hypervisors[dest_name].uplink_port,
            )))
        out[klass] = sum(sizes) / len(sizes)
    return out


def _deterministic_vs_minimal(paper_scale: bool) -> Tuple[int, int]:
    from repro.core.skyline import minimal_update_set, swap_update_set
    from repro.workloads.migration_patterns import INTRA_POD

    cloud, planner = _pod_cloud()
    vm_name, dest_name = planner.plan_one(INTRA_POD)
    vm, dest = cloud.vms[vm_name], cloud.hypervisors[dest_name]
    return (
        len(swap_update_set(cloud.topology, vm.lid, dest.vswitch.first_free_vf().lid)),
        len(minimal_update_set(cloud.topology, vm.lid, dest.uplink_port)),
    )


def _intra_leaf(paper_scale: bool) -> Tuple[Tuple[int, int], ...]:
    """(switches updated, LFT SMPs) of three minimal intra-leaf moves."""
    from repro.workloads.migration_patterns import INTRA_LEAF

    cloud, planner = _pod_cloud()
    cloud.orchestrator.minimal_intra_leaf = True
    out = []
    for _ in range(3):
        report = cloud.live_migrate(*planner.plan_one(INTRA_LEAF))
        out.append((report.switches_updated, report.reconfig.lft_smps))
    return tuple(out)


# ---------------------------------------------------------------------------
# Section VII — Table I and Fig. 7

#: Table I exactly as printed: nodes -> (switches, LIDs, min blocks per
#: switch, min SMPs full RC, min SMPs vSwitch, max SMPs LID swap).
PAPER_TABLE1 = {
    324: (36, 360, 6, 216, 1, 72),
    648: (54, 702, 11, 594, 1, 108),
    5832: (972, 6804, 107, 104004, 1, 1944),
    11664: (1620, 13284, 208, 336960, 1, 3240),
}


def _table1(paper_scale: bool) -> Dict[int, Tuple[int, ...]]:
    return {
        r.nodes: (
            r.switches,
            r.lids,
            r.min_lft_blocks_per_switch,
            r.min_smps_full_reconfig,
            r.min_smps_vswitch,
            r.max_smps_swap,
        )
        for r in paper_table1()
    }


def _table1_constructed(paper_scale: bool) -> Dict[int, Tuple[int, int]]:
    out = {}
    for nodes in (324, 648):
        built = paper_fattree(nodes)
        sm = SubnetManager(built.topology, built=built)
        sm.assign_lids()
        out[nodes] = (built.topology.num_switches, sm.lids_consumed)
    return out


def _improvement(paper_scale: bool) -> Tuple[float, ...]:
    return tuple(
        round(improvement_percent(r.min_smps_full_reconfig, r.max_smps_swap), 2)
        for r in paper_table1()
    )


def _full_rc(paper_scale: bool) -> Dict[str, Tuple[int, int]]:
    """Counted SubnSet(LFT) of a forced full reconfiguration against n·m:
    a routed fabric (paper-324 at paper scale) and a prepopulated cloud
    whose VF LIDs widen every LFT."""
    built = paper_fattree(324) if paper_scale else scaled_fattree("2l-small")
    topo = built.topology
    sm = _routed_sm(built, "ftree")
    fabric = (
        sm.full_reconfigure().lft_smps,
        table1_row(topo.num_hcas, topo.num_switches).min_smps_full_reconfig,
    )
    cloud = _cloud("2l-wide")
    topo = cloud.topology
    vf_lids = 4 * topo.num_hcas
    return {
        "fabric": fabric,
        "cloud": (
            cloud.sm.full_reconfigure().lft_smps,
            table1_row(topo.num_hcas, topo.num_switches, extra_lids=vf_lids).min_smps_full_reconfig,
        ),
    }


def _best_case(paper_scale: bool) -> Tuple[int, int]:
    """(LFT SMPs, switches) of a swap limited to the leaf of two sibling
    hosts whose LIDs share a block and one lid-mod period."""
    built = paper_fattree(324) if paper_scale else scaled_fattree("2l-small")
    topo = built.topology
    sm = SubnetManager(topo, engine="ftree", built=built)
    sm.assign_lids()
    h_a, h_b = topo.hcas[0], topo.hcas[1]
    lid_a = sm.lid_manager.assign_extra_lid(h_a.port(1))
    lid_b = sm.lid_manager.assign_extra_lid(h_b.port(1), lid=lid_a + len(built.roots))
    if lid_a // 64 != lid_b // 64 or h_a.uplink_switch() is not h_b.uplink_switch():
        return (-1, -1)
    sm.compute_routing()
    sm.distribute()
    leaf = h_a.uplink_switch().index
    report = VSwitchReconfigurer(sm).swap_lids(lid_a, lid_b, limit_switches={leaf})
    return report.lft_smps, report.switches_updated


def _pct_zero(paper_scale: bool) -> Tuple[int, int]:
    """(Path computations, routing-cache work) summed over a swap and a
    copy migration."""
    computed, work = 0, 0
    for scheme in ("prepopulated", "dynamic"):
        cloud = _cloud("2l-wide", scheme)
        vm = cloud.boot_vm(on="l0h0")
        stats = cloud.sm.routing_state.stats
        before, started = stats.snapshot(), path_computations()
        cloud.live_migrate(vm.name, "l11h5")
        computed += path_computations() - started
        work += sum(stats.delta_since(before).values())
    return computed, work


def _fig7(paper_scale: bool) -> Dict[str, Dict[str, float]]:
    from repro.analysis.experiments import run_fig7

    return {
        str(s.num_nodes): dict(s.seconds_by_engine)
        for s in run_fig7(paper_scale=paper_scale)
    }


def _fig7_shape(observed: Dict[str, Dict[str, float]]) -> bool:
    """ftree ≤ 1.25·minhop and dfsssp > 1.2·minhop on every size, LASH
    the worst engine (> dfsssp, > 3·minhop) on the 3-level ones, every
    engine slower on the largest than on the smallest, and ftree and
    minhop under two minutes at 5832 nodes. (The vSwitch bar is the
    ``pct-zero`` row.)"""
    rows = list(observed.values())
    if len(rows) != 4:
        return False
    ok = all(
        t["ftree"] <= 1.25 * t["minhop"]
        and t["dfsssp"] > 1.2 * t["minhop"]
        for t in rows
    )
    ok &= all(t["lash"] > max(t["dfsssp"], 3 * t["minhop"]) for t in rows[2:])
    ok &= rows[2]["ftree"] < 120 and rows[2]["minhop"] < 120
    return ok and all(
        rows[-1][e] > rows[0][e] for e in ("ftree", "minhop", "dfsssp", "lash")
    )


# ---------------------------------------------------------------------------
# Subsystems beyond the paper: lossy SMPs, live rewiring, the tenant
# service, telemetry


def _fault_overhead(paper_scale: bool) -> Dict[str, object]:
    """Eight migrations among eight VMs on 2l-small at SMP drop rates 0,
    0.01 and 0.1 (16 retries): LFT-SMP ratio to the lossless run, every
    migration completed, the final LFTs identical to the lossless ones."""
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.mad.reliable import RetryPolicy

    runs = []
    for drop in (0.0, 0.01, 0.1):
        cloud = _cloud("2l-small")
        cloud.sm.enable_resilience(RetryPolicy(retries=16))
        for _ in range(8):
            cloud.boot_vm()
        if drop:
            cloud.sm.transport.set_fault_injector(
                FaultInjector(FaultPlan(seed=17, smp_drop_rate=drop))
            )
        before = _lft_smps(cloud)
        outcomes = set()
        for i in range(8):
            vm = cloud.vms[f"vm{i + 1}"]
            dest = next(
                name
                for name in sorted(cloud.hypervisors, reverse=True)
                if name != vm.hypervisor_name
                and cloud.hypervisors[name].has_capacity()
            )
            outcomes.add(cloud.live_migrate(vm.name, dest).outcome)
        runs.append((_lft_smps(cloud) - before, outcomes, cloud.topology.lft.tobytes()))
    base = runs[0]
    return {
        "smp_ratio": tuple(r[0] / base[0] for r in runs),
        "outcomes": sorted(set().union(*(r[1] for r in runs))),
        "same_lfts": all(r[2] == base[2] for r in runs),
    }


def _rewire(paper_scale: bool) -> Dict[str, Tuple[object, ...]]:
    """Per twin and mutation: (repair mode, sources repaired of n,
    incremental LFT SMPs, full-sweep LFT SMPs); plus whether both arms
    end byte-identical."""
    from repro.fabric.topology import TopologyMutation

    def mutations(built):
        out = []
        spines = [sw for sw in built.roots if next(sw.free_ports(), None)]
        if len(spines) >= 2:
            a, b = spines[:2]
            out.append(TopologyMutation(
                kind="add_link", a=a.name, port_a=next(a.free_ports()).num,
                b=b.name, port_b=next(b.free_ports()).num,
            ))
        leaf = next(sw for sw in built.topology.switches if sw.attached_hcas())
        up = next(p for p in leaf.connected_ports() if p.remote.node in built.roots)
        flap = dict(a=leaf.name, port_a=up.num, b=up.remote.node.name, port_b=up.remote.num)
        return out + [
            TopologyMutation(kind="remove_link", **flap),
            TopologyMutation(kind="restore_link", **flap),
        ]

    out: Dict[str, Tuple[object, ...]] = {}
    for profile in ("2l-small", "2l-wide"):
        inc_built, full_built = scaled_fattree(profile), scaled_fattree(profile)
        inc, full = _routed_sm(inc_built), _routed_sm(full_built)
        n = inc_built.topology.num_switches
        for mutation in mutations(inc_built):
            before = inc.transport.stats.lft_update_smps
            report = inc.handle_topology_change(mutation, verify=False)
            inc_smps = inc.transport.stats.lft_update_smps - before
            full.apply_topology_mutation(mutation)
            full.transport.invalidate_distances()
            full.routing_state._invalidate()
            out[f"{profile}/{mutation.kind}"] = (
                report.repair_mode,
                f"{report.sources_repaired}/{n}",
                inc_smps,
                full.full_reconfigure().lft_smps,
            )
        out[f"{profile}/identical"] = (
            inc.current_tables.ports.tobytes() == full.current_tables.ports.tobytes(),
        )
    return out


def _service(paper_scale: bool) -> Dict[str, Tuple[float, ...]]:
    """The tenant service on 2l-small (dynamic, batch 8, queue bound 64)
    under 2, 20 and 200 boot submissions per round for ten rounds:
    (completed, overload rejections, sweeps, requests per sweep, ideal
    over actual SMPs, peak queue depth, requests lost — unanswered,
    unaccounted or rejected without a retry-after)."""
    from repro.obs import reset_hub
    from repro.service import ControlPlaneService, TenantQuota

    out = {}
    for load in (1, 10, 100):
        reset_hub()
        service = ControlPlaneService(
            _cloud("2l-small", "dynamic"),
            batch_size=8,
            max_queue_depth=64,
            default_quota=TenantQuota(max_vms=10_000, max_vfs=10_000),
        )
        accepted, lost, serial = [], 0, 0
        for _ in range(10):
            for i in range(2 * load):
                tenant = ("t1", "t2", "t3")[i % 3]
                serial += 1
                response = service.submit(tenant, "boot", request_id=f"{tenant}/{serial}")
                if response.status == "accepted":
                    accepted.append(response.request_id)
                elif response.retry_after_s is None:
                    lost += 1
            service.pump()
        service.drain()
        lost += sum(service.response_for(rid) is None for rid in accepted)
        lost += service.pending_accounted()
        stats = service.stats
        out[f"{load}x"] = (
            stats.completed,
            stats.rejected_overload,
            stats.sweeps,
            round(stats.coalescing_ratio, 3),
            round(stats.smp_coalescing_ratio, 3),
            stats.peak_queue_depth,
            lost,
        )
    return out


def _telemetry(paper_scale: bool) -> Dict[str, Tuple[int, int, int]]:
    """Six PerfManager sweeps of 2l-small at MAD drop 0 and 0.01 (16
    retries): (sweep SMPs, retransmissions, missed GETs)."""
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.mad.reliable import RetryPolicy
    from repro.telemetry import PerfManager

    out = {}
    for drop in (0.0, 0.01):
        sm = _routed_sm(scaled_fattree("2l-small"))
        sm.enable_resilience(RetryPolicy(retries=16))
        if drop:
            sm.transport.set_fault_injector(
                FaultInjector(FaultPlan(seed=17, smp_drop_rate=drop))
            )
        perf = PerfManager(sm)
        reports = [perf.sweep() for _ in range(6)]
        out[str(drop)] = (
            sum(r.smps for r in reports),
            sum(r.retransmissions for r in reports),
            sum(len(r.missed) for r in reports),
        )
    return out


# ---------------------------------------------------------------------------
# The register


def _pairs_equal(observed: Dict[str, Tuple[int, int]]) -> bool:
    return all(a == b for a, b in observed.values())


CLAIMS: Tuple[Claim, ...] = (
    Claim(
        "sa-storm", "§I",
        "A Shared-Port migration breaks all 8 peer connections and costs SA"
        " PathRecord queries to repair; the ref-[10] cache bounds them",
        _sa_storm, {"shared-port": (8, 8), "shared-port+ref10-cache": (8, 8)},
    ),
    Claim(
        "smp-reduction", "§I",
        "A vSwitch migration sends a fraction of a full reconfiguration's"
        " LFT SMPs (migration, full RC on the prepopulated 2l-wide cloud)",
        _smp_reduction, (16, 108),
    ),
    Claim(
        "lid-swap-collateral", "§IV",
        "A Shared-Port LID swap keeps the migrating VM's peers but breaks its"
        " co-resident's connection (broken, repair queries)",
        _lid_swap_collateral, (1, 1),
    ),
    Claim(
        "vswitch-keeps-connections", "§IV",
        "Under the vSwitch a migration breaks no connection and needs no SA"
        " query (broken, repair queries)",
        _vswitch_connections, (0, 0),
    ),
    Claim(
        "lid-schemes", "§IV, §V-A/B",
        "More LIDs, more path computation and SMPs: prepopulation takes a"
        " LID per VF at bring-up (LIDs, LFT cells filled, SMPs; 8 VFs)",
        _lid_schemes,
        {"prepopulated": (666, 11988, 198), "dynamic": (90, 1620, 36)},
    ),
    Claim(
        "boot-prepopulated", "§V-A",
        "Booting a VM on a prepopulated VF sends no LFT SMP (four boots)",
        _boot_prepopulated, (0, 0, 0, 0),
    ),
    Claim(
        "boot-dynamic", "§V-B",
        "A dynamic boot sends at most one LFT SMP per switch (four boots,"
        " n)",
        _boot_dynamic, ((18, 18, 18, 18), 18),
    ),
    Claim(
        "vf-overcommit", "§V-B",
        "Dynamic assignment lets VFs outnumber LIDs (VF slots, LIDs"
        " consumed, a boot got a LID)",
        _vf_overcommit, (2304, 48, True),
    ),
    Claim(
        "swap-migration", "§V-C1",
        "A prepopulated migration swaps two LIDs: n′·m′ SMPs, two blocks"
        " where the LIDs straddle a block (SMPs, n′, m′)",
        _swap_migration, (36, 18, 2),
    ),
    Claim(
        "swap-worst-case", "Table I",
        "A cross-block swap costs the Max column, 2 SMPs on each of n"
        " switches (SMPs, m′; n = 12)",
        _swap_worst_case, (24, 2),
    ),
    Claim(
        "copy-migration", "§V-C2",
        "A dynamic migration copies one LID: at most one SMP per switch"
        " (SMPs, n′, m′)",
        _copy_migration, (18, 18, 1),
    ),
    Claim(
        "swap-keeps-balance", "§V-A",
        "Swapping keeps the initial routing's balance: all-to-all max/mean"
        " link load over every VF LID is unchanged by 12 migrations",
        _swap_balance, (1.0, 1.0),
    ),
    Claim(
        "copy-skews-balance", "§V-B",
        "Copying compromises balance: the live VMs' all-to-all imbalance"
        " grows over 12 migrations (before, after)",
        _copy_balance, (1.25, 3.435403),
    ),
    Claim(
        "rct-gap", "§VI-A",
        "Eqs. (1)-(5): full LFTD time over the worst vSwitch time widens with"
        " subnet size (324, 648, 5832, 11664 nodes)",
        _rct_gap, (4.5, 8.25, 80.25, 156.0),
    ),
    Claim(
        "destination-routing", "§VI-A",
        "Eq. (4) vs (5): destination routing keeps n′·m′ and drops the r"
        " term (directed SMPs, routed SMPs, serial time saved)",
        _destination_routing, (12, 12, 0.555556),
    ),
    Claim(
        "lftd-serial", "§VI-A",
        "Eq. (2): n·m·(k+r) equals a serial replay of n·m SMPs (µs)",
        _lftd_serial, (108.0, 108.0),
    ),
    Claim(
        "pipelined-lftd", "§VI-B",
        "Pipelined LFT updates finish between the slowest SMP and the serial"
        " sum (replays at windows 1-16, serial, slowest; µs)",
        _pipelined_lftd, ((41.4, 20.7, 10.8, 5.85, 3.15), 41.4, 1.35),
    ),
    Claim(
        "transition-deadlock", "§VI-C",
        "An Up*/Down* swap keeps old ∪ new acyclic; MinHop on a torus"
        " admits a transition cycle",
        _transition_deadlock, {"updn-swap": [], "minhop-torus": ["CDG002"]},
    ),
    Claim(
        "ib-timeouts", "§VI-C",
        "Credit deadlocks are resolved by IB timeouts; Up*/Down* delivers"
        " all (injected, delivered, HOQ drops on a 6-ring)",
        _ib_timeouts, {"minhop": (24, 6, 18), "updn": (24, 24, 0)},
    ),
    Claim(
        "migration-under-traffic", "§VI-C",
        "Packets racing a LID copy all arrive, at the old or the new"
        " location (injected, delivered, drops per burst)",
        _migration_under_traffic, ((16, 16, 0),) * 4,
    ),
    Claim(
        "fig6-gradient", "§VI-D",
        "The minimal update set grows with migration distance; intra-leaf is"
        " one switch (mean of four, 3-level twin)",
        _fig6_gradient, {"intra-leaf": 1.0, "intra-pod": 8.0, "inter-pod": 50.0},
    ),
    Claim(
        "deterministic-vs-minimal", "§VI-D",
        "The deterministic method may update more switches than the minimum"
        " (swap set, minimal set; intra-pod)",
        _deterministic_vs_minimal, (72, 8),
    ),
    Claim(
        "intra-leaf-one-switch", "§VI-D",
        "An intra-leaf migration updates only the leaf, at most 2 SMPs"
        " (switches, SMPs of three moves)",
        _intra_leaf, ((1, 1),) * 3,
    ),
    Claim(
        "table1", "Table I",
        "Every column of Table I from the node and switch counts alone",
        _table1, PAPER_TABLE1,
    ),
    Claim(
        "table1-constructed", "Table I",
        "The built 324- and 648-node fat-trees have Table I's switches and"
        " LIDs",
        _table1_constructed, {324: (36, 360), 648: (54, 702)},
    ),
    Claim(
        "improvement-quotes", "§VII",
        "Worst-case swap vs full RC saves 66.7 % at 324 nodes and 99.04 % at"
        " 11664 (all four sizes, %)",
        _improvement, (66.67, 81.82, 98.13, 99.04),
    ),
    Claim(
        "full-rc-nm", "Table I",
        "A full reconfiguration sends exactly n·m LFT SMPs (counted, n·m;"
        " a routed fabric and a VF-widened cloud)",
        _full_rc, _pairs_equal,
    ),
    Claim(
        "best-case-one-smp", "Table I",
        "The best-case migration is one SMP to one switch, whatever the"
        " subnet size",
        _best_case, (1, 1),
    ),
    Claim(
        "pct-zero", "Fig. 7",
        "A vSwitch migration computes no path: path computations and"
        " routing-cache work of a swap and a copy",
        _pct_zero, (0, 0),
    ),
    Claim(
        "fig7-shape", "Fig. 7",
        "Fig. 7's order: ftree ≤ 1.25·minhop, dfsssp > 1.2·minhop, LASH"
        " worst on 3 levels, all slower at 11664 than 324 (wall s)",
        _fig7, _fig7_shape, "paper",
    ),
    Claim(
        "fault-overhead", "beyond",
        "Lossy SMPs cost retries, never a different forwarding state (LFT"
        " SMP ratio at drop 0/0.01/0.1)",
        _fault_overhead,
        {"smp_ratio": (1.0, 1.00625, 1.09375), "outcomes": ["completed"], "same_lfts": True},
    ),
    Claim(
        "rewire-repair", "beyond",
        "A rewire repairs a strict subset of sources and sends no more SMPs"
        " than a full sweep, to identical tables",
        _rewire,
        {
            "2l-small/add_link": ("incremental", "2/12", 2, 12),
            "2l-small/remove_link": ("incremental", "2/12", 11, 12),
            "2l-small/restore_link": ("incremental", "2/12", 11, 12),
            "2l-small/identical": (True,),
            "2l-wide/remove_link": ("incremental", "2/18", 19, 36),
            "2l-wide/restore_link": ("incremental", "2/18", 19, 36),
            "2l-wide/identical": (True,),
        },
    ),
    Claim(
        "service-shedding", "beyond",
        "The service coalesces under load and sheds with a retry-after past"
        " its queue bound, losing no request",
        _service,
        {
            "1x": (20, 0, 10, 2.0, 1.818, 2, 0),
            "10x": (120, 80, 15, 8.0, 7.059, 48, 0),
            "100x": (120, 1880, 15, 8.0, 7.059, 48, 0),
        },
    ),
    Claim(
        "telemetry-loss", "beyond",
        "Sweep MADs inflate ≤ 10 % at 1 % loss and retries recover every"
        " GET (sweep SMPs, retransmissions, misses)",
        _telemetry, {"0.0": (288, 0, 0), "0.01": (291, 3, 0)},
    ),
)
