"""Benchmark E8 — section VI-C: deadlock analysis of reconfiguration
transitions.

Times the channel-dependency-graph machinery and quantifies the paper's
observation: LID swapping may transiently admit dependency cycles (left to
IB timeouts), while up/down-constrained routings keep even the transition
union acyclic.
"""

from __future__ import annotations

from repro.analysis.static import (
    FabricSnapshot,
    check_deadlock_freedom,
    check_transition_deadlock,
    lane_dependencies,
)
from repro.fabric.builders.generic import build_ring, build_torus_2d
from repro.fabric.presets import scaled_fattree
from repro.sm.routing.base import RoutingRequest
from repro.sm.routing.registry import create_engine
from repro.sm.subnet_manager import SubnetManager


def routed(built, engine):
    sm = SubnetManager(built.topology, built=built, engine=engine)
    sm.assign_lids()
    req = RoutingRequest.from_topology(built.topology, built=built)
    tables = create_engine(engine).compute(req)
    snap = FabricSnapshot.from_topology(built.topology, tables.ports, vl=tables.vl)
    return snap, tables


def test_dependency_extraction(benchmark):
    """Cost of building the CDG for a routed fat-tree."""
    snap, _ = routed(scaled_fattree("2l-small"), "minhop")
    (keys,) = benchmark(lambda: lane_dependencies(snap))
    assert keys.size > 0


def test_updn_transition_swap_stays_acyclic(benchmark):
    """Up*/Down* + swap: old/new union remains deadlock free."""
    built = scaled_fattree("2l-small")
    old, tables = routed(built, "updn")
    a, b = old.terminal_lids[0], old.terminal_lids[-1]
    ports = tables.ports.copy()
    ports[:, [a, b]] = ports[:, [b, a]]
    new = FabricSnapshot.from_topology(built.topology, ports)

    findings = benchmark(lambda: check_transition_deadlock(old, new))
    assert findings == []


def test_minhop_swap_transition_on_torus_can_cycle(benchmark):
    """On a cyclic topology, minhop's transition union admits cycles —
    the residual risk the paper resolves with IB timeouts."""
    snap, _ = routed(build_torus_2d(3, 3, 2), "minhop")

    findings = benchmark(lambda: check_transition_deadlock(snap, snap))
    assert [f.rule for f in findings] == ["CDG002"]


def test_per_layer_check_dfsssp(benchmark):
    """DFSSSP stays deadlock free per virtual layer on a ring."""
    snap, tables = routed(build_ring(8, 2), "dfsssp")

    findings = benchmark(lambda: check_deadlock_freedom(snap))
    assert findings == []
    print(f"\nDFSSSP used {tables.num_vls} virtual lanes on the ring")
