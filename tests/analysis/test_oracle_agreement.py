"""The successor-matrix kernel against the per-path walkers, on engine tables.

Every "where does this port matrix send a packet" question in
``src/repro`` goes through ``check_reachability``'s successor kernel and
the CDG rules built on it. The dict walkers those replaced live on as
oracles (``tests/oracles/delivery.py``, ``tests/oracles/cdg.py``). Over
the ``check-fabric`` matrix (presets x engines) both must give the same
verdicts: delivery (LFT001-LFT004 against ``validate``), the same faulty
LIDs under random cell corruption, and deadlock freedom (CDG001 on the
terminal LIDs, VLC001 per lane).
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.static import (
    FabricSnapshot,
    check_deadlock_freedom,
    check_reachability,
)
from repro.analysis.static.suite import default_cases, preset_builders
from repro.constants import LFT_UNSET
from repro.errors import RoutingError
from repro.sm.routing.vl import corrupt_assignment
from repro.sm.subnet_manager import SubnetManager
from tests.oracles.cdg import routing_is_deadlock_free
from tests.oracles.delivery import request_maps, trace_path, validate
from tests.oracles.terminals import endpoints, switch_lids

CASES = [(c.preset, c.engine) for c in default_cases()]

#: Single-VL engines on cyclic fabrics: the matrix leaves them out because
#: their CDG is cyclic, which is exactly the verdict both sides must share.
CYCLIC = [("ring6", "minhop"), ("torus4x4", "minhop"), ("torus4x4", "dor")]


def routed(preset, engine):
    """``(topology, tables, request)`` of one engine's computed routing."""
    built = preset_builders()[preset]()
    sm = SubnetManager(built.topology, built=built, engine=engine)
    sm.assign_lids()
    sm.compute_routing()
    return built.topology, sm.current_tables, sm.last_request


def oracle_faulty_lids(tables, request):
    lids = [t.lid for t in endpoints(request)] + list(switch_lids(request))
    maps = request_maps(request)
    bad = set()
    for lid in lids:
        for src in range(request.num_switches):
            try:
                trace_path(tables, request, src, lid, maps=maps)
            except RoutingError:
                bad.add(lid)
                break
    return sorted(bad)


def kernel_faulty_lids(topology, ports):
    findings = check_reachability(FabricSnapshot.from_topology(topology, ports))
    # META001 (finding cap reached) carries no LID.
    return sorted({f.lid for f in findings if f.lid is not None})


class TestDelivery:
    @pytest.mark.parametrize("preset,engine", CASES)
    def test_validate_passes_iff_no_reachability_finding(self, preset, engine):
        topology, tables, request = routed(preset, engine)
        validate(tables, request)
        snap = FabricSnapshot.from_topology(topology, tables.ports)
        assert check_reachability(snap) == []

    @pytest.mark.parametrize("preset,engine", CASES)
    def test_a_black_hole_fails_both(self, preset, engine):
        topology, tables, request = routed(preset, engine)
        t = endpoints(request)[-1]
        tables.ports[(t.switch_index + 1) % request.num_switches, t.lid] = LFT_UNSET
        with pytest.raises(RoutingError):
            validate(tables, request)
        assert kernel_faulty_lids(topology, tables.ports) == [t.lid]


_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRandomCorruptions:
    @pytest.mark.parametrize(
        "preset,engine",
        [("2l-small", "minhop"), ("ring6", "updn"), ("torus4x4", "lash")],
    )
    @_settings
    @given(
        cells=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=0, max_value=10_000),
                st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_oracle_and_kernel_name_the_same_lids(self, preset, engine, cells):
        topology, tables, request = routed(preset, engine)
        lids = [t.lid for t in endpoints(request)] + list(switch_lids(request))
        for sw_draw, lid_draw, port in cells:
            tables.ports[sw_draw % request.num_switches, lids[lid_draw % len(lids)]] = (
                LFT_UNSET if port is None else port
            )
        assert oracle_faulty_lids(tables, request) == kernel_faulty_lids(
            topology, tables.ports
        )


def collapsed(tables):
    """*tables* with every layer of the lane plane squashed onto VL0."""
    out = replace(tables, lanes=tables.lanes.copy())
    corrupt_assignment(out, "collapse")
    return out


class TestDeadlockFreedom:
    @pytest.mark.parametrize("preset,engine", CASES + CYCLIC)
    def test_per_path_cdg_agrees_with_cdg001(self, preset, engine):
        topology, tables, request = routed(preset, engine)
        snap = FabricSnapshot.from_topology(topology, tables.ports)
        terminal = snap.terminal_lids.tolist()
        free = routing_is_deadlock_free(tables, request, lids=terminal)
        assert free == (check_deadlock_freedom(snap) == [])
        # Only Up*/Down* keeps one lane acyclic on a ring or torus; the VL
        # engines need their lanes for that (VLC001 below).
        assert free == (preset not in ("ring6", "torus4x4") or engine == "updn")

    @pytest.mark.parametrize(
        "preset,engine", [c for c in CASES if c[1] in ("dfsssp", "lash")]
    )
    def test_per_path_cdg_agrees_with_vlc001(self, preset, engine):
        topology, tables, request = routed(preset, engine)
        terminal = FabricSnapshot.from_topology(topology).terminal_lids.tolist()
        verdicts = []
        for planed in (tables, collapsed(tables)):
            snap = FabricSnapshot.from_topology(topology, tables.ports, tables=planed)
            free = routing_is_deadlock_free(
                tables, request, lids=terminal, lanes=planed.lanes, num_vls=planed.num_vls
            )
            assert free == (check_deadlock_freedom(snap) == [])
            verdicts.append(free)
        # Collapsing the lanes brings back a ring's or torus's cycle on VL0.
        assert verdicts == [True, preset not in ("ring6", "torus4x4")]
