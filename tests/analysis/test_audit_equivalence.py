"""The array audit against the per-path walker it replaced.

``verify_subnet`` judges delivery with the successor-matrix classifier
(``check_reachability``); the walker that used to do it lives on as the
oracle ``tests/oracles/delivery.py``. Both must agree on ``ok`` and on
*which LIDs* are faulty — on the fixtures of ``test_verification.py`` and
on random corruptions of the hardware LFTs.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.verification import verify_delivery, verify_subnet
from repro.constants import LFT_UNSET
from repro.fabric.builders.generic import build_ring, build_single_switch
from repro.fabric.presets import scaled_fattree
from repro.sm.subnet_manager import SubnetManager
from tests.analysis.test_verification import (
    DELIVERY_CORRUPTIONS,
    sm_divergence,
)
from tests.oracles.delivery import faulty_lids

_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FABRICS = {
    "2l-small": lambda: scaled_fattree("2l-small"),
    "ring6": lambda: build_ring(6, 1),
}


def configured(built, engine="minhop"):
    sm = SubnetManager(built.topology, engine=engine, built=built)
    sm.initial_configure(with_discovery=False)
    return sm


def finding_lids(report):
    # META001 (finding cap reached) carries no LID.
    return sorted({f.lid for f in report.findings if f.lid is not None})


def assert_agree(sm):
    walker = faulty_lids(sm.topology)
    delivery = verify_delivery(sm.topology)
    assert delivery.ok == (not walker)
    assert finding_lids(delivery) == walker
    # The full audit reports the same delivery faults, once.
    audit = verify_subnet(sm, static=False)
    assert [f.render() for f in audit.findings] == [
        f.render() for f in delivery.findings
    ]
    assert audit.ok == (not walker and not audit.failures)


class TestFixtures:
    def test_healthy(self):
        sm = configured(FABRICS["2l-small"]())
        assert_agree(sm)
        assert verify_subnet(sm).ok

    @pytest.mark.parametrize(
        "corrupt", DELIVERY_CORRUPTIONS, ids=lambda f: f.__name__
    )
    def test_delivery_corruptions(self, corrupt):
        sm = configured(FABRICS["2l-small"]())
        victim = corrupt(sm)
        assert_agree(sm)
        assert faulty_lids(sm.topology) == [victim]

    def test_sm_divergence(self):
        # Another up-port still delivers: neither the walker nor the
        # classifier objects, only the comparison with the recorded tables.
        sm = configured(FABRICS["2l-small"]())
        sm_divergence(sm)
        assert_agree(sm)
        audit = verify_subnet(sm, static=False)
        assert not audit.ok and not audit.findings and len(audit.failures) == 1

    def test_single_switch_delivery_port(self):
        # No other switch exists to fail on the way: the fault shows only
        # at the destination switch's own entry.
        sm = configured(build_single_switch(4))
        assert_agree(sm)
        victim = sm.topology.terminals()[0]
        sm.topology.set_lft(0, victim.lid, victim.switch_port % 4 + 1)
        assert_agree(sm)
        assert faulty_lids(sm.topology) == [victim.lid]


@st.composite
def cell_corruptions(draw):
    """Up to six (switch draw, LID draw, port-or-unset) cell writes."""
    return draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=0, max_value=10_000),
                st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
            ),
            min_size=1,
            max_size=6,
        )
    )


class TestRandomCorruptions:
    @pytest.mark.parametrize("fabric", sorted(FABRICS))
    @_settings
    @given(cells=cell_corruptions())
    def test_walker_and_audit_agree(self, fabric, cells):
        sm = configured(FABRICS[fabric]())
        switches = sm.topology.switches
        lids = sm.topology.bound_lids()
        for sw_draw, lid_draw, port in cells:
            row = sw_draw % len(switches)
            lid = lids[lid_draw % len(lids)]
            sm.topology.set_lft(row, lid, LFT_UNSET if port is None else port)
        assert_agree(sm)
        # Consistency against the cell-by-cell compare it replaced.
        recorded = sm.current_tables
        differing = sum(
            sw.route(lid) != recorded.port_for(sw.index, lid)
            for sw in switches
            for lid in lids
        )
        assert len(verify_subnet(sm, static=False).failures) == differing
