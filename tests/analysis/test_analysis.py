"""Tests for the experiment harnesses and renderers."""

import pytest

from repro.analysis.experiments import (
    FIG7_ENGINES,
    fig7_topologies,
    measure_path_computation,
    measured_full_reconfig_smps,
    table1_for_topology,
)
from repro.analysis.figures import PAPER_FIG7_SECONDS, Fig7Series, render_fig7
from repro.analysis.tables import render_table, render_table1
from repro.core.cost_model import paper_table1, table1_row
from repro.fabric.presets import paper_fattree, scaled_fattree


class TestTableRendering:
    def test_render_table_alignment(self):
        text = render_table(["a", "long"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "333" in lines[3]

    def test_render_table1_matches_paper_numbers(self):
        text = render_table1(paper_table1())
        for token in ("216", "594", "104004", "336960", "72", "3240"):
            assert token in text
        assert "Min SMPs Full RC" in text


class TestFig7Harness:
    def test_measure_records_all_engines(self, small_fattree):
        series = measure_path_computation(small_fattree, engines=("minhop",))
        assert "minhop" in series.seconds_by_engine
        assert series.seconds_by_engine["vswitch-reconfig"] == 0.0
        assert series.num_switches == 12

    def test_render_fig7(self, small_fattree):
        series = measure_path_computation(small_fattree, engines=("minhop",))
        text = render_fig7([series])
        assert "vswitch-reconfig" in text
        assert "0.0000s" in text

    def test_fig7_topologies_scaled_by_default(self):
        tops = fig7_topologies()
        assert len(tops) == 4
        assert all(t.topology.num_hcas <= 1000 for t in tops)

    def test_paper_values_table_complete(self):
        for engine in FIG7_ENGINES:
            assert set(PAPER_FIG7_SECONDS[engine]) == {324, 648, 5832, 11664}

    def test_paper_fig7_orderings(self):
        # The orderings our reproduction must preserve.
        for nodes in (324, 648, 5832, 11664):
            assert (
                PAPER_FIG7_SECONDS["ftree"][nodes]
                <= PAPER_FIG7_SECONDS["minhop"][nodes]
            )
            assert (
                PAPER_FIG7_SECONDS["minhop"][nodes]
                < PAPER_FIG7_SECONDS["dfsssp"][nodes]
            )
        # LASH explodes only on the 3-level instances.
        assert PAPER_FIG7_SECONDS["lash"][324] < PAPER_FIG7_SECONDS["dfsssp"][324]
        assert PAPER_FIG7_SECONDS["lash"][5832] > PAPER_FIG7_SECONDS["dfsssp"][5832]


class TestTable1Harness:
    @pytest.mark.parametrize("nodes", [324, 648])
    def test_constructed_topology_matches_closed_form(self, nodes):
        built = paper_fattree(nodes)
        row = table1_for_topology(built)
        assert row == table1_row(nodes, row.switches)

    def test_measured_full_reconfig_equals_table1(self, small_fattree):
        # The actually-counted SubnSet(LFT) packets of a forced full
        # reconfiguration equal n * m from the cost model.
        smps = measured_full_reconfig_smps(small_fattree, engine="minhop")
        topo = small_fattree.topology
        row = table1_row(topo.num_hcas, topo.num_switches)
        assert smps == row.min_smps_full_reconfig

    @pytest.mark.slow
    def test_measured_full_reconfig_paper_324(self):
        built = paper_fattree(324)
        assert measured_full_reconfig_smps(built, engine="ftree") == 216
