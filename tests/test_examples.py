"""Smoke tests: every shipped example runs to completion and prints the
headline facts it promises."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

pytestmark = pytest.mark.slow


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "path computation    : 0" in out
        assert "VM kept its LID     : True" in out
        assert "99.04" in out

    def test_live_migration_cloud(self, capsys):
        out = run_example("live_migration_cloud.py", capsys)
        assert "at most one VM per node" in out
        assert "co-resident VMs unaffected" in out
        assert "one switch, regardless of topology" in out

    def test_reconfigure_at_scale(self, capsys):
        out = run_example("reconfigure_at_scale.py", capsys)
        assert "336960" in out
        assert "768 LFT blocks" in out

    def test_consolidation(self, capsys):
        out = run_example("consolidation.py", capsys)
        assert "nodes freed" in out
        assert "0 seconds of path computation" in out

    def test_deadlock_timeouts(self, capsys):
        out = run_example("deadlock_timeouts.py", capsys)
        assert "broken by timeouts" in out
        assert out.count("deadlock never formed") == 3

    def test_fabric_management(self, capsys):
        out = run_example("fabric_management.py", capsys)
        assert "took over" in out
        assert "subnet audit: OK" in out
        assert "safe swap" in out

    def test_routing_comparison(self, capsys):
        out = run_example("routing_comparison.py", capsys)
        assert "vswitch-reconfig" in out
        assert "0.0000s" in out
        assert "shape checks" in out
