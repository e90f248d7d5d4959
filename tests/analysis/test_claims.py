"""The paper's claim register: every ``small`` row holds, and
``repro claims`` reports a failing or raising row without hiding the
others."""

import json

import pytest

from repro.analysis import claims
from repro.analysis.claims import CLAIMS, Claim
from repro.cli import main

SMALL = [c for c in CLAIMS if c.scale == "small"]


@pytest.mark.parametrize("claim", SMALL, ids=[c.id for c in SMALL])
def test_small_row_holds(claim):
    observed = claim.evaluate(False)
    assert claim.holds(observed), (claim.id, observed)


def test_rows_are_well_formed():
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids))
    assert {c.scale for c in CLAIMS} == {"small", "paper"}
    assert all(c.section and c.statement for c in CLAIMS)


def test_the_wall_clock_shape_is_the_only_paper_row():
    paper = {c.id for c in CLAIMS if c.scale == "paper"}
    assert paper == {"fig7-shape"}


def test_exact_and_predicate_expectations():
    exact = Claim("x", "§0", "exact", lambda paper: (1, 2), (1, 2))
    pred = Claim("y", "§0", "pred", lambda paper: 3, lambda o: o > 2)
    assert exact.holds((1, 2)) and not exact.holds((1, 3))
    assert pred.holds(3) and not pred.holds(2)


def fake_rows():
    def boom(paper_scale):
        raise RuntimeError("broken evaluator")

    return (
        Claim("holds", "§1", "a", lambda paper: 1, 1),
        Claim("fails", "§2", "b", lambda paper: 2, 3),
        Claim("raises", "§3", "c", boom, 0),
        Claim("paper-only", "§4", "d", lambda paper: paper, True, "paper"),
    )


class TestCommand:
    def test_a_failing_row_exits_nonzero_and_the_rest_still_run(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(claims, "CLAIMS", fake_rows())
        assert main(["claims"]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[0].split()[:2] == ["ok", "holds"]
        assert "FAIL fails" in out
        assert "FAIL raises" in out and "RuntimeError: broken evaluator" in out
        assert "paper-only" not in out
        assert "1/3 claims hold" in out

    def test_paper_scale_runs_paper_rows_with_the_flag(self, capsys, monkeypatch):
        monkeypatch.setattr(claims, "CLAIMS", fake_rows()[-1:])
        assert main(["claims", "--paper-scale"]) == 0
        assert "1/1 claims hold" in capsys.readouterr().out

    def test_json(self, capsys, monkeypatch):
        monkeypatch.setattr(claims, "CLAIMS", fake_rows()[:2])
        assert main(["claims", "--json"]) == 1
        rows = json.loads(capsys.readouterr().out)
        assert [(r["id"], r["holds"], r["observed"]) for r in rows] == [
            ("holds", True, 1),
            ("fails", False, 2),
        ]
        assert rows[1]["expected"] == 3
