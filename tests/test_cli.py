"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig7_flags(self):
        args = build_parser().parse_args(
            ["fig7", "--paper-scale", "--engines", "minhop"]
        )
        assert args.paper_scale and args.engines == "minhop"

    def test_demo_defaults(self):
        args = build_parser().parse_args(["migrate-demo"])
        assert args.scheme == "prepopulated"
        assert args.profile == "2l-small"


class TestCommands:
    def test_table1(self, capsys):
        assert main(["claims", "--json"]) == 0
        rows = {r["id"]: r for r in json.loads(capsys.readouterr().out)}
        assert rows["table1"]["observed"]["11664"] == [1620, 13284, 208, 336960, 1, 3240]
        assert rows["improvement-quotes"]["observed"][-1] == 99.04
        assert all(r["holds"] for r in rows.values())

    def test_fig7_minhop_only(self, capsys):
        assert main(["fig7", "--engines", "minhop"]) == 0
        out = capsys.readouterr().out
        assert "minhop" in out
        assert "vswitch-reconfig" in out
        assert "0.0000s" in out

    def test_cost_model(self, capsys):
        assert main(["claims"]) == 0
        out = capsys.readouterr().out
        assert "rct-gap" in out and "(4.5, 8.25, 80.25, 156.0)" in out
        assert "fig7-shape" not in out

    @pytest.mark.parametrize("scheme", ["prepopulated", "dynamic"])
    def test_migrate_demo(self, capsys, scheme):
        assert main(["migrate-demo", "--scheme", scheme]) == 0
        out = capsys.readouterr().out
        assert "PCt=0" in out
        assert "LID kept=True" in out

    def test_migrate_demo_span_tree_cross_check(self, capsys):
        assert main(["migrate-demo", "--scheme", "dynamic"]) == 0
        out = capsys.readouterr().out
        assert "span tree:" in out
        assert "migration @" in out
        assert "lft_copy @" in out
        # The acceptance witness: recorded events == n'·m' == the report.
        cross = next(
            line for line in out.splitlines() if line.startswith("cross-check")
        )
        import re

        nums = re.findall(
            r"events=(\d+).*?=(\d+), reconfig report=(\d+)", cross
        )[0]
        assert nums[0] == nums[1] == nums[2]


class TestObservabilityCommands:
    def test_record_then_trace(self, capsys, tmp_path):
        rec = tmp_path / "run"
        assert main(["migrate-demo", "--record", str(rec)]) == 0
        capsys.readouterr()
        assert (rec / "trace.jsonl").exists()
        assert (rec / "metrics.prom").exists()
        assert (rec / "metrics.json").exists()

        assert main(["trace", str(rec)]) == 0
        out = capsys.readouterr().out
        assert "span tree:" in out
        assert "migration @" in out
        assert "timeline:" in out
        assert "| smp" in out

    def test_trace_tree_only(self, capsys, tmp_path):
        rec = tmp_path / "run"
        assert main(["fig7", "--engines", "minhop", "--record", str(rec)]) == 0
        capsys.readouterr()
        assert main(["trace", str(rec), "--tree-only"]) == 0
        out = capsys.readouterr().out
        assert "timeline:" not in out

    def test_trace_missing_run(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "nope")]) == 1
        assert "no recorded run" in capsys.readouterr().err

    def test_trace_corrupt_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "run"}\ngarbage\n', encoding="utf-8")
        assert main(["trace", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "cannot replay" in err
        assert "not valid JSON" in err

    def test_metrics_wraps_command(self, capsys):
        assert main(["metrics", "migrate-demo", "--scheme", "dynamic"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_smp_total counter" in out
        assert "repro_migrations_total" in out
        assert 'repro_vswitch_lft_smps{mode="copy"}' in out

    def test_metrics_prints_recorded_run(self, capsys, tmp_path):
        rec = tmp_path / "run"
        assert main(["migrate-demo", "--record", str(rec)]) == 0
        capsys.readouterr()
        assert main(["metrics", str(rec)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE" in out

    def test_metrics_rejects_unknown_target(self, capsys):
        assert main(["metrics", "not-a-command"]) == 1
        assert "neither" in capsys.readouterr().err


class TestCheckFabric:
    def test_single_cell_clean(self, capsys):
        assert main(["check-fabric", "--preset", "2l-small", "--engine", "minhop"]) == 0
        out = capsys.readouterr().out
        assert "2l-small x minhop" in out
        assert "all clean" in out

    def test_full_matrix_covers_required_engines(self, capsys):
        assert main(["check-fabric"]) == 0
        out = capsys.readouterr().out
        for engine in ("minhop", "updn", "ftree", "dor"):
            assert f"x {engine}" in out
        assert "all clean" in out

    def test_injected_fault_exits_nonzero_with_findings(self, capsys):
        rc = main(["check-fabric", "--preset", "ring6", "--inject-fault"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "injected fault" in out
        assert "LFT001" in out and "CDG001" in out
        assert "FAILED" in out

    def test_unknown_preset_is_usage_error(self, capsys):
        assert main(["check-fabric", "--preset", "moebius"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_record_writes_static_metrics(self, capsys, tmp_path):
        rec = tmp_path / "run"
        args = ["check-fabric", "--preset", "ring6", "--record", str(rec)]
        assert main(args) == 0
        capsys.readouterr()
        prom = (rec / "metrics.prom").read_text(encoding="utf-8")
        assert "repro_static_checks_total" in prom
        assert "repro_static_fabric_ok" in prom


#: The CI smoke command lines, pinned byte for byte. Everything they print
#: is sim-time or counts, so the text is the cross-commit oracle for any
#: refactor of the event -> sweep path (and of the runners themselves).
#: All but ``chaos_failure`` were generated at the commit *before* the
#: event kernel / converge step landed; ``chaos_failure`` (refused flaps
#: and switch deaths) is pinned from that commit on, because a refused
#: flap no longer pays a re-sweep there.
GOLDEN_RUNS = {
    "chaos_smp_loss": "chaos --inject smp-drop=0.1,link-flap=0.05,sm-death=10"
    " --steps 30 --seed 3",
    "chaos_rewire": "chaos --inject rewire=6,link-flap=0.05 --steps 30 --seed 3",
    "chaos_rewire_wide": "chaos --profile 2l-wide --inject rewire=4"
    " --steps 20 --seed 5",
    "chaos_ha": "chaos --inject sm-death=2,partition=6,heal-after=3,"
    "flap-storm=11,storm-size=6 --steps 14 --seed 7",
    "chaos_ha_lossy_wide": "chaos --profile 2l-wide --inject smp-drop=0.05,"
    "sm-death=3,partition=8,heal-after=3,flap-storm=13,storm-size=6"
    " --steps 18 --seed 11",
    "perf_sweeps": "perf --profile 2l-small --hosts 12 --sweeps 3 --drop 0.01",
    "chaos_telemetry": "chaos --telemetry --inject smp-drop=0.01,link-flap=0.3"
    " --steps 12 --seed 1",
    "serve_kill": "serve --chaos kill-service --steps 24 --seed 0",
    "serve_kill_storm": "serve --chaos kill-service=10,tenant-storm=6,"
    "storm-factor=20,smp-drop=0.05 --steps 24 --seed 3",
    "chaos_failure": "chaos --inject switch-fail=0.3,link-flap=0.5,smp-drop=0.05"
    " --steps 60 --seed 2",
    # Every chaos action kind in one run (pinned at the commit before the
    # run engine replaced the two hand-written step loops).
    "chaos_all_knobs": "chaos --telemetry --inject rewire=3,switch-fail=0.1,"
    "link-flap=0.2,sm-death=4,partition=9,heal-after=2,flap-storm=14,"
    "storm-size=4,smp-drop=0.02 --steps 20 --seed 4",
}


class TestGoldenRuns:
    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_smoke_command_output_is_pinned(self, capsys, name):
        from pathlib import Path

        golden = Path(__file__).parent / "golden" / f"{name}.txt"
        assert main(GOLDEN_RUNS[name].split()) == 0
        assert capsys.readouterr().out == golden.read_text()


class TestFaultKnobOwnership:
    """A knob is honoured by the command whose rule table has a rule for
    it and rejected — not silently ignored — by the other."""

    def test_chaos_rejects_service_knobs(self, capsys):
        rc = main(["chaos", "--inject", "kill-service=3,tenant-storm=2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "'kill-service'" in err and "'repro serve' honours it" in err

    def test_serve_rejects_fabric_knobs(self, capsys):
        rc = main(["serve", "--chaos", "link-flap=0.9,sm-death=2,rewire=3"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "'link-flap'" in err and "'repro chaos' honours it" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos", "--inject", "smp-drop=0.05,link-flap=0.1", "--steps", "4"],
            ["serve", "--chaos", "smp-drop=0.05,kill-service", "--steps", "4"],
        ],
    )
    def test_smp_knobs_compose_with_both(self, capsys, argv):
        assert main(argv) == 0
        assert "verification: clean" in capsys.readouterr().out

    def test_every_knob_has_exactly_one_owner(self):
        from repro.faults.plan import _INT_SPEC_KEYS, _SPEC_KEYS
        from repro.workloads import ChaosRunner, ServiceChaosRunner
        from repro.workloads.engine import consumed_fields

        chaos = consumed_fields(ChaosRunner.RULES)
        serve = consumed_fields(ServiceChaosRunner.RULES)
        assert not chaos & serve
        knobs = set(_INT_SPEC_KEYS.values()) | {
            field
            for field in _SPEC_KEYS.values()
            if not field.startswith("smp_")
        }
        assert knobs == chaos | serve


class TestServeGenesis:
    def test_journaled_genesis_is_how_serve_built_the_cloud(
        self, capsys, tmp_path, monkeypatch
    ):
        """Cold rebuild from the journal ``repro serve`` wrote reproduces
        the live cloud of that run: the recipe is the genesis record."""
        import repro.cli.serve as serve_cmd
        from repro.service import (
            IntentJournal,
            audit_cloud,
            cloud_fingerprint,
            rebuild_from_journal,
        )

        live = []
        bring_up = serve_cmd.bring_up_cloud
        monkeypatch.setattr(
            serve_cmd,
            "bring_up_cloud",
            lambda recipe: live.append(bring_up(recipe)) or live[-1],
        )
        journal = tmp_path / "intents.jsonl"
        argv = ["serve", "--chaos", "kill-service", "--steps", "12"]
        assert main([*argv, "--journal", str(journal)]) == 0
        capsys.readouterr()
        rebuilt, _, report = rebuild_from_journal(
            IntentJournal.from_jsonl(journal)
        )
        assert report.replayed > 0
        assert audit_cloud(rebuilt) == []
        assert cloud_fingerprint(rebuilt) == cloud_fingerprint(live[0])
        genesis = IntentJournal.from_jsonl(journal).genesis()
        assert genesis == serve_cmd.cloud_recipe(
            build_parser().parse_args(argv)
        )
