"""The ``repro perf`` / ``repro top`` CLIs and ``repro chaos --telemetry``."""

import json

from repro.cli import main


class TestPerfCli:
    def test_perf_runs_and_audits(self, capsys):
        assert main(["perf", "--sweeps", "1", "--hosts", "6"]) == 0
        out = capsys.readouterr().out
        assert "top" in out
        assert "traffic matrix" in out
        assert "consistent" in out

    def test_perf_export_row_sums_match_delivered(self, tmp_path, capsys):
        dash = tmp_path / "dash.json"
        assert (
            main(
                [
                    "perf",
                    "--sweeps",
                    "2",
                    "--hosts",
                    "6",
                    "--export",
                    str(dash),
                ]
            )
            == 0
        )
        data = json.loads(dash.read_text())
        matrix = data["traffic_matrix"]
        assert sum(matrix["row_sums"]) == matrix["total"]
        assert matrix["total"] == data["dataplane"]["delivered"] > 0
        assert data["sweeps"]["smps"] > 0
        assert data["series"]["count"] > 0

    def test_perf_vm_endpoints_add_owner_matrices(self, tmp_path):
        dash = tmp_path / "dash.json"
        assert (
            main(
                [
                    "perf",
                    "--vms",
                    "4",
                    "--sweeps",
                    "1",
                    "--export",
                    str(dash),
                ]
            )
            == 0
        )
        data = json.loads(dash.read_text())
        assert data["by_vm"]
        assert data["by_tenant"]
        assert sum(data["by_vm"].values()) == data["traffic_matrix"]["total"]

    def test_perf_mad_drop_exercises_retries(self, capsys):
        assert (
            main(
                [
                    "perf",
                    "--sweeps",
                    "1",
                    "--hosts",
                    "4",
                    "--drop",
                    "0.2",
                    "--seed",
                    "5",
                ]
            )
            == 0
        )
        assert "mad-drop=0.2" in capsys.readouterr().out

    def test_a_burst_at_an_invalidated_lid_reports_its_drops(
        self, tmp_path, capsys, monkeypatch
    ):
        # Port-255 drops are neither timeouts nor dead ports: the round
        # line and the export must count them all the same.
        from repro.cli import perf
        from repro.core.reconfig import VSwitchReconfigurer

        build = perf.build_harness

        def invalidated(args, **kwargs):
            cloud, harness = build(args, **kwargs)
            VSwitchReconfigurer(cloud.sm).invalidate_lid(harness.endpoints()[-1])
            return cloud, harness

        monkeypatch.setattr(perf, "build_harness", invalidated)
        dash = tmp_path / "dash.json"
        args = ["perf", "--sweeps", "1", "--hosts", "4", "--export", str(dash)]
        assert main(args) == 0
        # 4 hosts: the victim's 3 inbound flows die at the drop port.
        assert "round 1: 12 injected, 9 delivered, 3 dropped;" in capsys.readouterr().out
        data = json.loads(dash.read_text())["dataplane"]
        assert data["injected"] - data["delivered"] == data["dropped_port255"] == 3
        assert data["dropped_timeout"] == data["dropped_no_route"] == 0

    def test_unknown_profile_is_a_usage_error(self, capsys):
        assert main(["perf", "--profile", "nope"]) == 2


class TestTopCli:
    def test_top_prints_frames(self, capsys):
        assert main(["top", "--iterations", "2", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "frame 1" in out
        assert "frame 2" in out
        assert "MB/s" in out


class TestChaosTelemetryCli:
    def test_chaos_telemetry_flag(self, capsys):
        assert (
            main(
                [
                    "chaos",
                    "--telemetry",
                    "--steps",
                    "6",
                    "--seed",
                    "1",
                    "--inject",
                    "link-flap=0.4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "flap windows" in out
