"""Tests for run export/replay: JSONL round trips and renderers."""

import pytest

from repro.errors import ReproError
from repro.obs import (
    export_run,
    get_hub,
    load_run,
    render_span_tree,
    render_timeline,
    span,
)
from tests.conftest import make_cloud


class TestRoundTrip:
    def test_recorded_migration_round_trips(self, small_fattree, tmp_path):
        cloud = make_cloud(small_fattree, lid_scheme="dynamic")
        vm = cloud.boot_vm()
        dest = next(
            name
            for name, h in cloud.hypervisors.items()
            if name != vm.hypervisor_name and h.has_capacity()
        )
        report = cloud.live_migrate(vm.name, dest)

        path = tmp_path / "trace.jsonl"
        lines = export_run(get_hub(), path)
        assert lines > 0

        loaded = load_run(path)
        migration = loaded.find_root("migration")
        assert migration is not None
        assert migration.attributes["vm"] == vm.name
        assert migration.attributes["mode"] == "copy"
        # The n'·m' witness survives the round trip exactly.
        assert migration.total_lft_smp_count() == report.reconfig.lft_smps
        assert (
            migration.total_lft_smp_count()
            == report.switches_updated
            * report.reconfig.max_blocks_on_one_switch
        )
        # The flight recorder's LFT events for the migration window match.
        # Event times stamp the clock *after* delivery, so the window is
        # half-open at the start.
        lft_events = [e for e in loaded.smp_events if e.lft_update]
        in_window = [
            e
            for e in lft_events
            if migration.start_time < e.time <= migration.end_time
        ]
        assert len(in_window) == report.reconfig.lft_smps

    def test_header_counts(self, tmp_path):
        hub = get_hub()
        with span("a"):
            with span("b"):
                pass
        path = tmp_path / "run.jsonl"
        export_run(hub, path)
        loaded = load_run(path)
        assert loaded.header["spans"] == 2
        assert loaded.header["smp_events"] == 0
        assert [r.name for r in loaded.roots] == ["a"]
        assert [c.name for c in loaded.roots[0].children] == ["b"]

    def test_open_span_survives(self, tmp_path):
        hub = get_hub()
        hub.start_span("unfinished")
        path = tmp_path / "run.jsonl"
        export_run(hub, path)
        loaded = load_run(path)
        assert loaded.roots[0].is_open

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "run"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ReproError, match="bad.jsonl:2"):
            load_run(path)


class TestRenderers:
    def test_span_tree_indents_and_counts(self):
        with span("root", phase="demo") as root:
            with span("leaf") as leaf:
                leaf.record_rows([0.0], ("lft_update",), [(True,)], [1], 1)
        text = render_span_tree([root])
        lines = text.splitlines()
        assert lines[0].startswith("root @")
        assert "phase=demo" in lines[0]
        assert lines[1].startswith("  leaf @")
        assert "lft_smps=1" in lines[1]

    def test_timeline_merges_and_caps(self):
        from tests.obs.test_obs import _event

        with span("op") as sp:
            get_hub().advance(1.0)
        events = [_event(i) for i in range(5)]
        text = render_timeline([sp], events, max_smp_lines=2)
        assert "> start op" in text
        assert "< end   op" in text
        assert text.count("| smp") == 2
        assert "3 more SMP events" in text
