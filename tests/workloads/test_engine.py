"""The run engine: rule order, the event bracket, and the one chooser.

* a rule table fires top to bottom, lazily: ``at_step`` rows before rate
  rows before the workload row, and a zero rate draws nothing;
* ``event()`` books performed vs refused, repairs a failed
  reconfiguration with at most two re-driven distributions, and a raising
  handler never leaves the injector attached;
* the boot/stop/migrate chooser exists once: a ``ChaosRunner`` with an
  empty plan makes ``ChurnWorkload``'s decisions;
* the CI guard greps of the "one run engine" job, held by tier-1 too.
"""

import re
from pathlib import Path

import pytest

from repro.errors import TopologyError, TransportError
from repro.fabric.presets import scaled_fattree
from repro.faults.plan import FaultPlan
from repro.obs import get_hub
from repro.workloads.chaos import ChaosRunner
from repro.workloads.churn import ChurnWorkload
from repro.workloads.engine import (
    Rule,
    StepRunner,
    always,
    at_step,
    consumed_fields,
    every,
    spread,
    with_rate,
)
from repro.workloads.reports import ChaosReport
from tests.conftest import make_cloud

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class CountingRng:
    """A ``fabric_rng`` stand-in that counts its draws."""

    def __init__(self, value):
        self.value, self.draws = value, 0

    def random(self):
        self.draws += 1
        return self.value


def recording_runner(cloud, plan, rules):
    """A StepRunner over *rules* whose handlers log ``(name, step)``."""
    log = []

    def handler(name):
        return lambda run, step: log.append((name, step))

    class Recorder(StepRunner):
        SPAN = "recorded_run"
        REPORT = ChaosReport
        RULES = tuple(
            Rule(when, handler(name)) for name, when in rules
        )

    return Recorder(cloud, plan), log


@pytest.fixture
def cloud():
    return make_cloud(scaled_fattree("2l-small"))


class TestRuleTable:
    def test_rows_fire_in_table_order(self, cloud):
        plan = FaultPlan(sm_death_step=1, link_flap_rate=1.0)
        runner, log = recording_runner(
            cloud,
            plan,
            [
                ("death", at_step("sm_death_step")),
                ("flap", with_rate("link_flap_rate")),
                ("workload", always),
            ],
        )
        runner.injector.fabric_rng = CountingRng(0.0)
        runner.run(3)
        assert log == [
            ("flap", 0), ("workload", 0),
            ("death", 1), ("flap", 1), ("workload", 1),
            ("flap", 2), ("workload", 2),
        ]
        assert runner.injector.fabric_rng.draws == 3

    def test_zero_rate_draws_nothing(self, cloud):
        runner, log = recording_runner(
            cloud,
            FaultPlan(),
            [("flap", with_rate("link_flap_rate")), ("workload", always)],
        )
        runner.injector.fabric_rng = CountingRng(0.0)
        runner.run(4)
        assert runner.injector.fabric_rng.draws == 0
        assert [name for name, _ in log] == ["workload"] * 4

    def test_rate_draw_waits_for_the_rows_above(self, cloud):
        """Lazy evaluation: the second rate row draws only after the first
        row's handler ran — the replay contract of the fabric RNG."""
        order = []
        rng = CountingRng(0.0)
        real = rng.random
        rng.random = lambda: order.append("draw") or real()

        class Two(StepRunner):
            SPAN = "two"
            REPORT = ChaosReport
            RULES = (
                Rule(
                    with_rate("link_flap_rate"),
                    lambda run, step: order.append("flap"),
                ),
                Rule(
                    with_rate("switch_failure_rate"),
                    lambda run, step: order.append("death"),
                ),
            )

        runner = Two(
            cloud, FaultPlan(link_flap_rate=1.0, switch_failure_rate=1.0)
        )
        runner.injector.fabric_rng = rng
        runner.run(1)
        assert order == ["draw", "flap", "draw", "death"]

    def test_offset_spread_and_every(self, cloud):
        plan = FaultPlan(
            partition_step=1, partition_heal_steps=2, rewire_ops=3
        )
        runner, log = recording_runner(
            cloud,
            plan,
            [
                ("heal", at_step("partition_step", after="partition_heal_steps")),
                ("rewire", spread("rewire_ops")),
                ("tick", every("interval")),
            ],
        )
        runner.interval = 4
        runner.run(8)
        assert [s for n, s in log if n == "heal"] == [3]
        assert [s for n, s in log if n == "rewire"] == [2, 4, 6]
        assert [s for n, s in log if n == "tick"] == [0, 4]
        runner.interval = 0
        del log[:]
        runner.run(2)
        assert "tick" not in [n for n, _ in log]

    def test_more_ops_than_steps_all_fire(self, cloud):
        runner, log = recording_runner(
            cloud, FaultPlan(rewire_ops=5), [("rewire", spread("rewire_ops"))]
        )
        runner.run(2)
        assert len(log) == 5

    def test_tables_declare_what_they_consume(self):
        table = (
            Rule(at_step("partition_step", after="partition_heal_steps"), None),
            Rule(always, None, reads=("tenant_storm_factor",)),
            Rule(every("interval"), None),
        )
        assert consumed_fields(table) == {
            "partition_step", "partition_heal_steps", "tenant_storm_factor"
        }


class TestEventBracket:
    @pytest.fixture
    def runner(self, cloud):
        runner = ChaosRunner(cloud, FaultPlan(seed=1))
        runner.report = ChaosReport()
        return runner

    def test_performed_event_is_booked_and_counted(self, runner):
        sm = runner.sm
        with runner.event(
            "link_flap", books="link_flaps", refuses="refused_link_flaps", a="x"
        ) as ev:
            sm.full_reconfigure()
        report = runner.report
        assert (report.link_flaps, report.refused_link_flaps) == (1, 0)
        assert ev.refused is None
        assert report.reroute_smps == ev.delta.lft_update_smps > 0
        assert get_hub().metrics.counter(
            "repro_chaos_link_flaps_total"
        ).value == 1
        span = get_hub().find_root("link_flap")
        assert span.attributes == {"a": "x"}

    def test_topology_error_is_a_refusal(self, runner):
        with runner.event(
            "link_flap", books="link_flaps", refuses="refused_link_flaps"
        ) as ev:
            raise TopologyError("would partition")
        report = runner.report
        assert (report.link_flaps, report.refused_link_flaps) == (0, 1)
        assert isinstance(ev.refused, TopologyError)
        assert report.reroute_smps == 0
        assert get_hub().find_root("link_flap").attributes == {"refused": True}
        assert not report.control_plane_errors

    def test_failed_reconfiguration_is_logged_and_redriven(
        self, runner, monkeypatch
    ):
        calls = []

        def distribute():
            calls.append("distribute")
            raise TransportError("lossy")

        monkeypatch.setattr(runner.sm, "distribute", distribute)
        with runner.event("rewire", books="rewires", label="rewire x"):
            raise TransportError("first")
        # The drive that repairs it, then at most two re-drives.
        assert calls == ["distribute"] * 3
        assert runner.report.control_plane_errors == [
            "rewire x: first",
            "rewire repair: lossy",
        ]
        assert runner.report.rewires == 1  # still performed

    def test_recover_redrives_distribute_at_most_twice(
        self, runner, monkeypatch
    ):
        calls = []

        def distribute():
            calls.append("distribute")
            if calls.count("distribute") < 2:
                raise TransportError("lossy")

        def action():
            calls.append("action")
            raise TransportError("first")

        monkeypatch.setattr(runner.sm, "distribute", distribute)
        runner.recover(action, label="flap up")
        assert calls == ["action", "distribute", "distribute"]
        assert not runner.report.control_plane_errors
        del calls[:]
        monkeypatch.setattr(runner.sm, "distribute", action)
        runner.recover(action, label="flap up")
        assert calls == ["action"] * 3
        assert runner.report.control_plane_errors == ["flap up: first"]

    def test_raising_handler_detaches_the_injector(self, cloud):
        class Boom(StepRunner):
            SPAN = "boom"
            REPORT = ChaosReport

            def _explode(self, step):
                assert self.sm.transport.fault_injector is self.injector
                raise RuntimeError("handler bug")

            RULES = (Rule(always, _explode),)

        runner = Boom(cloud, FaultPlan(smp_drop_rate=0.1))
        with pytest.raises(RuntimeError):
            runner.run(3)
        assert cloud.sm.transport.fault_injector is None


class TestOneChooser:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_quiet_chaos_run_is_the_churn_run(self, seed):
        """Same seed, empty plan, no migrations: the chaos workload rule
        makes exactly ``ChurnWorkload.run``'s boot/stop decisions."""

        def placement(cloud):
            return {
                name: vm.hypervisor_name
                for name, vm in cloud.vms.items()
                if vm.is_running
            }

        plain = make_cloud(scaled_fattree("2l-small"))
        churn = ChurnWorkload(plain, seed=seed).run(40)
        wrecked = make_cloud(scaled_fattree("2l-small"))
        chaos = ChaosRunner(
            wrecked, FaultPlan(seed=seed), migrate_probability=0
        ).run(40)
        assert chaos.ok
        for counter in ("boots", "stops", "rejected_boots", "boot_lft_smps"):
            assert getattr(chaos.churn, counter) == getattr(churn, counter)
        assert placement(wrecked) == placement(plain)

    def test_step_reports_the_migration_it_made(self):
        cloud = make_cloud(scaled_fattree("2l-small"))
        churn = ChurnWorkload(cloud, seed=2, migrate_probability=1.0)
        from repro.workloads.churn import ChurnReport

        report = ChurnReport()
        cloud.boot_vm()
        moved = churn.step(report)
        assert report.migrations == 1 and moved.report.completed
        # Lossless fabric: achieved == the predictors' ideal n'·m'.
        assert moved.lft_smps == moved.ideal_lft_smps > 0
        assert moved.lft_smps == moved.report.reconfig.lft_smps


class TestOneEngineGuards:
    """The CI guard greps of the "one run engine" job."""

    def lines(self, *packages):
        for package in packages:
            for path in sorted((SRC / package).rglob("*.py")):
                for line in path.read_text().splitlines():
                    yield path.relative_to(SRC).as_posix(), line

    def test_one_step_loop(self):
        loops = [
            rel
            for rel, line in self.lines("workloads")
            if re.search(r"for step in range\(", line)
        ]
        assert loops == ["workloads/engine.py"]

    def test_no_command_chain(self):
        assert not [
            rel
            for rel, line in self.lines(".")
            if re.search(r"elif args\.command", line)
        ]
        assert not (SRC / "cli.py").exists()

    def test_no_file_over_700_lines(self):
        for package in ("workloads", "cli"):
            for path in sorted((SRC / package).rglob("*.py")):
                assert len(path.read_text().splitlines()) <= 700, path
