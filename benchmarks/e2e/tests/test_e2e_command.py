"""The command itself: --quick, the contract line, compare, the catalogue."""

import copy
import json
import os
import subprocess
import sys
import time

import pytest

import metrics
import run
import plans
import workloads

RUN = os.path.join(run.HERE, "run.py")


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    start = time.time()
    done = subprocess.run(
        [sys.executable, RUN, "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    return done, json.loads(out.read_text()), time.time() - start


def test_quick_finishes_in_a_minute_and_passes_every_check(quick):
    done, doc, elapsed = quick
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 60
    assert set(doc["workloads"]) == set(plans.WORKLOADS)
    for name, result in doc["workloads"].items():
        assert result["correct"], (name, result["failures"], result["checks"])
        assert result["end_to_end"]["failed_share"] == 0
        assert 0.95 <= result["per_layer"]["bench.layer_sum_share"] <= 1.05
        assert set(result["per_layer"]) == {m for m, _, _ in metrics.PER_LAYER}
        assert result["spans"]
    for idle in ("vm-churn-648", "dataplane-a2a-324"):
        assert doc["workloads"][idle]["per_layer"]["sm.routing.calls"] == 0


def test_envelope_names_its_environment_and_inputs(quick):
    _, doc, _ = quick
    for key in ("git_sha", "git_dirty", "python", "numpy", "cpu_model", "nproc",
                "loadavg_start", "loadavg_end", "seed", "scale"):
        assert key in doc
    for result in doc["workloads"].values():
        assert len(result["op_list_sha256"]) == 64
        assert len(result["raw"]["repeat_totals_s"]) == result["repeats"]


def test_every_metric_is_printed_by_name_with_its_unit(quick):
    done, _, _ = quick
    for metric, unit, _ in metrics.END_TO_END + metrics.ZERO_AT_BASELINE:
        assert f"{metric} " in done.stdout and f" {unit}" in done.stdout


def test_compare_verdicts(quick):
    _, doc, _ = quick
    bounds = {m: 0.10 for m, _, _ in metrics.END_TO_END}
    def verdict(rows, workload, metric):
        return next(r["verdict"] for r in rows
                    if r["workload"] == workload and r["metric"] == metric)

    same = run.compare(doc, copy.deepcopy(doc), bounds)
    assert {r["verdict"] for r in same} == {"same"}

    other = copy.deepcopy(doc)
    churn = other["workloads"]["vm-churn-648"]
    churn["end_to_end"]["ops_per_s"] *= 0.8          # slower, quiet run
    churn["end_to_end"]["op_p50_ms"] *= 0.8          # faster
    churn["end_to_end"]["sim_smps_per_op"] += 0.001  # an exact metric moved
    churn["raw"]["repeat_totals_s"] = [t * 1.25 for t in churn["raw"]["repeat_totals_s"]]
    for result in (doc["workloads"]["vm-churn-648"], churn):
        result["per_layer"]["bench.calib_spread"] = 1.02
    rows = run.compare(doc, other, bounds)
    assert verdict(rows, "vm-churn-648", "ops_per_s") == "worse"
    assert verdict(rows, "vm-churn-648", "op_p50_ms") == "better"
    assert verdict(rows, "vm-churn-648", "sim_smps_per_op") == "changed"
    assert verdict(rows, "vm-churn-648", "setup_s") == "same"

    # a noisy host and overlapping per-repeat totals: cannot tell
    noisy = copy.deepcopy(other)
    noisy["workloads"]["vm-churn-648"]["per_layer"]["bench.calib_spread"] = 1.4
    noisy["workloads"]["vm-churn-648"]["raw"]["repeat_totals_s"] = (
        doc["workloads"]["vm-churn-648"]["raw"]["repeat_totals_s"])
    rows = run.compare(doc, noisy, bounds)
    assert verdict(rows, "vm-churn-648", "ops_per_s") == "unresolved"

    # another plan is not comparable at all
    noisy["workloads"]["vm-churn-648"]["op_list_sha256"] = "0" * 64
    rows = run.compare(doc, noisy, bounds)
    assert verdict(rows, "vm-churn-648", "op_list_sha256") == "missing"


def test_compare_command_exit_codes(quick, tmp_path):
    _, doc, _ = quick
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(doc))
    b.write_text(json.dumps(doc))
    assert subprocess.run([sys.executable, RUN, "compare", str(a), str(b)],
                          capture_output=True, timeout=60).returncode == 0
    doc["workloads"]["dataplane-a2a-324"]["end_to_end"]["failed_share"] = 0.01
    b.write_text(json.dumps(doc))
    done = subprocess.run([sys.executable, RUN, "compare", str(a), str(b)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "changed" in done.stdout


def test_benchmark_json_repeats_the_catalogue():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(plans.WORKLOADS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == metrics.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_a_mismatch_with_expected_json_is_a_loud_failure():
    exact = {"smps": 10, "engines": {"minhop": {"sha256": "aa", "num_vls": 1}}}
    pinned = {"any_seed": {"engines": exact["engines"]}, "seed": {"smps": 10}}
    assert workloads.expected_mismatches(exact, pinned, True) == []
    pinned = {"any_seed": {"engines": {"minhop": {"sha256": "bb", "num_vls": 1}}},
              "seed": {"smps": 11}}
    assert len(workloads.expected_mismatches(exact, pinned, True)) == 2
    # another seed: only the seed-independent part is compared
    assert len(workloads.expected_mismatches(exact, pinned, False)) == 1
    assert workloads.expected_mismatches(exact, {}, False) == []
