"""The benchmark's own tests, at toy sizes.

    python3 -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*extra, cwd=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--seed", "0", "--seconds", "0",
           "--size", "toy", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_every_metric_with_its_unit():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_and_prints_every_metric(workload, trace):
    out = last_json(bench("--workload", workload, "--trace", str(trace)))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 2
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in out["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())
    if trace:
        assert out["metrics"]["fail_ratio"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_study_trace_accounts_for_the_mmnl_fit():
    m = last_json(bench("--workload", "study_mmnl", "--trace", "1"))["metrics"]
    assert m["mmnl.objective_calls"]["value"] > 0
    assert 0 < m["numerics.hessian_share"]["value"] < 1
    assert m["mmnl.estimate_self_s"]["value"] < 0.1 * m["mmnl.estimate_s"]["value"]


def test_wrong_reference_value_counts_as_failure(tmp_path):
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    fit = ref["records"]["study_mmnl/toy/seed0"]["mnl.estimate_mnl"]
    fit["ll_final"] += 1e-3
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(ref), encoding="utf-8")
    out = last_json(bench("--workload", "study_mmnl", "--trace", "1", "--reference", str(bad)))
    assert out["correct"] is False
    assert out["failed"] > 0
    assert out["metrics"]["fail_ratio"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"),
                           "--workload", "study_mmnl", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True, timeout=170,
                          cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
