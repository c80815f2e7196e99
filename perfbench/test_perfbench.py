"""Smoke test of the benchmark itself at tiny sizes.

    python -m pytest perfbench -q

Runs every workload untraced and traced with --tiny and checks the result
line against BENCHMARK.json.  Not part of the package's test suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(workload, seed, trace):
    proc = run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0, proc.stdout
    assert doc["attempted"] >= 1
    return doc


def expected_units(trace):
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    doc = result(workload, seed=1, trace=0)
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    assert got == expected_units(0)
    assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_emitted_and_self_times_fit_in_the_pass(workload):
    doc = result(workload, seed=1, trace=1)
    metrics = doc["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == expected_units(1)
    self_total = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
    assert 0 < self_total <= metrics["traced.wall_s"]["value"]


def test_second_seed_yields_the_same_metric_set():
    first = result("regime_map", seed=1, trace=0)
    second = result("regime_map", seed=2, trace=0)
    assert first["metrics"].keys() == second["metrics"].keys()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run("grid", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
