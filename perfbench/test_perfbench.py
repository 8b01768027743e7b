"""Tests of the benchmark harness, on tiny sizes of all four workloads.

    python3 -m pytest perfbench

Each test run starts the benchmark as the driver does and reads the JSON
object on its last stdout line.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(workload, trace, cwd=ROOT, seed=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def result(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, \
        proc.stdout
    return res["metrics"]


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_benchmark_json_matches_harness():
    assert WORKLOADS == list(run.CALL_S)
    assert units({m["name"]: m for m in BENCH["end_to_end"]}) \
        == dict(run.END_TO_END)
    assert units({m["name"]: m for m in BENCH["per_layer"]}) \
        == dict(tracing.LAYER_METRICS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result(workload, 0)
    assert units(metrics) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    metrics = result(workload, 1)
    assert units(metrics) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert all(m["value"] >= 0 for m in metrics.values())
    self_s = [m["value"] for name, m in metrics.items()
              if name.endswith(".self_s")]
    assert sum(self_s) <= metrics["trace.wall_s"]["value"]
    assert sum(1 for s in self_s if s > 0) >= 1


def test_walk_steps_repeat_for_a_seed():
    first = result("point", 0)
    second = result("point", 0)
    assert first["walk_steps"]["value"] == second["walk_steps"]["value"]


def test_self_time_excludes_child_spans():
    tr = tracing.Tracer()
    child = tr.wrap("child", lambda: time.sleep(0.02))

    def parent():
        time.sleep(0.01)
        child()
    tr.wrap("parent", parent)()
    assert tr.incl["child"] >= 0.02
    assert tr.self_s["parent"] == pytest.approx(
        tr.incl["parent"] - tr.incl["child"])
    assert tr.self_s["parent"] >= 0.009
    assert tr.self_s["child"] == tr.incl["child"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("point", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
