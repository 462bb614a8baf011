"""Fast checks of the benchmark harness itself.

    python3 -m pytest perfbench

Each workload runs at smoke size, untraced and traced, through the same
command line the full benchmark uses.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from clock import Clock  # noqa: E402
from workloads import (  # noqa: E402
    MIX_MODES,
    MIX_TASKS,
    WORKLOADS,
    QuinticSmallMirror,
    config_catalog,
    config_stream,
    shape_key,
)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_names_the_harness_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_config_stream_is_a_pure_function_of_the_seed():
    shapes = config_catalog()
    assert config_catalog() == shapes
    assert config_stream(7, shapes) == config_stream(7, shapes)
    assert config_stream(7, shapes) != config_stream(8, shapes)
    for seed in (0, 7):
        stream = config_stream(seed, shapes)
        assert sorted(key for key, _ in stream) == sorted(shape_key(s) for s in shapes)
        for key, text in stream:
            config = json.loads(text)
            config["tasks"] = sorted(config["tasks"])
            assert shape_key(config) == key


def test_config_catalog_covers_the_stated_ranges():
    shapes = config_catalog()
    assert {s["ambient_dim"] for s in shapes} == set(range(3, 9))
    assert {s["max_degree"] for s in shapes} == set(range(2, 7))
    assert {s["mode"] for s in shapes} == set(MIX_MODES)
    assert set().union(*(s["tasks"] for s in shapes)) == set(MIX_TASKS)
    assert any(
        s["mode"] == "equivariant" and "mirror" in s["tasks"]
        and sum(s["degrees"]) > s["ambient_dim"]
        for s in shapes
    )
    for s in shapes:
        if s["mode"] != "equivariant" and "mirror" in s["tasks"]:
            assert sum(s["degrees"]) <= s["ambient_dim"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    latencies = {f"job{i}": [i + 1.0, i + 1.0, 100.0] for i in range(25)}
    p50, tail, pct, n, repeats = run.job_latencies(latencies)
    assert (p50, tail, n, repeats) == (13.0, 15.0, 25, 3)
    assert pct == pytest.approx(60.0)
    assert run.job_latencies({"only": [3.0, 1.0, 2.0]})[:3] == (2.0, 2.0, 100.0)


def test_clock_scales_each_job_by_the_host_speed_around_and_during_it():
    clock = Clock()
    clock.brackets = [(0.01, 10), (0.06, 20), (0.01, 20)]
    clock.inside = [(0.0, 0), (0.03, 10)]
    clock.raw = [("a", 2.0), ("b", 2.0)]
    # a: 0.07 s over 30 iterations; b: 0.10 s over 50 iterations
    assert clock.jobs() == [("a", pytest.approx(2.0 * 30 / 70)), ("b", pytest.approx(1.0))]
    assert clock.time("c", time.sleep, 0.2) is None
    assert clock.raw[-1][0] == "c" and 0.15 < clock.raw[-1][1] < 0.35
    assert clock.inside[-1][1] >= 2 and len(clock.brackets) == 4
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_changed_output_fails_the_hash_check():
    sys.path.insert(0, run.SRC)
    q = run.import_engine()
    workload = QuinticSmallMirror("smoke")
    inputs = workload.setup(q, 0, None)
    text = workload.run_pass(q, inputs, Clock(sample=False))
    assert workload.check(q, inputs, text) == {}
    workload.expected = {}
    assert "sha256" in workload.check(q, inputs, text)[workload.name]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for spec in BENCHMARK["end_to_end"]:
        value = result["metrics"][spec["name"]]
        assert value["unit"] == spec["unit"] and value["value"] > 0
    assert "fail_ratio = 0" in proc.stdout


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced_run_prints_every_per_layer_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "1", "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    for spec in BENCHMARK["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    stem = os.path.join(HERE, "_work", f"trace_{workload}")
    with open(stem + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    assert os.path.getsize(stem + ".spans") == 32 * meta["spans"]
    assert meta["spans"] == result["metrics"]["trace.spans"]["value"] > 0


def test_traced_call_counts_repeat():
    counts = []
    for seed in ("4", "5"):
        proc = bench("--workload", "config_mix", "--seed", seed, "--seconds", "1",
                     "--trace", "1", "--size", "smoke")
        assert proc.returncode == 0, proc.stderr
        metrics = result_line(proc)["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] > 0


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench("--workload", "verify_all", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
