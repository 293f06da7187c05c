"""The benchmark's own tests, at the tiny size.

Run with ``python -m pytest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads as wl

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)


def _tiny(workload: str, trace: bool, expected=None) -> dict:
    return run.measure(workload, run.DEFAULT_SEED, 0.0, trace, size="tiny",
                       expected=expected, setup_samples=1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", wl.WORKLOAD_NAMES)
def test_tiny_pass_emits_every_metric(workload: str, trace: bool) -> None:
    result = _tiny(workload, trace)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] > 0
    line = json.loads(run.result_line([(workload, result)]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: slot["unit"] for name, slot in line["metrics"].items()
    }
    for name, slot in line["metrics"].items():
        assert math.isfinite(slot["value"]), name
        if not trace:
            assert slot["value"] > 0, name


def test_traced_pass_attributes_time_to_layers() -> None:
    result = _tiny("campaign_small", True)
    names = {row[0] for row in result["tracer"].self_time_table()}
    assert {"op", "apps.make_workload", "deps.submit_all", "sim.run",
            "graph.analysis", "deps.invalidate_region_caches",
            "campaign.store_append"} <= names
    metrics = result["metrics"]
    # The fault and RSU paths ran.
    assert metrics["faults.fired"] > 0
    assert metrics["rsu.critical_tasks_started"] > 0


def test_corrupted_expected_value_fails() -> None:
    expected = run.load_expected()
    row = next(r for r in expected if r[:2] == ["dag_batch", "tiny"])
    row[4] = math.nextafter(row[4], math.inf)  # makespan, one ulp off
    result = _tiny("dag_batch", False, expected=expected)
    assert result["failed"] == 1
    assert result["failed"] / result["attempted"] > 0
    assert "makespan" in result["failures"][0][1]
    assert json.loads(run.result_line([("dag_batch", result)]))[
        "correct"] is False


def test_fails_without_the_program(tmp_path) -> None:
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_full_speed_times_drop_slow_operations_and_keep_gc() -> None:
    # Two rounds of keys a and b.  The second round's b ran in a slow
    # spell (its closing probe read 2x the fastest), so only its first
    # instance counts.  Garbage collection, 1.5 s against 15.5 s of
    # other work over all four operations, is spread over both keys.
    rounds = []
    for seconds_b, gc_b, speed in ((2.0, 0.0, [1.0, 1.0, 1.0]),
                                   (9.0, 0.5, [1.0, 1.1, 2.0])):
        rnd = wl.Round()
        rnd.ops = [wl.Op("a", 3.0, 10, None, gc_seconds=0.5),
                   wl.Op("b", seconds_b, 30, None, gc_seconds=gc_b)]
        rnd.speed = speed
        rounds.append(rnd)
    times, tasks, share = run.full_speed_times(rounds, fastest=1.0)
    gc_scale = 1.0 + 1.5 / 15.5
    assert times == {"a": 2.5 * gc_scale, "b": 2.0 * gc_scale}
    assert tasks == {"a": 10, "b": 30}
    assert share == 0.75
