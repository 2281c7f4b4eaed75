"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload for a moment, untraced and traced, and checks that the
result line names every metric BENCHMARK.json lists, with its unit, and
that every row matched its reference. Also checks that the seed changes
the generated inputs, that the benchmark refuses to run without the
program's sources, that step-time percentiles weigh every episode
equally, and that each operation's step times are scaled by its own
speed factor.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, Tally, _percentile, at_speed, import_rtss  # noqa: E402
from report import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def _bench(cwd: str, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, seed=3, trace=trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        if not trace:
            assert printed["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_the_seed_changes_the_inputs(workload):
    rt = import_rtss(os.path.join(ROOT, "src"))
    build = WORKLOADS[workload].build

    def inputs(seed):
        return repr(build(rt, seed)[:3])

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(str(tmp_path), "airspace-episodes", seed=1, trace=0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_step_percentiles_weigh_every_episode_equally():
    tally = Tally()
    tally.latency_ns = [1e6] * 10 + [5e6] * 2     # a long and a short episode
    tally.episode_starts = [0, 10]
    assert _percentile(tally, 40) == 1.0
    assert _percentile(tally, 60) == 5.0           # 10 of 12 samples, but half the weight
    tally.episode_starts = []
    assert _percentile(tally, 60) == 1.0


def test_each_operation_is_scaled_by_its_own_speed_factor():
    fast, slow = Tally(), Tally()
    fast.latency_ns, fast.cpu_factor = [1e6, 2e6], 4.0
    slow.latency_ns, slow.cpu_factor = [3e6], 1.0
    slow.episode_starts = [0]
    pooled = at_speed([fast, slow], 0.5)
    assert pooled.latency_ns == [2e6, 4e6, 3e6]
    assert pooled.episode_starts == [2]
    assert at_speed([fast], 1.0).latency_ns == [4e6, 8e6]
