"""Self-checks of the benchmark (``python -m pytest bench/ -q``).

Tier-1 ``testpaths`` stays ``tests``; these run only when asked for. Every
workload is driven through ``bench/run.py`` exactly as the driver does,
at ``--quick`` size.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def drive(workload: str, trace: int, *extra: str, cwd: str = REPO_ROOT,
          script: str = RUN):
    process = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )
    lines = process.stdout.strip().splitlines()
    return process, lines


def test_spec_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    names = (WORKLOADS + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    process, lines = drive(workload, 0)
    assert process.returncode == 0, process.stdout + process.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(expected)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == expected[name]
        assert entry["value"] > 0, f"{name} must never be 0"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    process, lines = drive(workload, 1)
    assert process.returncode == 0, process.stdout + process.stderr
    result = json.loads(lines[-1])
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == set(expected)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == expected[name]
        assert isinstance(entry["value"], (int, float))
    assert result["metrics"]["obs.spans"]["value"] > 0
    assert result["metrics"]["sim.instructions"]["value"] > 0
    trace_file = os.path.join(BENCH_DIR, "out", f"{workload}.trace.json")
    with open(trace_file) as handle:
        events = json.load(handle)["traceEvents"]
    assert any(event["name"] == "bench.repetition" for event in events)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_reference_fails_the_run(workload):
    process, lines = drive(workload, 0, "--plant-failure")
    assert process.returncode != 0
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ there is
    nothing to measure: non-zero exit, no result line."""
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__",
                                                  ".pytest_cache"))
    process, lines = drive("interp_mix", 0, cwd=str(tmp_path),
                           script=str(tmp_path / "bench" / "run.py"))
    assert process.returncode != 0
    assert not any(line.startswith("{") for line in lines)
