"""Smoke test of the benchmark at its smallest size (96 files per workload).

    python3 -m pytest -q perfbench

It checks that every metric named in BENCHMARK.json is reported and that
every correctness check runs. It asserts nothing about timings.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.5",
            "--trace", str(trace)]
    assert run.main(argv, smoke=True) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_and_checks(capsys, workload):
    lines, result = _run(capsys, workload, trace=0)
    import workloads  # importable once run.main has found the program
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    checks = next(line for line in lines if line.startswith("checks ")).split()[1:]
    expected = workloads.make_workload(workload, 7, workloads.SMOKE).checks
    assert set(checks) == set(expected) | {"output_stable"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics(capsys, workload):
    lines, result = _run(capsys, workload, trace=1)
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert "absent wrap targets: none" in lines


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "triage",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
