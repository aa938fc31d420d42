"""Smoke-size runs of the benchmark (``--smoke``: a few seconds each).

They check the output contract -- the last stdout line is a JSON object
naming every metric ``BENCHMARK.json`` lists -- and that the benchmark
refuses to run in a checkout without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_end_to_end_metric(workload):
    code, result, proc = _run(workload, trace=0)
    assert code == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    code, result, proc = _run("campaign-cold", trace=1)
    assert code == 0, proc.stdout + proc.stderr
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["backends.kernel.calls"]["value"] > 0
    assert result["metrics"]["store.put.calls"]["value"] > 0


@pytest.mark.xfail(strict=True, reason=(
    "known defect: the budgeted ladder answers asymmetric 0.2/0.02 with "
    "bound_interval [33000, 35200], which excludes the exact worst case "
    "65032"
))
def test_budgeted_worst_case_intervals_contain_the_exact_answer():
    code, result, _proc = _run("budgeted-worst-case", trace=0)
    assert code == 0 and result["correct"]


def test_checkout_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result, _proc = _run("campaign-cold", trace=0, cwd=tmp_path)
    assert code != 0 and result is None
