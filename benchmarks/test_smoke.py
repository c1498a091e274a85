"""Smoke tests of the benchmark at --scale smoke (180 records x 512 samples).

    python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "benchmarks" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
# eval is not in BENCHMARK.json but stays runnable, so it is tested too
@pytest.mark.parametrize("workload", ["train", "eval", "predict", "extract"])
def test_workload_reports_every_metric_and_passes_its_gates(workload, trace):
    # train needs a few epochs for the tiny set to reach the accuracy gate
    seconds = "8" if workload == "train" else "1"
    done = run("--workload", workload, "--seed", "3", "--seconds", seconds,
               "--trace", trace, "--scale", "smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95


def test_missing_entry_point_fails_loudly(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    training = tmp_path / "src" / "semgrasp" / "training.py"
    training.write_text(training.read_text().replace("def evaluate(", "def evaluate_sets("))
    done = run("--workload", "extract", "--seconds", "1", "--scale", "smoke", root=tmp_path)
    assert done.returncode == 2
    assert "semgrasp.training.evaluate" in done.stderr
    assert '"metrics"' not in done.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run("--workload", "train", "--seconds", "1", root=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert not (tmp_path / ".bench").exists()
