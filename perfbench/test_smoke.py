"""Smoke tests of the benchmark: every workload, timed and traced, at the
small sizes of ``--smoke``, through the same correctness checks as a full
run. A changed CLI or a broken check fails here in seconds.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_its_checks(workload, trace):
    r = run_bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, r.stderr
    assert result["failed"] == 0, r.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "traces", "results", "__pycache__"))
    r = run_bench(tmp_path, "--workload", "style-classrooms", "--seed", "0", "--seconds", "1",
                  "--trace", "0")
    assert r.returncode != 0
    assert '"correct"' not in r.stdout
