"""Smoke test of the benchmark: a few ops per workload, traced and untraced.

    python3 -m pytest perfbench/test_smoke.py

Takes about two minutes; most of it is two campaign batches.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def outcome(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    repeat = json.loads(next(line for line in lines if line.startswith("repeat: "))[len("repeat: "):])
    return json.loads(lines[-1]), repeat


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_printed_and_runs_repeat_exactly(workload):
    common = ["--workload", workload, "--seed", "7", "--seconds", "0.01", "--max-ops", "1"]
    plain, plain_repeat = outcome(run(*common, "--trace", "0"))
    traced, traced_repeat = outcome(run(*common, "--trace", "1"))
    for result, declared in ((plain, BENCHMARK["end_to_end"]), (traced, BENCHMARK["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(plain["metrics"][m["name"]]["value"] > 0 for m in BENCHMARK["end_to_end"])
    # tracing must not change what the program computes
    assert plain_repeat == traced_repeat


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "resolution", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
