"""Smoke test of the benchmark at a tiny batch size (about a minute).

Run from the repository root:

    python3 -m pytest perfbench/selftest.py

The file name keeps it out of the default test collection, so the
project's own suite does not start benchmark processes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
TINY = ("--seconds", "0.2", "--scale", "0.05")


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _worker(seed, workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--mode", "trace", "--scale", "0.05",
         "--t-spawn", repr(time.time())],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--trace", trace, *TINY)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fingerprint_repeats_at_one_seed(workload):
    first, second, other = _worker(5, workload), _worker(5, workload), _worker(6, workload)
    assert first["fingerprint_stable"] and first["trace"]["counts_stable"]
    assert first["fingerprint"] == second["fingerprint"]
    assert first["trace"]["passes"][-1]["counts"] == second["trace"]["passes"][-1]["counts"]
    assert first["fingerprint"] != other["fingerprint"]


def test_refuses_a_directory_without_the_program():
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                    "--trace", "0")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
