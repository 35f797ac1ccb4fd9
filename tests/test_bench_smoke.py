"""The benchmark still runs against the package: a short pass of each workload.

The benchmark imports and patches names from the package (the module
globals ``bench/spans.py`` swaps, the dataset levels, the mock-script
reader, the deployer's optional ``benchmark`` method), and nothing else
under ``tests/`` would notice when one of them breaks.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("repair_loop", "chatty_replies", "wide_placement", "bench_sweep")
RUNS = [*((workload, 0) for workload in WORKLOADS), ("repair_loop", 1), ("bench_sweep", 1)]


@pytest.mark.parametrize("workload,trace", RUNS, ids=[f"{w}-trace{t}" for w, t in RUNS])
def test_short_run_is_correct(workload, trace):
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "0.1"]
    result = subprocess.run(
        [*command, "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    last = result.stdout.strip().splitlines()[-1]
    assert '"correct": true' in last
    assert json.loads(last)["correct"] is True
