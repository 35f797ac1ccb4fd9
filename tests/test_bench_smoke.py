"""The benchmark still runs against the package: a short pass of each workload.

The benchmark imports and patches names from the package (the module
globals ``bench/spans.py`` swaps, the dataset levels, the mock-script
reader, the deployer's optional ``benchmark`` method), and nothing else
under ``tests/`` would notice when one of them breaks. Each run's
transcript digest is pinned too: mock-provider transcripts are meant to
stay byte-identical, so a change that moves one must update its pin here
and say why. The digest depends on the seed, not on how many passes fit.

The runs use a copy of ``src/`` and ``bench/``, so the records they write
land in the copy's ``.bench_out/`` and not over the working tree's.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("repair_loop", "chatty_replies", "wide_placement", "bench_sweep")
RUNS = [*((workload, 0) for workload in WORKLOADS), ("repair_loop", 1), ("bench_sweep", 1)]
SEED = 1
TRANSCRIPT_SHA256 = {
    "repair_loop": "6cf2fff8abacaaf54c7c4aa2f255a45cba60caced114eb360c7cba10062f8479",
    "chatty_replies": "29f71c12637acd88c6726fcaf56c8dcd68221d0a499913350f5f7f1e0ea7111b",
    "wide_placement": "26fa667d4e3bb36e4e29da154d43e240d3472768d621024a067133a6aa017225",
    "bench_sweep": "f7de68c87068c0672b533af810dab937c0bd241c8f345d1a840062b2f1e3701f",
}


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A copy of the sources the benchmark builds from, to run it in."""
    copy = tmp_path_factory.mktemp("checkout")
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


@pytest.mark.parametrize("workload,trace", RUNS, ids=[f"{w}-trace{t}" for w, t in RUNS])
def test_short_run_is_correct(checkout, workload, trace):
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "0.1",
               "--seed", str(SEED)]
    result = subprocess.run(
        [*command, "--trace", str(trace)],
        cwd=checkout,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    last = result.stdout.strip().splitlines()[-1]
    assert '"correct": true' in last
    assert json.loads(last)["correct"] is True
    record = checkout / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}.json"
    digest = json.loads(record.read_text(encoding="utf-8"))["transcript_sha256"]
    assert digest == TRANSCRIPT_SHA256[workload]
