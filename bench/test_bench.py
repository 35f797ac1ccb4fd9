"""Tests of the benchmark itself: seeded inputs, the outcome checker, the
transcript hash, span self time and the refusal to run without sources.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "repair_loop": {"chains": 8},
    "chatty_replies": {"chains": 4},
    "wide_placement": {"chains": 3},
    "bench_sweep": {"cases": 20},
}


def _generate(name: str, seed: int):
    return workloads.GENERATORS[name](seed, **SMALL[name])


def _runner(name: str, seed: int, tmp: Path, work=None):
    tmp.mkdir(parents=True, exist_ok=True)
    work = work or _generate(name, seed)
    cls = run.SweepRunner if name == "bench_sweep" else run.ChainRunner
    return cls(work, tmp)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    first, again, other = _generate(name, 7), _generate(name, 7), _generate(name, 8)
    assert dataclasses.asdict(first) == dataclasses.asdict(again)
    assert dataclasses.asdict(first) != dataclasses.asdict(other)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_chain_meets_its_plan(name, tmp_path):
    runner = _runner(name, 3, tmp_path)
    checked = runner.one_pass(runner.set_up()).outcomes
    assert checked and all(c is not None and c.ok for c in checked)


def test_checker_flags_a_wrong_planned_outcome(tmp_path):
    work = _generate("repair_loop", 3)
    victim = work.chains[0]
    wrong = workloads.Plan(("Deployment",) + victim.plan.failed_stages)
    work.chains[0] = dataclasses.replace(victim, plan=wrong)
    runner = _runner("repair_loop", 3, tmp_path, work)
    checked = runner.one_pass(runner.set_up()).outcomes
    assert [c.ok for c in checked].count(False) == 1
    assert not checked[0].ok


def test_checker_flags_wrong_sweep_accuracy(tmp_path):
    work = _generate("bench_sweep", 3)
    cell = next(iter(work.counts))
    passed, total = work.counts[cell]
    work.counts[cell] = (passed - 1, total)
    runner = _runner("bench_sweep", 3, tmp_path, work)
    checked = runner.one_pass(runner.set_up()).outcomes
    assert any(c is None for c in checked)


def test_transcript_hash_repeats_per_seed_and_moves_with_it(tmp_path):
    digests = []
    for n, seed in enumerate((5, 5, 6)):
        runner = _runner("repair_loop", seed, tmp_path / str(n))
        runner.one_pass(runner.set_up()).outcomes
        digests.append(runner.digest())
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_traced_run_counts_layers(tmp_path):
    runner = _runner("repair_loop", 3, tmp_path)
    untraced = run.timed(lambda: runner.one_pass(runner.set_up()), 0.0)
    tracer, setup_tracer = spans.Tracer(), spans.Tracer()
    pool = runner.set_up(wrap=setup_tracer.wrap,
                         deployer_proxy=lambda real: spans.TracedDeployer(real, tracer))
    timing = run.Timing([runner.traced_pass(pool, tracer)])
    assert timing.failed == 0
    metrics = run.per_layer(tracer, setup_tracer, timing, untraced, runner.workers)
    chains = len(pool)
    assert metrics["chain.run_chain.calls"]["value"] == chains
    assert metrics["chain.write_transcript.calls"]["value"] == chains
    assert metrics["retrieval.retrieve.calls"]["value"] == chains
    assert metrics["preprocess.yaml_parses_per_reply"]["value"] >= 2
    assert metrics["retrieval.build_index.s"]["value"] > 0
    assert metrics["chain.resolved_per_attempt"]["value"] == pytest.approx(6 / 18)


def test_timing_takes_medians_of_calibrated_times():
    ok = run.Outcome((None,), True, 1, 10, True)
    nominal = run.CALIBRATION_MS / 1000.0
    passes = [
        run.Pass({"a": 0.001, "b": 0.004}, [ok, ok], 1.0, 1.5, [(0.001, nominal)]),
        run.Pass({"a": 0.003, "b": 0.002}, [ok, ok], 4.0, 5.0, [(0.001, 2 * nominal), (0.003, 2 * nominal)]),
        run.Pass({"a": 0.002, "b": 0.009}, [ok, None], 2.0, 2.5, [(0.002, nominal / 2)]),
    ]
    timing = run.Timing(passes)
    assert sorted(timing.latencies_ms()) == pytest.approx([2.0, 4.0])
    # Each pass is rescaled as its chains were: 1.0, 4.0 / 2 and 2.0 * 2, so the
    # median pass takes 2 s.
    assert timing.chains_per_s() == pytest.approx(2 / 2.0)
    assert timing.wall_chains_per_s() == pytest.approx(2 / 2.5)
    assert (timing.chains, timing.failed) == (6, 1)


def test_calibration_rescales_to_the_nominal_loop():
    nominal = run.CALIBRATION_MS / 1000.0
    assert run.calibrated(0.010, 2 * nominal) == pytest.approx(0.005)
    result, cpu, calibration = run.timed_chain(lambda: sum(range(1000)))
    assert result == sum(range(1000)) and cpu > 0 and calibration > 0


def test_calibration_loop_leaves_the_collector_alone():
    # Collections the program triggers belong in its own time, so the loop
    # keeps no object the collector tracks.
    run.calibration_s()
    before = gc.get_count()[0]
    run.calibration_s()
    assert gc.get_count()[0] <= before


def test_install_times_garbage_collections_until_it_exits():
    tracer = spans.Tracer()
    with spans.install(tracer, {}):
        gc.collect()
    gc.collect()
    assert len(tracer.gc_pauses) == 1 and tracer.gc_pauses[0] >= 0


def test_self_time_subtracts_the_union_of_children():
    parent = spans.Span("harness.run_static_eval", 0.0, None, "")
    parent.end = 10.0
    children = []
    for start, end in ((1.0, 4.0), (2.0, 5.0), (8.0, 12.0)):
        child = spans.Span("chain.run_chain", start, parent, "c")
        child.end = end
        children.append(child)
    selfs = spans.self_times([parent, *children])
    # Children cover [1, 5] and [8, 10] of the parent's [0, 10].
    assert selfs[id(parent)] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[id(children[0])] == pytest.approx(3.0)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "repair_loop", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
