"""Benchmark of the attempt loop under the scripted mock provider.

    python3 bench/run.py --workload repair_loop --seed 1 --seconds 10 --trace 0

Runs one workload in this process against the sources in ``src/``; nothing
sleeps and nothing touches the network, so the figures are the package's
own overhead. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics from traced passes, which alternate with untraced
ones to give the tracing overhead. ``--profile N`` prints
the cProfile top N of one pass instead and measures nothing. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 1 when any chain raised or missed its planned outcome.
Workloads and the layer each one stresses are described in README.md here.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("repair_loop", "chatty_replies", "wide_placement", "bench_sweep")
LAYERS = ("gateway", "preprocess", "prompting", "retrieval", "validation", "chain", "simulator", "harness")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="print the cProfile top N of one pass; measure nothing")
    return parser.parse_args(argv)


def _plain(name, fn, *_, **__):
    return fn


# The calibration loop: fixed pure-Python work that allocates nothing the
# garbage collector tracks, so the program's collections stay in its own
# time. CALIBRATION_MS is about its median on the 2-vCPU Xeon host the
# benchmark was built on; times are reported as if every calibration loop
# had taken that long.
CALIBRATION_ROUNDS = 500
CALIBRATION_MS = 0.14
_CAL_WORDS = tuple(f"w{i}" for i in range(64))
_CAL_INDEX = {word: i for i, word in enumerate(_CAL_WORDS)}


def calibration_s() -> float:
    """CPU seconds this thread takes for one calibration loop right now."""
    t0 = time.thread_time()
    total = 0
    for i in range(CALIBRATION_ROUNDS):
        word = _CAL_WORDS[i & 63]
        total += _CAL_INDEX[word] + len(word.upper()) + (i % 7)
    return time.thread_time() - t0


def calibrated(seconds: float, calibration: float) -> float:
    """``seconds`` taken at the speed that gave ``calibration`` seconds per
    calibration loop, rescaled to the nominal speed."""
    return seconds * (CALIBRATION_MS / 1000.0) / calibration


def timed_chain(fn, calibrate=calibration_s):
    """Run ``fn()`` between two calibration loops on the same thread.

    Returns its result, its CPU seconds, and the mean of the two loops'
    seconds: the host's speed as this chain saw it. A traced pass passes a
    ``calibrate`` that records each loop as a span, so no layer is charged
    with it."""
    before = calibrate()
    t0 = time.thread_time()
    try:
        result = fn()
    finally:
        cpu = time.thread_time() - t0
        after = calibrate()
    return result, cpu, (before + after) / 2.0


@dataclass
class Pass:
    """One pass over every chain of a workload.

    ``latencies`` maps each chain that ran to the calibrated CPU seconds of
    the thread that ran it. ``outcomes`` holds each chain's checked outcome,
    None for a chain that raised or never ran and for a wrong accuracy
    table. ``cpu`` is the process's CPU time over the pass, on every
    thread, and ``wall`` its wall time, both less the pass's calibration
    loops. ``chains`` holds each timed chain's uncalibrated CPU seconds and
    the mean of its two loops.
    """

    latencies: dict
    outcomes: list
    cpu: float
    wall: float
    chains: list

    @property
    def failed(self) -> int:
        return sum(o is None or not o.ok for o in self.outcomes)

    def calibrated_cpu(self) -> float:
        """The pass's CPU time, rescaled as its chains were: the speed can
        change within a pass, so each chain's loops weigh by its time."""
        raw = sum(cpu for cpu, _ in self.chains)
        return self.cpu * sum(calibrated(cpu, c) for cpu, c in self.chains) / raw if raw else self.cpu


def run_pass_timed(body) -> tuple:
    """Run ``body()``, which returns the (CPU seconds, calibration seconds)
    of every chain it timed, and return the pass's CPU and wall seconds
    less the calibration loops (two per chain), with those pairs."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    chains = body()
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    spent = 2.0 * sum(c for _, c in chains)
    return cpu - spent, wall - spent, chains


@dataclass
class Timing:
    """The timed passes of a run.

    Two things on a shared host move times that the program does not. The
    hypervisor takes the vCPU away for a varying share of each second
    (steal), which wall time counts and CPU time does not. And the CPU runs
    at speeds up to 2x apart, in spells of seconds, with a share of slow
    spells that changes between runs. So times are CPU times, and every
    one is calibrated: each chain runs between two calibration loops on
    its own thread, and its CPU time is rescaled by their mean against
    ``CALIBRATION_MS``; a pass's CPU time is rescaled as its chains were.
    A change to the program moves its own time and not the loop's,
    so it shows in full. A chain's latency is its median over the passes,
    and throughput is chains per pass over the median pass's CPU time, so
    costs paid in only some passes stay in.
    """

    passes: list[Pass] = field(default_factory=list)

    @property
    def chains(self) -> int:
        return sum(len(p.outcomes) for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes)

    def latencies_ms(self) -> list[float]:
        per_chain: dict = {}
        for p in self.passes:
            for key, seconds in p.latencies.items():
                per_chain.setdefault(key, []).append(seconds)
        return [1000.0 * statistics.median(times) for times in per_chain.values()]

    def chains_per_s(self) -> float:
        return len(self.passes[0].latencies) / statistics.median(p.calibrated_cpu() for p in self.passes)

    def wall_chains_per_s(self) -> float:
        """Chains per wall-clock second of the median pass, uncalibrated, for the record."""
        return len(self.passes[0].latencies) / statistics.median(p.wall for p in self.passes)

    def calibration_ms(self) -> float:
        return 1000.0 * statistics.median(c for p in self.passes for _, c in p.chains)


def within(seconds: float, step) -> None:
    """Call ``step()`` at least once, and again while one more call, as long
    as the longest so far, still ends within ``seconds``."""
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - start + longest > seconds:
            return


def timed(run_pass, seconds: float) -> Timing:
    """Closed loop of whole passes, so every run has the same mix of chains."""
    timing = Timing()
    within(seconds, lambda: timing.passes.append(run_pass()))
    return timing


@dataclass
class Outcome:
    """What the checker keeps of one chain: its stages, tokens and match."""

    stages: tuple
    resolved: bool
    attempts: int
    tokens: int
    ok: bool


def _stages(outcome) -> tuple:
    return tuple(r.feedback.failed_stage.value if r.feedback else None for r in outcome.attempt_history)


def _check(outcome, plan) -> Outcome:
    stages = _stages(outcome)
    ok = (
        stages == plan.failed_stages
        and outcome.resolved == plan.resolved
        and outcome.attempts_used == plan.attempts
        and not any(r.provider_error for r in outcome.attempt_history)
    )
    return Outcome(stages, outcome.resolved, outcome.attempts_used, outcome.total_tokens, ok)


_reported = 0


def _report_failure(what: str) -> None:
    global _reported
    _reported += 1
    if _reported <= 5:
        print(f"bench: {what}", file=sys.stderr)


class ChainRunner:
    """One client runs chains back to back and writes each transcript, as the CLI does."""

    def __init__(self, work, tmp: Path):
        from intentconf import OptimizationProfile

        self.work = work
        self.profile = OptimizationProfile.for_name(work.profile)
        self.transcripts = tmp / "transcripts"
        self.transcripts.mkdir()
        self.workers = 1

    def set_up(self, wrap=_plain, deployer_proxy=None):
        """The program's own set-up calls; returns the (chain, deps) pool."""
        from intentconf import (ChainDeps, ClusterModel, FewShotExample, MockProvider, NodeSpec,
                                SimulatedDeployer, Workload, build_index)
        from intentconf.gateway import mock_script_from_dict
        from intentconf.simulator import load_system_profiles

        w = self.work
        script = wrap("gateway.mock_script_from_dict", mock_script_from_dict)(w.script)
        shots = tuple(FewShotExample(**shot) for shot in w.shots)
        index = wrap("retrieval.build_index", build_index)(w.docs) if w.docs else None
        deployer = job = None
        if w.nodes:
            profiles = wrap("simulator.load_system_profiles", load_system_profiles)()
            model = ClusterModel(nodes=tuple(NodeSpec(cpu, mem) for cpu, mem in w.nodes))
            deployer = SimulatedDeployer(model=model, profiles=profiles)
            if deployer_proxy is not None:
                deployer = deployer_proxy(deployer)
            job = Workload(*w.job)
        provider = MockProvider(script)
        return [
            (c, ChainDeps(provider=provider, shots=shots, index=index, assertions=c.assertions,
                          deployer=deployer, workload=job, case_id=c.case_id))
            for c in w.chains
        ]

    def one_pass(self, pool, run_chain=None, write_transcript=None, calibrate=calibration_s) -> Pass:
        """Every chain once, each checked against its plan."""
        from intentconf import chain as chain_mod

        run_chain = run_chain or chain_mod.run_chain
        write_transcript = write_transcript or chain_mod.write_transcript
        latencies, outcomes = {}, []

        def body():
            timed = []
            for chain, deps in pool:
                def one(chain=chain, deps=deps):
                    outcome = run_chain(chain.request, self.profile, deps)
                    write_transcript(self.transcripts / f"{chain.case_id}.jsonl", outcome,
                                     case_id=chain.case_id, system=chain.request.system)
                    return outcome

                try:
                    outcome, cpu, calibration = timed_chain(one, calibrate)
                except Exception:
                    _report_failure(f"{chain.case_id} raised:\n{traceback.format_exc()}")
                    outcomes.append(None)
                    continue
                latencies[chain.case_id] = calibrated(cpu, calibration)
                timed.append((cpu, calibration))
                checked = _check(outcome, chain.plan)
                if not checked.ok:
                    _report_failure(f"{chain.case_id}: outcome {checked.stages} differs from plan "
                                    f"{chain.plan.failed_stages}")
                outcomes.append(checked)
            return timed

        return Pass(latencies, outcomes, *run_pass_timed(body))

    def traced_pass(self, pool, tracer) -> Pass:
        from intentconf import chain as chain_mod

        import spans

        with spans.install(tracer, self.work.embedded) as traced:
            return self.one_pass(
                pool,
                run_chain=traced("chain.run_chain", chain_mod.run_chain),
                write_transcript=traced("chain.write_transcript", chain_mod.write_transcript),
                calibrate=tracer.wrap(spans.CALIBRATION, calibration_s),
            )

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in sorted(self.transcripts.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()


class SweepRunner:
    """The dataset through load_dataset, load_mock_scripts and run_static_eval."""

    def __init__(self, work, tmp: Path):
        self.work = work
        self.root = tmp / "dataset"
        for rel, text in work.files.items():
            path = self.root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        self.workers = _nproc()
        self._table_json = ""

    def set_up(self, wrap=_plain, deployer_proxy=None):
        from intentconf import FewShotExample, MockProvider, OptimizationProfile, build_index
        from intentconf import harness

        w = self.work
        cases = wrap("harness.load_dataset", harness.load_dataset)(self.root)
        script = wrap("harness.load_mock_scripts", harness.load_mock_scripts)(self.root)
        shots = {system: tuple(FewShotExample(**s) for s in items) for system, items in w.shots.items()}
        index = wrap("retrieval.build_index", build_index)(w.docs)
        deps = harness.HarnessDeps(provider=MockProvider(script), shots_by_system=shots, index=index)
        return cases, [OptimizationProfile.for_name(p) for p in w.profiles], deps

    def one_pass(self, pool, run_static_eval=None, calibrate=calibration_s) -> Pass:
        """One run_static_eval call, each chain timed and checked through harness.run_chain."""
        from intentconf import harness

        run_static_eval = run_static_eval or harness.run_static_eval
        cases, profiles, deps = pool
        inner = harness.run_chain
        done: list = []  # list.append is atomic, so pool threads share it without a lock

        def checked_chain(request, profile, chain_deps):
            outcome, cpu, calibration = timed_chain(lambda: inner(request, profile, chain_deps), calibrate)
            key = (profile.name, chain_deps.case_id)
            done.append((key, cpu, calibration, _check(outcome, self.work.plans[key])))
            return outcome

        table = None

        def body():
            nonlocal table
            harness.run_chain = checked_chain
            try:
                table = run_static_eval(cases, profiles, deps, workers=self.workers)
            except Exception:
                _report_failure(f"run_static_eval raised:\n{traceback.format_exc()}")
            finally:
                harness.run_chain = inner
            return [(cpu, calibration) for _, cpu, calibration, _ in done]

        cpu, wall, timed = run_pass_timed(body)
        for key, _, _, result in done:
            if not result.ok:
                _report_failure(f"{key}: outcome {result.stages} differs from plan "
                                f"{self.work.plans[key].failed_stages}")
        if table is not None and table.counts != self.work.counts:
            _report_failure(f"accuracy counts {table.counts} differ from plan {self.work.counts}")
            table = None
        if table is not None:
            self._table_json = harness.accuracy_table_to_json(table)
        missing = len(cases) * len(profiles) - len(done)
        outcomes = [r for *_, r in done] + [None] * (missing if table is not None else max(missing, 1))
        latencies = {key: calibrated(cpu, calibration) for key, cpu, calibration, _ in done}
        return Pass(latencies, outcomes, cpu, wall, timed)

    def traced_pass(self, pool, tracer) -> Pass:
        from intentconf import harness

        import spans

        with spans.install(tracer, self.work.embedded) as traced:
            return self.one_pass(pool, run_static_eval=traced(
                "harness.run_static_eval", harness.run_static_eval, ambient=True),
                calibrate=tracer.wrap(spans.CALIBRATION, calibration_s))

    def digest(self) -> str:
        return hashlib.sha256(self._table_json.encode()).hexdigest()


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# Set-up is timed in samples of at least SET_UP_SAMPLE_S of CPU time, a
# short set-up repeated to fill one, until SET_UP_BLOCK_S have been spent.
SET_UP_SAMPLE_S = 0.01
SET_UP_BLOCK_S = 0.05


def _time_set_up(runner) -> list[float]:
    """Calibrated CPU seconds per set-up, one figure per sample, against
    calibration loops run just before and after the block of samples."""
    loops = [calibration_s() for _ in range(15)]
    samples = []
    start = time.process_time()
    while not samples or time.process_time() - start < SET_UP_BLOCK_S:
        repeats = 0
        t0 = time.process_time()
        while not repeats or time.process_time() - t0 < SET_UP_SAMPLE_S:
            runner.set_up()  # what it returns is freed at once, inside the sample
            repeats += 1
        samples.append((time.process_time() - t0) / repeats)
    loops += [calibration_s() for _ in range(15)]
    speed = statistics.median(loops)
    return [calibrated(seconds, speed) for seconds in samples]


def end_to_end(checked, timing: Timing, setup_s: float) -> dict:
    done = [c for c in checked if c is not None]
    lat_ms = timing.latencies_ms()
    p90 = statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) >= 2 else lat_ms[0]
    return {
        "chains_per_s": _metric(timing.chains_per_s(), "1/s"),
        "chain_p50_ms": _metric(statistics.median(lat_ms), "ms"),
        "chain_p90_ms": _metric(p90, "ms"),
        "resolved_pct": _metric(100.0 * sum(c.resolved for c in done) / len(checked), "%"),
        "attempts_per_chain": _metric(sum(c.attempts for c in done) / len(checked), "count"),
        "tokens_per_chain": _metric(sum(c.tokens for c in done) / len(checked), "count"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, setup_tracer, timing: Timing, untraced: Timing, workers: int) -> dict:
    import spans

    by_name: dict[str, list] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    setup_by_name: dict[str, list] = {}
    for span in setup_tracer.spans:
        setup_by_name.setdefault(span.name, []).append(span)
    selfs = spans.self_times(tracer.spans)
    samples = tracer.samples
    chains = max(len(by_name.get("chain.run_chain", ())), 1)

    def mean_ms(name, own=False):
        items = by_name.get(name, ())
        if not items:
            return 0.0
        if own:
            return 1000.0 * sum(selfs[id(s)] for s in items) / len(items)
        return 1000.0 * sum(s.end - s.start for s in items) / len(items)

    def mean_s(name):
        items = by_name.get(name) or setup_by_name.get(name) or ()
        return sum(s.end - s.start for s in items) / len(items) if items else 0.0

    def mean(name, scale=1.0):
        values = samples.get(name, ())
        return scale * sum(values) / len(values) if values else 0.0

    def calls(name):
        return _metric(len(by_name.get(name, ())), "count")

    replies = len(by_name.get("preprocess.preprocess_reply", ()))
    sweep = by_name.get("harness.run_static_eval", ())
    pooled = [s for s in by_name.get("chain.run_chain", ()) if s.parent is not None
              and s.parent.name == "harness.run_static_eval"]
    # Pool threads run the calibration loops in turn, inside the sweep.
    swept_calibration = sum(s.end - s.start for s in by_name.get(spans.CALIBRATION, ())
                            if s.parent is not None and s.parent.name == "harness.run_static_eval")
    sweep_wall = sum(s.end - s.start for s in sweep)
    attempts = sum(samples.get("chain.attempts", ()))
    out = {
        "gateway.complete.ms": _metric(mean_ms("gateway.complete"), "ms"),
        "gateway.complete.calls": calls("gateway.complete"),
        "preprocess.preprocess_reply.ms": _metric(mean_ms("preprocess.preprocess_reply"), "ms"),
        "preprocess.preprocess_reply.calls": calls("preprocess.preprocess_reply"),
        "preprocess.yaml_parses_per_reply": _metric(
            len(samples.get("yaml.load_all", ())) / replies if replies else 0.0, "count"),
        "preprocess.exact_extract_pct": _metric(mean("preprocess.exact_extract", 100.0), "%"),
        "prompting.build_prompt.ms": _metric(mean_ms("prompting.build_prompt"), "ms"),
        "prompting.build_prompt.calls": calls("prompting.build_prompt"),
        "prompting.user_message_chars": _metric(mean("prompting.user_message_chars"), "count"),
        "prompting.verify_alignment.ms": _metric(mean_ms("prompting.verify_alignment"), "ms"),
        "prompting.verify_alignment.calls": calls("prompting.verify_alignment"),
        "retrieval.retrieve.ms": _metric(mean_ms("retrieval.retrieve"), "ms"),
        "retrieval.retrieve.calls": calls("retrieval.retrieve"),
        "retrieval.build_index.s": _metric(mean_s("retrieval.build_index"), "s"),
        "validation.evaluate.ms": _metric(mean_ms("validation.evaluate"), "ms"),
        "validation.evaluate.calls": calls("validation.evaluate"),
        "simulator.deploy.ms": _metric(mean_ms("simulator.deploy"), "ms"),
        "simulator.deploy.calls": calls("simulator.deploy"),
        "simulator.deploy_fail_pct": _metric(mean("simulator.deploy_failed", 100.0), "%"),
        "simulator.log_lines_per_deploy": _metric(mean("simulator.log_lines"), "count"),
        "simulator.benchmark.ms": _metric(mean_ms("simulator.benchmark"), "ms"),
        "simulator.benchmark.calls": calls("simulator.benchmark"),
        "chain.run_chain.self_ms": _metric(mean_ms("chain.run_chain", own=True), "ms"),
        "chain.run_chain.calls": calls("chain.run_chain"),
        "chain.write_transcript.ms": _metric(mean_ms("chain.write_transcript"), "ms"),
        "chain.write_transcript.calls": calls("chain.write_transcript"),
        "chain.transcript_bytes": _metric(mean("chain.transcript_bytes"), "bytes"),
        "chain.resolved_per_attempt": _metric(
            sum(samples.get("chain.resolved", ())) / attempts if attempts else 0.0, "ratio"),
        "harness.load_dataset.s": _metric(mean_s("harness.load_dataset"), "s"),
        "harness.load_mock_scripts.s": _metric(mean_s("harness.load_mock_scripts"), "s"),
        "harness.run_static_eval.s": _metric((sweep_wall - swept_calibration) / len(sweep) if sweep else 0.0, "s"),
        "harness.run_static_eval.calls": calls("harness.run_static_eval"),
        "harness.worker_busy_pct": _metric(
            100.0 * sum(s.end - s.start for s in pooled) / (sweep_wall * workers) if sweep_wall else 0.0,
            "%"),
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span in tracer.spans:
        if span.name != spans.CALIBRATION:
            layer_self[span.name.split(".", 1)[0]] += selfs[id(span)]
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_chain"] = _metric(1000.0 * layer_self[layer] / chains, "ms")
    out["gc.ms_per_chain"] = _metric(1000.0 * sum(tracer.gc_pauses) / chains, "ms")
    out["gc.collections_per_chain"] = _metric(len(tracer.gc_pauses) / chains, "count")
    # Each ratio compares an untraced and a traced pass run back to back.
    ratio = statistics.median(t.calibrated_cpu() / u.calibrated_cpu()
                              for u, t in zip(untraced.passes, timing.passes))
    out["trace.chains_per_s_untraced"] = _metric(untraced.chains_per_s(), "1/s")
    out["trace.chains_per_s_traced"] = _metric(timing.chains_per_s(), "1/s")
    out["trace.overhead_pct"] = _metric(100.0 * (ratio - 1.0), "%")
    out["host.calibration_ms"] = _metric(untraced.calibration_ms(), "ms")
    return out


def environment(args, runner, attempted: int, pool_chains: int) -> dict:
    import yaml

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": _nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
        "workers": runner.workers,
        "chains_per_pass": pool_chains,
        "chains_run": attempted,
        "machine": platform.machine(),
    }


def _profile(runner, top: int) -> None:
    profiler = cProfile.Profile()
    profiler.enable()
    pool = runner.set_up()
    runner.one_pass(pool)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(top)
    stats.sort_stats("tottime").print_stats(top)


def measure(args, runner) -> tuple[dict, dict]:
    pool = runner.set_up()
    check = runner.one_pass(pool)  # also the warm-up
    checked, failed, attempted = check.outcomes, check.failed, len(check.outcomes)
    digest = runner.digest()
    info = {"transcript_sha256": digest}
    if args.trace == 0:
        # Set-up is short next to a run, so it is repeated before every
        # timed pass and its median reported: the repeats see the host over
        # the same stretch of time as the passes.
        setup_times = []

        def run_pass():
            setup_times.extend(_time_set_up(runner))
            return runner.one_pass(pool)

        untraced = timed(run_pass, args.seconds)
        metrics = end_to_end(checked, untraced, statistics.median(setup_times))
    else:
        import spans

        setup_tracer, tracer = spans.Tracer(), spans.Tracer()
        traced_pool = runner.set_up(wrap=setup_tracer.wrap,
                                    deployer_proxy=lambda real: spans.TracedDeployer(real, tracer))
        # Untraced and traced passes alternate, in turn first within each
        # pair; the untraced ones give the overhead.
        untraced, timing = Timing(), Timing()

        def pair():
            if len(timing.passes) % 2:
                timing.passes.append(runner.traced_pass(traced_pool, tracer))
                untraced.passes.append(runner.one_pass(pool))
            else:
                untraced.passes.append(runner.one_pass(pool))
                timing.passes.append(runner.traced_pass(traced_pool, tracer))

        within(args.seconds, pair)
        attempted += timing.chains
        failed += timing.failed
        metrics = per_layer(tracer, setup_tracer, timing, untraced, runner.workers)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write(spans_path)
        info["spans"] = str(spans_path.relative_to(ROOT))
    after = runner.digest()
    if after != digest:
        _report_failure(f"transcripts changed between passes of the same inputs: {digest} vs {after}")
        failed += 1
    attempted += untraced.chains
    failed += untraced.failed
    info["error_pct"] = 100.0 * failed / attempted
    info["sample_count"] = untraced.chains
    info["passes"] = len(untraced.passes)
    # What the host gave this run, before calibration.
    info["calibration_ms"] = untraced.calibration_ms()
    info["wall_chains_per_s"] = untraced.wall_chains_per_s()
    info["env"] = environment(args, runner, attempted, len(checked))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, info


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "intentconf" / "__init__.py").is_file():
        print(f"bench: no package sources at {src / 'intentconf'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import intentconf

    if Path(intentconf.__file__).resolve().parent != (src / "intentconf").resolve():
        print(f"bench: intentconf imported from {intentconf.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        work = workloads.GENERATORS[args.workload](args.seed)
        runner = (SweepRunner if args.workload == "bench_sweep" else ChainRunner)(work, tmp)
        if args.profile:
            _profile(runner, args.profile)
            return 0
        result, info = measure(args, runner)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"chains timed {info['sample_count']} in {info['passes']} passes  error_pct {info['error_pct']:.4f}")
    print(f"  calibration loop {info['calibration_ms']:.4f} ms here against {CALIBRATION_MS} ms nominal; "
          f"chains per wall-clock second, uncalibrated, {info['wall_chains_per_s']:.3f}")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:14.6f} {metric['unit']}")
    if args.trace == 1:
        print("  (preprocess.yaml_parses_per_reply counts yaml.load_all calls made by "
              "intentconf.preprocess; it is valid only while preprocess calls yaml.load_all)")
    print("env " + json.dumps(info["env"], sort_keys=True))
    record = dict(result, **info)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
