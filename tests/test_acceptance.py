"""Acceptance suite: ten pinned behaviours, one pass/fail line each.

Every test runs against the mock provider and the simulator only, so the
whole suite is deterministic and network-free. Timed criteria check their
own wall-clock budget.
"""

import json
import random
import statistics
import time

import pytest
import yaml
from click.testing import CliRunner

from intentconf.chain import (
    ChainDeps,
    Stage,
    TranscriptStats,
    read_transcript,
    run_chain,
    write_transcript,
)
from intentconf.cli import main as cli_main
from intentconf.gateway import (
    MockProvider,
    MockReply,
    MockScript,
    SamplingParams,
    clamp_for_determinism,
)
from intentconf.harness import (
    HarnessDeps,
    cost_report,
    load_dataset,
    resolution_curve,
    run_static_eval,
)
from intentconf.preprocess import (
    StructuralError,
    StructuralErrorKind,
    parse_config,
    preprocess_reply,
    serialize_config,
)
from intentconf.prompting import GenerationRequest, OptimizationProfile
from intentconf.retrieval import chunk_document, count_tokens
from intentconf.simulator import (
    GIB,
    ClusterModel,
    NodeSpec,
    QuantityError,
    ResourceSpec,
    SimulatedDeployer,
    Workload,
    parse_quantity,
    run_workload,
)
from intentconf.validation import (
    Assertion,
    AssertionKind,
    ComplexityMeasure,
    aggregate_complexity,
    complexity,
)

GOOD = (
    "worker:\n  replicas: 2\n  resources:\n    limits:\n"
    "      cpu: 500m\n      memory: 512Mi"
)
HUNGRY = GOOD.replace("512Mi", "64Gi")
UNDERSIZED = GOOD.replace("replicas: 2", "replicas: 1")
PROSE = "No configuration comes to mind, sorry."
ASSERTIONS = (
    Assertion(path="worker/replicas", kind=AssertionKind.COMPARE, op=">=", expected=2),
    Assertion(path="worker/resources/limits/memory", kind=AssertionKind.EXISTS),
)
NODE = NodeSpec(cpu_millicores=4000, memory_bytes=16 * GIB)
REQUEST = GenerationRequest(
    system="dask",
    prompt="Write the dask configuration that satisfies the intent.",
    intent="two workers with half a gig each",
)


@pytest.mark.acceptance(label="A1 cost report prints exact dollar strings")
def test_cost_report_exact_dollar_strings():
    started = time.monotonic()
    records = [
        TranscriptStats("dask", True, 1, 1, 67, ()),
        TranscriptStats("redis", True, 1, 1, 183, ()),
        TranscriptStats("ray", True, 1, 1, 72, ()),
    ]
    rows = {row.system: row for row in cost_report(records, rate_per_token=8.0e-7)}
    assert rows["dask"].cost_dollars == "0.0000536"
    assert rows["redis"].cost_dollars == "0.0001464"
    assert rows["ray"].cost_dollars == "0.0000576"
    assert time.monotonic() - started < 1.0


@pytest.mark.acceptance(label="A2 chunk counts, starts, and exact-500 overlaps")
def test_chunking_counts_and_overlaps():
    started = time.monotonic()

    def doc_of(tokens):
        return " ".join(f"t{i}" for i in range(tokens))

    for total, expected_starts in ((5000, [0]), (9500, [0, 4500]), (14000, [0, 4500, 9000])):
        chunks = chunk_document(doc_of(total), doc_id="d")
        assert [c.token_span[0] for c in chunks] == expected_starts
        assert chunks[-1].token_span[1] == total

    rng = random.Random(202)
    for _ in range(120):
        total = rng.randint(1, 30000)
        chunks = chunk_document(doc_of(total))
        assert chunks[0].token_span[0] == 0
        assert chunks[-1].token_span[1] == total
        assert [c.ordinal for c in chunks] == list(range(len(chunks)))
        for earlier, later in zip(chunks, chunks[1:]):
            # full windows only; the final chunk alone may run short
            assert earlier.token_span[1] == earlier.token_span[0] + 5000
            assert later.token_span[0] == earlier.token_span[0] + 4500
            assert earlier.token_span[1] - later.token_span[0] == 500
    assert time.monotonic() - started < 5.0


@pytest.mark.acceptance(label="A3 sampling clamp caps at 0.1 and is idempotent")
def test_sampling_clamp_property():
    rng = random.Random(37)
    for _ in range(1000):
        params = SamplingParams(
            temperature=rng.uniform(0.0, 2.0),
            top_p=rng.uniform(0.001, 1.0),
            max_tokens=rng.randint(1, 4096),
        )
        clamped = clamp_for_determinism(params)
        assert clamped.temperature == min(params.temperature, 0.1)
        assert clamped.top_p == min(params.top_p, 0.1)
        assert clamped.max_tokens == params.max_tokens
        if params.temperature > 0.1 and params.top_p > 0.1:
            assert (clamped.temperature, clamped.top_p) == (0.1, 0.1)
        assert clamp_for_determinism(clamped) == clamped


SAFE_KEYS = ("replicas", "worker", "memory", "cpu", "image", "port", "limits", "cache")
SAFE_SCALARS = (1, 2, 8, 250, "500m", "1Gi", "v2x", "info")


def random_mapping(rng, depth=0):
    tree = {}
    for key in rng.sample(SAFE_KEYS, rng.randint(1, 4)):
        roll = rng.random()
        if depth >= 2 or roll < 0.5:
            tree[key] = rng.choice(SAFE_SCALARS)
        elif roll < 0.8:
            tree[key] = random_mapping(rng, depth + 1)
        else:
            tree[key] = [rng.choice(SAFE_SCALARS) for _ in range(rng.randint(1, 3))]
    return tree


WRAPPERS = (
    lambda body: body,
    lambda body: f"Here is the configuration.\n\n```yaml\n{body}```\n\nLet me know.",
    lambda body: f"Sure thing.\n{body}That should do it.",
    lambda body: f"```\n- not this one\n```\nUse this instead.\n\n```yaml\n{body}```",
)


@pytest.mark.acceptance(label="A4 reply extraction recovers every embedded mapping")
def test_extraction_recovers_embedded_mappings():
    rng = random.Random(515)
    trees = [random_mapping(rng) for _ in range(60)]
    attempts = 0
    for tree in trees:
        body = serialize_config(tree)
        for wrap in WRAPPERS:
            attempts += 1
            assert preprocess_reply(wrap(body)).root == tree
    assert attempts >= 200

    with pytest.raises(StructuralError) as info:
        preprocess_reply("The deployment guide says nothing about that.")
    assert info.value.kind is StructuralErrorKind.NO_YAML_FOUND
    with pytest.raises(StructuralError) as info:
        parse_config("a: 1\n---\nb: 2")
    assert info.value.kind is StructuralErrorKind.MULTIPLE_DOCUMENTS_AMBIGUOUS
    with pytest.raises(StructuralError) as info:
        parse_config("a: [unclosed")
    assert info.value.kind is StructuralErrorKind.PARSE_FAILURE


def naive_complexity(tree):
    """Independent oracle: explicit-stack walk counting keys and mapping depth."""
    keys = 0
    deepest = 0
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, dict):
            here = depth + 1 if node else depth
            for key, value in node.items():
                keys += 1
                deepest = max(deepest, depth + 1)
                stack.append((value, depth + 1))
        elif isinstance(node, (list, tuple)):
            for item in node:
                stack.append((item, depth))
    return ComplexityMeasure(key_count=keys, max_depth=deepest)


@pytest.mark.acceptance(label="A5 complexity agrees with an independent oracle")
def test_complexity_matches_naive_oracle():
    assert complexity({"a": 1}) == ComplexityMeasure(1, 1)
    assert complexity({"a": {"b": {"c": 1}}, "d": 2}) == ComplexityMeasure(4, 3)
    assert complexity({"a": [{"b": 1}, {"c": {"d": 2}}]}) == ComplexityMeasure(4, 3)

    rng = random.Random(8181)
    trees = [random_mapping(rng) for _ in range(520)]
    for tree in trees:
        assert complexity(tree) == naive_complexity(tree)

    corpus = trees[:40]
    summary = aggregate_complexity(corpus)
    measures = [naive_complexity(t) for t in corpus]
    assert summary.count == 40
    assert summary.max_key_count == max(m.key_count for m in measures)
    assert summary.max_depth == max(m.max_depth for m in measures)
    assert summary.mean_key_count == pytest.approx(
        statistics.mean(m.key_count for m in measures)
    )
    assert summary.std_depth == pytest.approx(
        statistics.pstdev(m.max_depth for m in measures)
    )


FAILURE_FLAVOURS = (PROSE, UNDERSIZED, HUNGRY)


@pytest.mark.acceptance(label="A6 scripted repair suite resolves 94% by attempt 3")
def test_chain_suite_resolution_curve(tmp_path):
    started = time.monotonic()
    plan = [1] * 20 + [2] * 15 + [3] * 12 + [None] * 3
    entries = {}
    for i, resolve_at in enumerate(plan):
        sid = f"s{i:02d}"
        bad_count = 3 if resolve_at is None else resolve_at - 1
        for j in range(bad_count):
            entries[(sid, j + 1)] = MockReply(FAILURE_FLAVOURS[(i + j) % 3])
        if resolve_at is not None:
            entries[(sid, resolve_at)] = MockReply(GOOD)
    provider = MockProvider(MockScript(entries=entries))
    profile = OptimizationProfile.for_name("ip")

    stats = []
    for i, resolve_at in enumerate(plan):
        sid = f"s{i:02d}"
        deps = ChainDeps(
            provider=provider,
            shots=(),
            index=None,
            assertions=ASSERTIONS,
            deployer=SimulatedDeployer(model=ClusterModel(nodes=(NODE,))),
            workload=Workload(10.0, 100.0),
            case_id=sid,
        )
        outcome = run_chain(REQUEST, profile, deps)
        assert outcome.resolved == (resolve_at is not None)
        assert outcome.attempts_used == (resolve_at or 3)

        history = outcome.attempt_history
        for record in history:
            orders = [list(Stage).index(stage) for stage in record.stages_passed]
            assert orders == sorted(orders) and len(set(orders)) == len(orders)
            if record.feedback is not None:
                assert list(Stage).index(record.feedback.failed_stage) > max(orders, default=-1)
        for n in range(1, len(history)):
            previous = history[n - 1].feedback
            assert previous is not None
            assert previous.summary in history[n].user_message
            assert history[n].user_message.startswith(history[0].user_message)
            if n >= 2:
                older = history[n - 2].feedback
                if older is not None and older.summary != previous.summary:
                    assert older.summary not in history[n].user_message

        path = tmp_path / f"{sid}.jsonl"
        write_transcript(path, outcome, case_id=sid, system="dask")
        stats.append(read_transcript(path))

    curve = resolution_curve(stats)
    assert curve == {1: 40.0, 2: 70.0, 3: 94.0}
    assert curve[3] == 94.0
    assert time.monotonic() - started < 30.0


@pytest.mark.acceptance(label="A7 more parallelism is faster and costlier")
def test_simulator_ordering_property():
    reference = ClusterModel(nodes=(NODE,))
    first = run_workload(reference, ResourceSpec(1000, GIB, 1), Workload(10.0, 100.0))
    assert first.completion_seconds == pytest.approx(110.0, rel=1e-9)
    assert first.cost_dollars == pytest.approx((110.0 / 3600.0) * 0.044, rel=1e-9)
    second = run_workload(reference, ResourceSpec(2000, GIB, 2), Workload(10.0, 100.0))
    assert second.completion_seconds == pytest.approx(35.0, rel=1e-9)
    assert second.cost_dollars == pytest.approx((35.0 / 3600.0) * 0.168, rel=1e-9)

    rng = random.Random(1009)
    for _ in range(1000):
        workload = Workload(rng.uniform(0.5, 60.0), rng.uniform(1.0, 500.0))
        model = ClusterModel(
            nodes=(NodeSpec(10**9, 2**60),),
            cpu_rate=rng.uniform(0.001, 0.5),
            mem_rate=rng.uniform(0.0005, 0.05),
        )
        cores_m = rng.choice((250, 500, 1000, 2000))
        memory = rng.choice((256 * 2**20, GIB, 2 * GIB))
        low = rng.randint(1, 5)
        mid = low + rng.randint(1, 4)
        high = mid + rng.randint(1, 4)
        results = [
            run_workload(model, ResourceSpec(cores_m, memory, replicas), workload)
            for replicas in (low, mid, high)
        ]
        times = [r.completion_seconds for r in results]
        costs = [r.cost_dollars for r in results]
        assert times[0] > times[1] > times[2]
        assert costs[0] < costs[1] < costs[2]


PASS_COUNTS = {1: 10, 2: 8, 3: 7, 4: 5, 5: 3, 6: 0}


@pytest.mark.acceptance(label="A8 accuracy table is exact, repeatable, in steps of 10")
def test_static_eval_scripted_table(tmp_path):
    entries = {}
    for level, passes in PASS_COUNTS.items():
        directory = tmp_path / "dask" / f"level{level}"
        directory.mkdir(parents=True)
        for i in range(10):
            case_id = f"l{level}c{i:02d}"
            (directory / f"{case_id}.yaml").write_text(
                yaml.safe_dump(
                    {
                        "id": case_id,
                        "system": "dask",
                        "level": level,
                        "prompt": "configure the cluster",
                        "intent": "at least two workers",
                        "assertions": [
                            {"path": "worker/replicas", "kind": "Compare",
                             "op": ">=", "expected": 2}
                        ],
                    },
                    sort_keys=False,
                ),
                encoding="utf-8",
            )
            entries[(case_id, 1)] = MockReply(GOOD if i < passes else PROSE)

    cases = load_dataset(tmp_path)
    assert len(cases) == 60
    deps = HarnessDeps(provider=MockProvider(MockScript(entries=entries)))
    profiles = [OptimizationProfile.for_name("ip")]
    first = run_static_eval(cases, profiles, deps)
    second = run_static_eval(cases, profiles, deps)
    assert first == second
    assert [first.rows[("ip", level)] for level in range(1, 7)] == [
        100.0, 80.0, 70.0, 50.0, 30.0, 0.0,
    ]
    assert first.totals["ip"] == 55.0
    assert all(value % 10.0 == 0.0 for value in first.rows.values())
    assert first.counts[("ip", 4)] == (5, 10)


QUANTITY_ACCEPT = (
    ("250m", "cpu", 250),
    ("1000m", "cpu", 1000),
    ("0m", "cpu", 0),
    ("2", "cpu", 2000),
    ("1.5", "cpu", 1500),
    ("0.25", "cpu", 250),
    (2, "cpu", 2000),
    (0.5, "cpu", 500),
    ("1Ki", "memory", 2**10),
    ("512Mi", "memory", 512 * 2**20),
    ("1Gi", "memory", 2**30),
    ("2Gi", "memory", 2 * 2**30),
    ("1.5Gi", "memory", 3 * 2**29),
    (1024, "memory", 1024),
    ("64", "memory", 64),
)
QUANTITY_REJECT = (
    ("1G", "memory"), ("1M", "memory"), ("1K", "memory"), ("1T", "memory"),
    ("Gi", "memory"), ("", "memory"), ("  ", "cpu"), ("m", "cpu"),
    ("-250m", "cpu"), ("250 m", "cpu"), ("1..5", "cpu"), ("2x", "cpu"),
    ("1Gi1", "memory"), ("1Gi", "cpu"), ("1Mi", "cpu"), ("250m", "memory"),
    (True, "cpu"), (False, "memory"), (-2, "cpu"), (-0.5, "memory"),
    (None, "cpu"), ([2], "cpu"), ({"a": 1}, "memory"),
)


@pytest.mark.acceptance(label="A9 resource quantity grammar, accepted and rejected")
def test_quantity_grammar_table():
    for raw, kind, expected in QUANTITY_ACCEPT:
        assert parse_quantity(raw, kind) == expected, (raw, kind)
    for raw, kind in QUANTITY_REJECT:
        with pytest.raises(QuantityError):
            parse_quantity(raw, kind)
    with pytest.raises(ValueError):  # unknown dimension is a caller bug
        parse_quantity("2", "disk")


@pytest.mark.acceptance(label="A10 CLI golden run repairs memory and is byte-stable")
def test_cli_golden_run(tmp_path, jsonl_entries):
    started = time.monotonic()
    (tmp_path / "mock.yaml").write_text(
        yaml.safe_dump(
            {"scenarios": {"demo": {"replies": [HUNGRY, GOOD]}}}, sort_keys=False
        ),
        encoding="utf-8",
    )
    (tmp_path / "checks.yaml").write_text(
        yaml.safe_dump(
            [{"path": "worker/replicas", "kind": "Compare", "op": ">=", "expected": 2}]
        ),
        encoding="utf-8",
    )
    (tmp_path / "app.yaml").write_text(
        yaml.safe_dump(
            {
                "provider": {"kind": "mock", "script": "mock.yaml"},
                "profile": "ip",
                "paths": {"output": "out"},
            },
            sort_keys=False,
        ),
        encoding="utf-8",
    )

    runner = CliRunner()
    transcripts = []
    for name in ("first.jsonl", "second.jsonl"):
        path = tmp_path / name
        result = runner.invoke(
            cli_main,
            [
                "-c", str(tmp_path / "app.yaml"), "generate",
                "--system", "dask",
                "--intent", "two workers with half a gig each",
                "--scenario", "demo",
                "--assertions", str(tmp_path / "checks.yaml"),
                "--transcript", str(path),
            ],
        )
        assert result.exit_code == 0, result.output
        transcripts.append(path)

    assert transcripts[0].read_bytes() == transcripts[1].read_bytes()
    entries = jsonl_entries(transcripts[0])
    assert len(entries) == 2
    assert "Deployment failed after StaticValidation succeeded" in entries[0]["summary"]
    assert entries[1]["attempt"] == 2
    assert entries[1]["failed_stage"] is None
    assert time.monotonic() - started < 10.0
