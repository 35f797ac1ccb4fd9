"""Dataset loading, evaluation tables, curves, and cost/latency reports."""

import json
import random
import subprocess
import sys

import pytest
import yaml

import intentconf.harness as harness_mod
from intentconf.chain import ChainDeps, TranscriptStats, read_transcript, run_chain, write_transcript
from intentconf.gateway import MockProvider, MockReply, MockScript
from intentconf.harness import (
    AccuracyTable,
    BenchmarkCase,
    HarnessDeps,
    accuracy_table_to_json,
    assertion_from_mapping,
    cost_report,
    latency_report,
    load_dataset,
    load_mock_scripts,
    render_accuracy_table,
    resolution_curve,
    run_static_eval,
)
from intentconf.preprocess import Fields, InputError
from intentconf.prompting import FewShotExample, GenerationRequest, OptimizationProfile
from intentconf.retrieval import DEFAULT_TOP_K, build_index
from intentconf.validation import AssertionKind

GOOD = "worker:\n  replicas: 2"
PROSE = "I would suggest adding more workers."
DEFAULT_ASSERTION = {"path": "worker/replicas", "kind": "Compare", "op": ">=", "expected": 2}


def write_case(root, system, level, case_id, assertions=None, **overrides):
    directory = root / system / f"level{level}"
    directory.mkdir(parents=True, exist_ok=True)
    data = {
        "id": case_id,
        "system": system,
        "level": level,
        "prompt": "configure the cluster",
        "intent": "at least two workers",
        "assertions": assertions if assertions is not None else [dict(DEFAULT_ASSERTION)],
        "features": ["replicas"],
    }
    data.update(overrides)
    path = directory / f"{case_id}.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")
    return path


def write_mock(root, system, level, case_id, payload):
    directory = root / system / f"level{level}"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{case_id}.mock.yaml"
    path.write_text(yaml.safe_dump(payload, sort_keys=False), encoding="utf-8")
    return path


class TestLoadDataset:
    def test_sorted_across_systems_and_levels(self, tmp_path):
        for level in range(1, 7):
            write_case(tmp_path, "redis", level, f"r{level}")
            write_case(tmp_path, "dask", level, f"d{level}")
        cases = load_dataset(tmp_path)
        assert len(cases) == 12
        assert [c.id for c in cases] == [f"d{l}" for l in range(1, 7)] + [
            f"r{l}" for l in range(1, 7)
        ]
        assert all(isinstance(c, BenchmarkCase) for c in cases)

    def test_level_out_of_range(self, tmp_path):
        write_case(tmp_path, "dask", 7, "c1")
        with pytest.raises(InputError):
            load_dataset(tmp_path)

    def test_duplicate_ids_name_both_files(self, tmp_path):
        first = write_case(tmp_path, "dask", 1, "c1")
        second = write_case(tmp_path, "redis", 2, "c1")
        with pytest.raises(InputError) as info:
            load_dataset(tmp_path)
        message = str(info.value)
        assert str(first) in message and str(second) in message

    def test_missing_key_names_file(self, tmp_path):
        path = write_case(tmp_path, "dask", 1, "c1")
        data = yaml.safe_load(path.read_text())
        del data["intent"]
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        with pytest.raises(InputError) as info:
            load_dataset(tmp_path)
        assert str(path) in str(info.value)

    def test_empty_assertions_rejected(self, tmp_path):
        write_case(tmp_path, "dask", 1, "c1", assertions=[])
        with pytest.raises(InputError):
            load_dataset(tmp_path)

    def test_unknown_assertion_kind(self, tmp_path):
        write_case(
            tmp_path, "dask", 1, "c1", assertions=[{"path": "a", "kind": "Matches"}]
        )
        with pytest.raises(InputError):
            load_dataset(tmp_path)

    def test_blank_prompt_rejected(self, tmp_path):
        write_case(tmp_path, "dask", 1, "c1", prompt="   ")
        with pytest.raises(InputError):
            load_dataset(tmp_path)

    def test_mock_files_are_not_cases(self, tmp_path):
        write_case(tmp_path, "dask", 1, "c1")
        write_mock(tmp_path, "dask", 1, "c1", {"replies": [GOOD]})
        assert len(load_dataset(tmp_path)) == 1

    def test_missing_directory(self, tmp_path):
        with pytest.raises(InputError):
            load_dataset(tmp_path / "nope")

    def test_assertion_kinds_case_insensitive(self):
        assertion = assertion_from_mapping(Fields("test", {"path": "a", "kind": "exists"}))
        assert assertion.kind is AssertionKind.EXISTS


class TestLoadMockScripts:
    def test_replies_verify_and_intents(self, tmp_path):
        write_case(tmp_path, "dask", 1, "c1")
        write_mock(
            tmp_path,
            "dask",
            1,
            "c1",
            {
                "replies": [PROSE, GOOD],
                "verify_default": "VERDICT: ALIGNED",
                "latency": 1.5,
            },
        )
        script = load_mock_scripts(tmp_path)
        assert script.lookup("c1", 1).text == PROSE
        assert script.lookup("c1", 2) == MockReply(GOOD, 1.5)
        assert script.lookup("c1#verify", 3).text == "VERDICT: ALIGNED"

    def test_merging_across_files(self, tmp_path):
        write_case(tmp_path, "dask", 1, "c1")
        write_case(tmp_path, "redis", 2, "c2")
        write_mock(tmp_path, "dask", 1, "c1", {"replies": [GOOD]})
        write_mock(tmp_path, "redis", 2, "c2", {"replies": ["replica:\n  replicaCount: 3"]})
        script = load_mock_scripts(tmp_path)
        assert script.lookup("c1", 1).text == GOOD
        assert "replicaCount" in script.lookup("c2", 1).text

    def test_duplicate_case_id_names_both_files(self, tmp_path):
        first = write_mock(tmp_path, "dask", 1, "c1", {"replies": [GOOD]})
        second = write_mock(tmp_path, "redis", 2, "c1", {"replies": [PROSE]})
        with pytest.raises(InputError) as info:
            load_mock_scripts(tmp_path)
        message = str(info.value)
        assert str(first) in message and str(second) in message

    def test_invalid_yaml_names_the_file(self, tmp_path):
        path = write_mock(tmp_path, "dask", 1, "c1", {"replies": [GOOD]})
        path.write_text("replies: [unclosed", encoding="utf-8")
        with pytest.raises(InputError) as info:
            load_mock_scripts(tmp_path)
        assert str(info.value).startswith(f"{path}: not valid YAML")

    @pytest.mark.parametrize("mock", [{"replies": 5}, {"replies": {"one": GOOD}}, {"latency": "slow"}])
    def test_bad_value_names_the_file(self, tmp_path, mock):
        path = write_mock(tmp_path, "dask", 1, "c1", mock)
        with pytest.raises(InputError) as info:
            load_mock_scripts(tmp_path)
        assert str(info.value).startswith(f"{path}: ")


def deps_with(script, **kwargs):
    return HarnessDeps(provider=MockProvider(script), **kwargs)


def make_cases(tmp_path, count, level=1, system="dask"):
    for i in range(count):
        write_case(tmp_path, system, level, f"c{i:02d}")
    return load_dataset(tmp_path)


class TestStaticEval:
    def test_seven_of_ten_is_seventy(self, tmp_path):
        cases = make_cases(tmp_path, 10)
        entries = {
            (case.id, 1): MockReply(GOOD if i < 7 else PROSE)
            for i, case in enumerate(cases)
        }
        table = run_static_eval(
            cases,
            [OptimizationProfile.for_name("ip")],
            deps_with(MockScript(entries=entries)),
        )
        assert table.rows[("ip", 1)] == 70.0
        assert table.counts[("ip", 1)] == (7, 10)
        assert table.totals["ip"] == 70.0

    def test_all_pass_and_all_fail_bounds(self, tmp_path):
        for level in (1, 2):
            write_case(tmp_path, "dask", level, f"c{level}a")
            write_case(tmp_path, "dask", level, f"c{level}b")
        cases = load_dataset(tmp_path)
        profiles = [OptimizationProfile.for_name("ip")]
        all_pass = run_static_eval(
            cases, profiles, deps_with(MockScript(default_reply=GOOD))
        )
        assert set(all_pass.rows.values()) == {100.0}
        all_fail = run_static_eval(
            cases, profiles, deps_with(MockScript(default_reply=PROSE))
        )
        assert set(all_fail.rows.values()) == {0.0}
        assert all_fail.totals["ip"] == 0.0

    def test_accuracy_granularity(self, tmp_path):
        cases = make_cases(tmp_path, 4)
        entries = {(case.id, 1): MockReply(GOOD if i % 2 else PROSE) for i, case in enumerate(cases)}
        table = run_static_eval(
            cases, [OptimizationProfile.for_name("ip")], deps_with(MockScript(entries=entries))
        )
        assert table.rows[("ip", 1)] % 25.0 == 0.0

    def test_deterministic_and_parallel_equivalent(self, tmp_path):
        cases = make_cases(tmp_path, 8)
        entries = {(case.id, 1): MockReply(GOOD if i % 3 else PROSE) for i, case in enumerate(cases)}
        profiles = [OptimizationProfile.for_name("ip")]

        def run(workers):
            return run_static_eval(
                cases, profiles, deps_with(MockScript(entries=entries)), workers=workers
            )

        assert run(1) == run(1)
        assert run(1) == run(4)

    def test_single_worker_runs_load_no_thread_pool(self):
        code = (
            "import sys\n"
            "import intentconf.harness\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False"

    def test_multiple_profiles_columns(self, tmp_path):
        cases = make_cases(tmp_path, 2)
        script = MockScript(
            default_reply=GOOD,
            scenario_defaults={f"{case.id}#verify": MockReply("VERDICT: ALIGNED") for case in cases},
        )
        shots = (FewShotExample(prompt="p", intent="i", correct_output=GOOD),)
        table = run_static_eval(
            cases,
            [OptimizationProfile.for_name("ip"), OptimizationProfile.for_name("lads")],
            deps_with(script, shots_by_system={"dask": shots}),
        )
        assert table.profiles == ("ip", "lads")
        assert table.rows[("ip", 1)] == table.rows[("lads", 1)] == 100.0

    def test_provider_error_counts_as_failure_in_appendix(self, tmp_path):
        cases = make_cases(tmp_path, 2)

        class SometimesDown:
            def __init__(self):
                self.inner = MockProvider(MockScript(default_reply=GOOD))

            def complete(self, payload, params):
                from intentconf.gateway import ProviderError

                if payload.metadata.get("case") == "c00":
                    raise ProviderError("connection reset", status=None)
                return self.inner.complete(payload, params)

        table = run_static_eval(
            cases, [OptimizationProfile.for_name("ip")], HarnessDeps(provider=SometimesDown())
        )
        assert table.rows[("ip", 1)] == 50.0
        assert any("c00" in entry and "connection reset" in entry for entry in table.appendix)

    def test_empty_case_list_rejected(self):
        with pytest.raises(InputError):
            run_static_eval([], [OptimizationProfile.for_name("ip")], deps_with(MockScript()))

    def test_one_static_chain_per_profile_and_case(self, tmp_path, monkeypatch):
        cases = make_cases(tmp_path, 3)
        calls = []

        def recording_chain(request, profile, chain_deps):
            calls.append((profile.name, chain_deps))
            return run_chain(request, profile, chain_deps)

        monkeypatch.setattr(harness_mod, "run_chain", recording_chain)
        shots = (FewShotExample(prompt="p", intent="i", correct_output=GOOD),)
        index = build_index([("dask/workers.md", "worker replicas set the worker count")])
        deps = HarnessDeps(
            provider=MockProvider(MockScript(default_reply=GOOD)),
            shots_by_system={"dask": shots},
            index=index,
        )
        deps.retrieval_k = DEFAULT_TOP_K + 3  # differs from ChainDeps' own default
        profiles = [OptimizationProfile.for_name("ip"), OptimizationProfile.for_name("fsl")]
        run_static_eval(cases, profiles, deps)
        assert sorted((name, d.case_id) for name, d in calls) == sorted(
            (p.name, case.id) for p in profiles for case in cases
        )
        for _, chain_deps in calls:
            assert chain_deps.deployer is None and chain_deps.workload is None
            assert chain_deps.retrieval_k == deps.retrieval_k
            assert chain_deps.index is index and tuple(chain_deps.shots) == shots


def stat(resolved, attempts, max_attempts=3):
    return TranscriptStats(
        system="dask",
        resolved=resolved,
        attempts_used=attempts,
        max_attempts=max_attempts,
        completion_tokens=0,
        latencies=(),
    )


class TestResolutionCurve:
    def test_hand_counted_example(self):
        outcomes = [stat(True, 1), stat(True, 1), stat(True, 2), stat(True, 3), stat(False, 3)]
        assert resolution_curve(outcomes) == {1: 40.0, 2: 60.0, 3: 80.0}

    def test_all_resolved_first_attempt(self):
        outcomes = [stat(True, 1) for _ in range(4)]
        assert resolution_curve(outcomes) == {1: 100.0, 2: 100.0, 3: 100.0}

    def test_none_resolved(self):
        outcomes = [stat(False, 3) for _ in range(4)]
        assert resolution_curve(outcomes) == {1: 0.0, 2: 0.0, 3: 0.0}

    def test_monotone_and_bounded(self):
        rng = random.Random(12)
        for _ in range(50):
            outcomes = [
                stat(rng.random() < 0.7, rng.randrange(1, 4)) for _ in range(rng.randrange(1, 20))
            ]
            curve = resolution_curve(outcomes)
            values = [curve[k] for k in sorted(curve)]
            assert values == sorted(values)
            assert all(0.0 <= v <= 100.0 for v in values)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="resolution curve needs at least one outcome"):
            resolution_curve([])


class TestCostReport:
    RATE = 8.0e-7

    def records(self):
        return [
            TranscriptStats("dask", True, 1, 1, 67, (1.0,)),
            TranscriptStats("redis", True, 1, 1, 183, (2.0,)),
            TranscriptStats("ray", True, 1, 1, 72, (3.0,)),
        ]

    def test_reference_cost_rows(self):
        rows = {row.system: row for row in cost_report(self.records(), self.RATE)}
        assert rows["dask"].max_completion_tokens == 67
        assert rows["dask"].cost_dollars == "0.0000536"
        assert rows["redis"].cost_dollars == "0.0001464"
        assert rows["ray"].cost_dollars == "0.0000576"

    def test_max_across_records(self):
        records = self.records() + [TranscriptStats("dask", True, 2, 2, 100, ())]
        rows = {row.system: row for row in cost_report(records, self.RATE)}
        assert rows["dask"].max_completion_tokens == 100

    def test_linear_in_rate(self):
        single = {r.system: float(r.cost_dollars) for r in cost_report(self.records(), self.RATE)}
        double = {
            r.system: float(r.cost_dollars) for r in cost_report(self.records(), 2 * self.RATE)
        }
        for system, cost in single.items():
            assert double[system] == pytest.approx(2 * cost, rel=1e-6)

    def test_rate_guard(self):
        for rate in (0.0, -1e-7, float("nan"), float("inf")):
            with pytest.raises(InputError, match="rate per token must be > 0 and finite"):
                cost_report(self.records(), rate)

    def test_rows_sorted_by_system(self):
        assert [r.system for r in cost_report(self.records(), self.RATE)] == [
            "dask",
            "ray",
            "redis",
        ]


class TestLatencyReport:
    def test_mean_and_population_std(self):
        records = [
            TranscriptStats("dask", True, 1, 1, 0, (4.0,)),
            TranscriptStats("dask", True, 1, 1, 0, (6.0,)),
        ]
        row = latency_report(records)[0]
        assert (row.mean_seconds, row.std_seconds, row.calls) == (5.0, 1.0, 2)

    def test_singleton(self):
        row = latency_report([TranscriptStats("ray", True, 1, 1, 0, (9.282,))])[0]
        assert row.mean_seconds == pytest.approx(9.282)
        assert row.std_seconds == 0.0

    def test_flattens_multi_attempt_records(self):
        records = [TranscriptStats("redis", True, 2, 2, 0, (1.0, 3.0))]
        row = latency_report(records)[0]
        assert (row.mean_seconds, row.calls) == (2.0, 2)


class TestTranscriptStats:
    def write(self, tmp_path, text, name="t.jsonl"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_round_trip_from_chain(self, tmp_path, jsonl_entries):
        script = MockScript(
            entries={("c1", 1): MockReply(PROSE, 0.5), ("c1", 2): MockReply(GOOD, 1.5)}
        )
        case = BenchmarkCase(
            id="c1",
            system="dask",
            level=1,
            prompt="configure the cluster",
            intent="at least two workers",
            assertions=(assertion_from_mapping(Fields("inline", DEFAULT_ASSERTION)),),
        )
        deps = ChainDeps(
            provider=MockProvider(script), assertions=case.assertions, case_id=case.id
        )
        outcome = run_chain(
            GenerationRequest(system="dask", prompt=case.prompt, intent=case.intent),
            OptimizationProfile.for_name("ip"),
            deps,
        )
        path = tmp_path / "t.jsonl"
        write_transcript(path, outcome, case_id="c1", system="dask")
        stats = read_transcript(path)
        assert stats.resolved and stats.attempts_used == 2
        assert stats.system == "dask"
        assert stats.latencies == (0.5, 1.5)
        assert stats.completion_tokens == outcome.total_completion_tokens
        entries = jsonl_entries(path)
        assert [e["case"] for e in entries] == ["c1", "c1"]
        assert sum(e["prompt_tokens"] for e in entries) == outcome.total_prompt_tokens

    def test_unnamed_system_is_unknown(self, tmp_path):
        named_empty = self.write(tmp_path, '{"attempt": 1, "system": ""}\n', "empty.jsonl")
        unnamed = self.write(tmp_path, '{"attempt": 1}\n', "unnamed.jsonl")
        assert read_transcript(named_empty).system == "unknown"
        assert read_transcript(unnamed).system == "unknown"

    def test_empty_transcript_has_no_record(self, tmp_path):
        assert read_transcript(self.write(tmp_path, "")) is None
        assert read_transcript(self.write(tmp_path, "\n  \n", "blank.jsonl")) is None

    def test_highest_attempt_decides(self, tmp_path):
        path = self.write(
            tmp_path,
            '{"attempt": 2, "max_attempts": 3, "latency_seconds": 2.0}\n'
            '{"attempt": 1, "failed_stage": "Structural", "latency_seconds": 1.0}\n',
        )
        stats = read_transcript(path)
        assert (stats.resolved, stats.attempts_used, stats.max_attempts) == (True, 2, 3)
        assert stats.latencies == (1.0, 2.0)

    def test_attempt_is_read_by_the_one_scalar_rule(self, tmp_path):
        assert read_transcript(self.write(tmp_path, '{"attempt": "2"}\n')).attempts_used == 2
        unnumbered = self.write(tmp_path, "{}\n{}\n{}\n", "unnumbered.jsonl")
        assert read_transcript(unnumbered).attempts_used == 3

    def test_wrong_typed_field_names_the_file_line_and_key(self, tmp_path):
        path = self.write(tmp_path, '{"attempt": 1}\n\n{"attempt": 2, "latency_seconds": "slow"}\n')
        with pytest.raises(InputError) as info:
            read_transcript(path)
        assert str(info.value) == f"{path}: line 3: latency_seconds must be a number, got 'slow'"


class TestRendering:
    def table(self, tmp_path):
        cases = make_cases(tmp_path, 2)
        return run_static_eval(
            cases,
            [OptimizationProfile.for_name("ip")],
            deps_with(MockScript(default_reply=GOOD)),
        )

    def test_text_layout(self, tmp_path):
        text = render_accuracy_table(self.table(tmp_path))
        lines = text.splitlines()
        assert lines[0].split() == ["Level", "IP"]
        assert lines[1].split() == ["1", "100.0"]
        assert lines[-1].split() == ["Total", "100.0"]

    def test_appendix_rendered(self, tmp_path):
        table = self.table(tmp_path)
        amended = AccuracyTable(
            profiles=table.profiles,
            levels=table.levels,
            counts=table.counts,
            appendix=("c00 [ip]: connection reset",),
        )
        text = render_accuracy_table(amended)
        assert "Provider errors:" in text
        assert "connection reset" in text

    def test_json_round_trip_with_meta(self, tmp_path):
        payload = json.loads(
            accuracy_table_to_json(self.table(tmp_path), meta={"generated_at": "sometime"})
        )
        assert payload["meta"]["generated_at"] == "sometime"
        assert payload["totals"] == {"ip": 100.0}
        assert payload["rows"][0]["percent"] == 100.0
        assert payload["rows"][0]["total"] == 2
