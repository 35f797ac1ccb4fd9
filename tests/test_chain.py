"""Log filtering, feedback wording, and the generate/check/repair loop."""

import dataclasses
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import intentconf.chain as chain_mod
import intentconf.gateway as gateway_mod
import intentconf.prompting as prompting_mod
import intentconf.simulator as simulator_mod
from intentconf.chain import (
    GATES,
    ChainDeps,
    ChainOutcome,
    FeedbackContext,
    Stage,
    make_feedback,
    run_chain,
    write_transcript,
)
from intentconf.gateway import (
    MockProvider,
    MockReply,
    MockScript,
    ProviderError,
    SamplingParams,
)
from intentconf.preprocess import QUOTE_BUDGET
from intentconf.prompting import (
    FEEDBACK_LABEL,
    FewShotExample,
    GenerationRequest,
    OptimizationProfile,
)
from intentconf.retrieval import build_index, count_tokens
from intentconf.simulator import (
    GIB,
    LOG_LINE_BUDGET,
    LOG_LINE_CAP,
    SEVERITY_MARKERS,
    ClusterModel,
    NodeSpec,
    SimulatedDeployer,
    Workload,
    apply,
    filter_logs,
)
from intentconf.validation import Assertion, AssertionKind
from test_retrieval import peak

GOOD_CONFIG = (
    "worker:\n  replicas: 2\n  resources:\n    limits:\n      cpu: 500m\n      memory: 512Mi"
)
BIG_MEMORY_CONFIG = GOOD_CONFIG.replace("512Mi", "64Gi")
MISSING_KEY_CONFIG = "worker:\n  resources:\n    limits:\n      cpu: 500m\n      memory: 512Mi"
# 460 characters on one line: 19 levels of two aliases of the level below, under
# worker/replicas, which name 2**20 copies of the first list.
ALIAS_CHAIN_REPLY = "{%s}" % ", ".join(
    ["a0: &b0 [1, 2]"]
    + [f"a{n}: &b{n} [*b{n - 1}, *b{n - 1}]" for n in range(1, 20)]
    + ["worker: {replicas: *b19}"]
)

REQUEST = GenerationRequest(
    system="dask",
    prompt="Write the dask configuration that satisfies the intent.",
    intent="two workers with half a gig each",
)
ASSERTIONS = (
    Assertion("worker/replicas", AssertionKind.COMPARE, expected=2, op=">="),
    Assertion("worker/resources/limits/memory", AssertionKind.EXISTS),
)
MODEL = ClusterModel(nodes=(NodeSpec(4000, 16 * GIB),))
WORKLOAD = Workload(serial_seconds=10.0, parallel_core_seconds=100.0)


def deps_for(script, case_id="case", assertions=ASSERTIONS, deployer="sim", workload=WORKLOAD):
    return ChainDeps(
        provider=MockProvider(script),
        assertions=assertions,
        deployer=SimulatedDeployer(model=MODEL) if deployer == "sim" else deployer,
        workload=workload,
        case_id=case_id,
    )


def script_for(case_id, replies, verify_default="VERDICT: ALIGNED"):
    entries = {(case_id, i + 1): MockReply(text) for i, text in enumerate(replies)}
    defaults = {f"{case_id}#verify": MockReply(verify_default)}
    return MockScript(entries=entries, scenario_defaults=defaults)


def oracle_filter_logs(raw: str) -> list[str]:
    """The per-line loop: split, lower each line, test every marker on it.
    ``filter_logs`` must match it on every text."""
    kept: list[str] = []
    for line in raw.splitlines():
        lowered = line.lower()
        if not any(marker in lowered for marker in SEVERITY_MARKERS):
            continue
        if len(line) > LOG_LINE_BUDGET:
            line = line[:LOG_LINE_BUDGET] + "..."
        if kept and kept[-1] == line:
            continue
        kept.append(line)
    if len(kept) > LOG_LINE_CAP:
        omitted = len(kept) - 25 - 25
        kept = kept[:25] + [f"... {omitted} lines elided ..."] + kept[-25:]
    return kept


# Every break str.splitlines knows, and "\r\n" as one.
LINE_BREAKS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
_MIXED_CASE_MARKERS = st.sampled_from(SEVERITY_MARKERS).flatmap(
    lambda marker: st.lists(st.booleans(), min_size=len(marker), max_size=len(marker)).map(
        lambda upper: "".join(c.upper() if up else c for c, up in zip(marker, upper))
    )
)
# U+0130 lowers to "i" and U+0307; U+212A (Kelvin) to "k"; "ſ" stays itself;
# "Σ" lowers by its context. Pieces of markers, and a run that puts a line
# over LOG_LINE_BUDGET with one more piece.
_PIECES = st.one_of(
    _MIXED_CASE_MARKERS,
    st.sampled_from(
        ["\u0130", "\u212a", "\u017f", "\u03a3", "x", " ", "err", "or", "i", "\u0307", "in\u017fufficient"]
    ),
    st.just("y" * LOG_LINE_BUDGET),
)
_LINES = st.lists(_PIECES, max_size=5).map("".join)


@st.composite
def _logs(draw):
    """Lines drawn from a small pool, so repeats are common, joined by any break."""
    pool = draw(st.lists(_LINES, min_size=1, max_size=6))
    lines = draw(st.lists(st.sampled_from(pool), max_size=70))
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    return text[: -len(breaks[-1])] if breaks and draw(st.booleans()) else text


class TestFilterLogs:
    def test_severity_filter(self):
        raw = "\n".join([f"INFO step {i}" for i in range(100)] + ["Error: OOMKilled"])
        assert filter_logs(raw) == ["Error: OOMKilled"]

    def test_consecutive_duplicates_collapse(self):
        raw = "\n".join(["Error: OOMKilled"] * 5)
        assert filter_logs(raw) == ["Error: OOMKilled"]

    def test_non_consecutive_duplicates_survive(self):
        raw = "Error: a\nError: b\nError: a"
        assert filter_logs(raw) == ["Error: a", "Error: b", "Error: a"]

    def test_eighty_distinct_lines_elide_to_51(self):
        raw = "\n".join(f"Error: failure {i}" for i in range(80))
        lines = filter_logs(raw)
        assert len(lines) == 51
        assert lines[:25] == [f"Error: failure {i}" for i in range(25)]
        assert lines[26:] == [f"Error: failure {i}" for i in range(55, 80)]
        assert lines[25] == "... 30 lines elided ..."

    def test_exactly_fifty_lines_untouched(self):
        raw = "\n".join(f"warn {i}" for i in range(LOG_LINE_CAP))
        assert len(filter_logs(raw)) == 50

    def test_fifty_one_lines_elided(self):
        raw = "\n".join(f"warn {i}" for i in range(51))
        lines = filter_logs(raw)
        assert len(lines) == 51
        assert lines[25] == "... 1 lines elided ..."

    def test_case_insensitive_markers(self):
        raw = "WARNING: disk low\nDeployment FAILED\nAccess Denied\nquota exceeded"
        assert filter_logs(raw) == ["WARNING: disk low", "Deployment FAILED", "Access Denied"]

    @pytest.mark.parametrize("marker", SEVERITY_MARKERS)
    def test_every_marker_matches(self, marker):
        assert filter_logs(f"something {marker} happened") == [f"something {marker} happened"]

    def test_empty_input(self):
        assert filter_logs("") == []

    @settings(max_examples=400, deadline=None)
    @given(raw=_logs())
    @example(raw="\n".join(f"Fatal {i}" for i in range(60)))
    @example(raw="\u0130error\r\nok\u2028\u212aWARN\x85\u03a3 denied\u03a3\x1e" + "z" * 3000 + "failed")
    def test_matches_oracle(self, raw):
        assert filter_logs(raw) == oracle_filter_logs(raw)

    @pytest.mark.parametrize(
        "raw",
        [
            "\x0b" + "\n".join(f"error {i}" for i in range(100_000)),
            "error " * 1_700_000,
            (
                "\n".join(
                    f"placed replica {i} on node {i // 16} (remaining cpu=100m memory=1B)"
                    for i in range(200_000)
                )
                + "\nError: replica 200000 unplaceable: insufficient cpu"
            ),
        ],
        ids=["100k-hit-lines-after-vt", "10MB-line", "200k-placed-lines"],
    )
    def test_hostile_shapes_take_one_step_per_hit_line(self, raw):
        # Work is counted, not timed. The loop holds the text's lines, each a
        # str of about 50 bytes plus its characters, the kept lines and one
        # lowered line at a time: a few bytes per character of the text.
        assert filter_logs(raw) == oracle_filter_logs(raw)
        held = peak(lambda: filter_logs(raw))
        assert held <= 8 * len(raw), (held, len(raw))


class TestMakeFeedback:
    def test_summary_with_prior_stage(self):
        feedback = make_feedback(
            Stage.DEPLOYMENT, Stage.STATIC_VALIDATION, "insufficient memory", ""
        )
        assert feedback.summary == (
            "Deployment failed after StaticValidation succeeded due to insufficient memory"
        )

    def test_reason_whitespace_normalized(self):
        feedback = make_feedback(Stage.STRUCTURAL, Stage.GENERATION, "a\n  b\t c", "")
        assert feedback.summary.endswith("due to a b c")

    def test_lines_come_from_filter(self):
        raw = "INFO fine\nError: bad\nError: bad"
        feedback = make_feedback(Stage.DEPLOYMENT, Stage.GENERATION, "r", raw)
        assert feedback.filtered_lines == ("Error: bad",)

    def test_render_is_summary_plus_lines(self):
        feedback = FeedbackContext(
            failed_stage=Stage.DEPLOYMENT,
            filtered_lines=("Error: x", "Error: y"),
            summary="s",
        )
        assert feedback.render() == "s\nError: x\nError: y"
        bare = FeedbackContext(Stage.DEPLOYMENT, (), "s")
        assert bare.render() == "s"


class TestStage:
    def test_declared_order(self):
        values = [s.value for s in Stage]
        assert values == [
            "Generation",
            "Structural",
            "StaticValidation",
            "CoTVerification",
            "Deployment",
            "RuntimeBenchmark",
        ]
        orders = [list(Stage).index(s) for s in Stage]
        assert orders == sorted(orders)

    def test_gate_table_lists_each_later_stage_once_in_order(self):
        # Stage monotonicity of every attempt record rests on this.
        assert [stage for stage, _, _ in GATES] == list(Stage)

    def test_simulator_does_not_import_chain(self):
        # The package's __init__ re-exports the chain, so the simulator is
        # imported under a bare package object to see its own imports.
        code = (
            "import importlib.util, sys, types\n"
            "pkg = types.ModuleType('intentconf')\n"
            "pkg.__path__ = importlib.util.find_spec('intentconf').submodule_search_locations\n"
            "sys.modules['intentconf'] = pkg\n"
            "import intentconf.simulator\n"
            "print('intentconf.chain' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False"


class TestRunChain:
    def test_clean_first_attempt(self):
        outcome = run_chain(
            REQUEST,
            OptimizationProfile.for_name("ip"),
            deps_for(script_for("case", [GOOD_CONFIG])),
        )
        assert outcome.resolved
        assert outcome.attempts_used == 1
        record = outcome.attempt_history[0]
        assert record.stages_passed == (
            Stage.GENERATION,
            Stage.STRUCTURAL,
            Stage.STATIC_VALIDATION,
            Stage.DEPLOYMENT,
            Stage.RUNTIME_BENCHMARK,
        )
        assert outcome.final_config.root["worker"]["replicas"] == 2
        assert outcome.benchmark.completion_seconds == pytest.approx(110.0)

    def test_static_failure_then_fix(self):
        outcome = run_chain(
            REQUEST,
            OptimizationProfile.for_name("ip"),
            deps_for(script_for("case", [MISSING_KEY_CONFIG, GOOD_CONFIG])),
        )
        assert outcome.resolved and outcome.attempts_used == 2
        first = outcome.attempt_history[0]
        assert first.feedback.failed_stage is Stage.STATIC_VALIDATION
        assert "assertions failed" in first.feedback.summary

    @pytest.mark.parametrize(
        "first,reason",
        [
            (BIG_MEMORY_CONFIG, "insufficient memory"),
            (GOOD_CONFIG.replace("500m", ".inf"), "cpu quantity must be finite"),
            (GOOD_CONFIG.replace("512Mi", ".inf"), "memory quantity must be finite"),
            (GOOD_CONFIG.replace("500m", ".nan"), "cpu quantity must be finite"),
        ],
        ids=["insufficient memory", "cpu inf", "memory inf", "cpu nan"],
    )
    def test_deployment_failure_is_repaired(self, first, reason):
        outcome = run_chain(
            REQUEST,
            OptimizationProfile.for_name("ip"),
            deps_for(script_for("case", [first, GOOD_CONFIG])),
        )
        assert outcome.resolved and outcome.attempts_used == 2
        summary = outcome.attempt_history[0].feedback.summary
        assert "Deployment failed after StaticValidation succeeded" in summary
        assert reason in summary

    def test_structural_failure_records_stage(self):
        outcome = run_chain(
            REQUEST,
            OptimizationProfile.for_name("ip"),
            deps_for(script_for("case", ["no yaml at all, sorry", GOOD_CONFIG])),
        )
        assert outcome.resolved and outcome.attempts_used == 2
        first = outcome.attempt_history[0]
        assert first.feedback.failed_stage is Stage.STRUCTURAL
        assert first.reached is Stage.STRUCTURAL
        assert first.stages_passed == (Stage.GENERATION,)

    def test_unconstructible_value_is_structural_feedback(self):
        outcome = run_chain(
            REQUEST,
            OptimizationProfile.for_name("ip"),
            deps_for(script_for("case", ["expires: 2024-02-30", GOOD_CONFIG])),
        )
        assert outcome.resolved and outcome.attempts_used == 2
        first = outcome.attempt_history[0]
        assert first.feedback.failed_stage is Stage.STRUCTURAL
        assert first.stages_passed == (Stage.GENERATION,)

    @pytest.mark.parametrize(
        "assertion,reason",
        [
            (
                Assertion("worker/replicas", AssertionKind.EQUALS, 2.5),
                f"expected 2.5, found {10**400}",
            ),
            (Assertion("worker/replicas", AssertionKind.COMPARE, 2.5), f"{10**400} != 2.5"),
        ],
        ids=["Equals", "Compare ="],
    )
    def test_number_too_large_for_a_float_is_static_feedback(self, assertion, reason):
        huge = GOOD_CONFIG.replace("replicas: 2", f"replicas: {10**400}")
        fixed = GOOD_CONFIG.replace("replicas: 2", "replicas: 2.5")
        deps = deps_for(script_for("case", [huge, fixed]), assertions=(assertion,), deployer=None)
        outcome = run_chain(REQUEST, OptimizationProfile.for_name("ip"), deps)
        assert outcome.resolved and outcome.attempts_used == 2
        first = outcome.attempt_history[0]
        assert first.feedback.failed_stage is Stage.STATIC_VALIDATION
        assert reason in first.feedback.render()

    @pytest.mark.parametrize(
        "reply,assertions,stage",
        [
            (
                "worker:\n  replicas: " + "x" * 200_000,
                (Assertion("worker/replicas", AssertionKind.EQUALS, 2),),
                Stage.STATIC_VALIDATION,
            ),
        ],
        ids=["long scalar Equals"],
    )
    def test_feedback_quoting_the_reply_is_bounded(self, reply, assertions, stage):
        deps = deps_for(script_for("case", [reply, GOOD_CONFIG]), assertions=assertions)
        outcome = run_chain(REQUEST, OptimizationProfile.for_name("ip"), deps)
        assert outcome.resolved and outcome.attempts_used == 2
        feedback = outcome.attempt_history[0].feedback
        assert feedback.failed_stage is stage and "..." in feedback.summary
        for line in (feedback.summary, *feedback.filtered_lines):
            assert len(line) <= 2 * QUOTE_BUDGET + 200, line[:300]

    @pytest.mark.parametrize(
        "assertions",
        [(), (Assertion("worker/replicas", AssertionKind.EQUALS, 2),)],
        ids=["alias chain Deployment", "alias chain Equals"],
    )
    def test_alias_chain_is_one_short_structural_line(self, assertions):
        # Expanded, the chain would reach Deployment or Equals with 2**20 lists,
        # which repr once quoted in 7,340,061 characters. Its aliases copy past
        # the budget, so the reply, all on one line, holds no span that parses.
        deps = deps_for(script_for("case", [ALIAS_CHAIN_REPLY, GOOD_CONFIG]), assertions=assertions)
        outcome = run_chain(REQUEST, OptimizationProfile.for_name("ip"), deps)
        assert outcome.resolved and outcome.attempts_used == 2
        first = outcome.attempt_history[0]
        assert first.feedback.failed_stage is Stage.STRUCTURAL
        assert first.stages_passed == (Stage.GENERATION,)
        assert "no contiguous region of the reply parses" in first.feedback.summary
        for line in (first.feedback.summary, *first.feedback.filtered_lines):
            assert len(line) <= 200 and "\n" not in line, line[:300]

    @pytest.mark.parametrize("profile", ["ip", "cot"])
    def test_deep_nesting_is_structural_feedback(self, profile):
        # 2 KB of flow sequences 995 deep, with no assertion to stop it before
        # the verify prompt, which serializes the tree, recursing once per level.
        reply = "a: " + "[" * 995 + "]" * 995
        deps = deps_for(script_for("case", [reply, GOOD_CONFIG]), assertions=())
        outcome = run_chain(REQUEST, OptimizationProfile.for_name(profile), deps)
        assert outcome.resolved and outcome.attempts_used == 2
        first = outcome.attempt_history[0]
        assert first.feedback.failed_stage is Stage.STRUCTURAL
        assert first.stages_passed == (Stage.GENERATION,)
        assert "no contiguous region of the reply parses" in first.feedback.summary

    def test_unknown_system_is_deployment_feedback(self):
        request = GenerationRequest(system="nosuchsystem", prompt=REQUEST.prompt, intent=REQUEST.intent)
        outcome = run_chain(
            request,
            OptimizationProfile.for_name("ip"),
            deps_for(script_for("case", [GOOD_CONFIG] * 3)),
        )
        assert not outcome.resolved and outcome.attempts_used == 3
        for attempt in outcome.attempt_history:
            assert attempt.feedback.failed_stage is Stage.DEPLOYMENT
            assert "no resource profile for system 'nosuchsystem'" in attempt.feedback.render()

    def test_budget_safety(self):
        outcome = run_chain(
            REQUEST,
            OptimizationProfile.for_name("ip"),
            deps_for(script_for("case", [MISSING_KEY_CONFIG] * 10)),
        )
        assert not outcome.resolved
        assert outcome.attempts_used == outcome.max_attempts == 3
        assert outcome.final_config is None and outcome.benchmark is None

    def test_failed_attempt_keeps_what_its_gates_produced(self):
        outcome = run_chain(
            REQUEST,
            OptimizationProfile.for_name("ip"),
            deps_for(script_for("case", [MISSING_KEY_CONFIG] * 3)),
        )
        assert not outcome.resolved
        first = outcome.attempt_history[0]
        assert first.feedback.failed_stage is Stage.STATIC_VALIDATION
        assert first.config.root == {
            "worker": {"resources": {"limits": {"cpu": "500m", "memory": "512Mi"}}}
        }
        assert first.resources is None and first.benchmark is None
        assert outcome.final_config is None and outcome.benchmark is None

    def test_feedback_fidelity_previous_attempt_only(self):
        script = script_for("case", ["::broken::", BIG_MEMORY_CONFIG, GOOD_CONFIG])
        outcome = run_chain(REQUEST, OptimizationProfile.for_name("ip"), deps_for(script))
        assert outcome.resolved and outcome.attempts_used == 3
        first, second, third = outcome.attempt_history
        assert FEEDBACK_LABEL not in first.user_message
        for line in first.feedback.filtered_lines:
            assert line in second.user_message
        for line in second.feedback.filtered_lines:
            assert line in third.user_message
        # attempt 3 carries only attempt 2's feedback
        assert first.feedback.summary not in third.user_message
        assert second.feedback.summary in third.user_message

    def test_prompt_prefix_stable_across_attempts(self):
        script = script_for("case", [MISSING_KEY_CONFIG, MISSING_KEY_CONFIG, GOOD_CONFIG])
        outcome = run_chain(REQUEST, OptimizationProfile.for_name("ip"), deps_for(script))
        first, second, third = outcome.attempt_history
        assert second.user_message.startswith(first.user_message)
        assert third.user_message.startswith(first.user_message)

    def test_stage_monotonicity_every_attempt(self):
        script = script_for("case", ["::broken::", BIG_MEMORY_CONFIG, GOOD_CONFIG])
        outcome = run_chain(REQUEST, OptimizationProfile.for_name("ip"), deps_for(script))
        for record in outcome.attempt_history:
            orders = [list(Stage).index(stage) for stage in record.stages_passed]
            assert orders == sorted(orders) and len(set(orders)) == len(orders)
            if record.feedback:
                assert list(Stage).index(record.feedback.failed_stage) > orders[-1] if orders else True

    def test_provider_error_aborts_chain(self):
        class FlakyProvider:
            def __init__(self):
                self.inner = MockProvider(script_for("case", [MISSING_KEY_CONFIG]))
                self.calls = 0

            def complete(self, payload, params):
                self.calls += 1
                if self.calls >= 2:
                    raise ProviderError("socket closed", status=None)
                return self.inner.complete(payload, params)

        deps = ChainDeps(
            provider=FlakyProvider(),
            assertions=ASSERTIONS,
            deployer=SimulatedDeployer(model=MODEL),
            workload=WORKLOAD,
            case_id="case",
        )
        outcome = run_chain(REQUEST, OptimizationProfile.for_name("ip"), deps)
        assert not outcome.resolved
        assert outcome.attempts_used == 2
        last = outcome.attempt_history[-1]
        assert "socket closed" in last.provider_error
        assert last.stages_passed == ()
        assert last.failed

    def test_provider_error_in_alignment_check_ends_chain(self):
        class VerifyDown:
            def __init__(self):
                self.inner = MockProvider(script_for("case", ["::broken::", GOOD_CONFIG]))

            def complete(self, payload, params):
                if payload.metadata["case"].endswith("#verify"):
                    raise ProviderError("connection reset", status=None)
                return self.inner.complete(payload, params)

        deps = ChainDeps(provider=VerifyDown(), assertions=ASSERTIONS, case_id="case")
        outcome = run_chain(REQUEST, OptimizationProfile.for_name("cot"), deps)
        assert not outcome.resolved
        assert outcome.attempts_used == 2
        last = outcome.attempt_history[-1]
        assert last.provider_error == "connection reset"
        assert last.feedback is None and last.failed
        assert last.stages_passed == (Stage.GENERATION, Stage.STRUCTURAL, Stage.STATIC_VALIDATION)
        assert last.reached is Stage.COT_VERIFICATION
        # The Generation call was answered, so its reply and tokens stay on the record.
        assert last.response_text == GOOD_CONFIG
        assert last.prompt_tokens > 0
        assert last.completion_tokens == count_tokens(GOOD_CONFIG)
        assert outcome.total_tokens == sum(
            r.prompt_tokens + r.completion_tokens for r in outcome.attempt_history
        )

    def test_malformed_http_reply_is_the_attempts_provider_error(self):
        class Reply:  # a 2xx answer with "content": null
            status_code, text = 200, "{...}"

            def json(self):
                return {"choices": [{"message": {"content": None}}]}

        class Session:
            def post(self, url, **kwargs):
                return Reply()

        provider = gateway_mod.HttpProvider(
            gateway_mod.ProviderConfig(base_url="http://h", model="m"), session=Session()
        )
        deps = ChainDeps(provider=provider, assertions=ASSERTIONS, case_id="case")
        outcome = run_chain(REQUEST, OptimizationProfile.for_name("ip"), deps)
        assert not outcome.resolved and outcome.attempts_used == 1
        last = outcome.attempt_history[-1]
        assert "malformed provider reply" in last.provider_error
        assert last.stages_passed == () and last.failed

    def test_cot_gate_runs_after_static(self):
        script = script_for("case", [GOOD_CONFIG])
        outcome = run_chain(REQUEST, OptimizationProfile.for_name("cot"), deps_for(script))
        assert outcome.resolved
        stages = outcome.attempt_history[0].stages_passed
        assert stages.index(Stage.STATIC_VALIDATION) < stages.index(Stage.COT_VERIFICATION)

    def test_cot_substitutes_when_no_assertions(self):
        script = script_for("case", [GOOD_CONFIG])
        outcome = run_chain(
            REQUEST, OptimizationProfile.for_name("cot"), deps_for(script, assertions=())
        )
        stages = outcome.attempt_history[0].stages_passed
        assert Stage.COT_VERIFICATION in stages
        assert Stage.STATIC_VALIDATION not in stages

    def test_misaligned_verdict_fails_cot_stage(self):
        entries = {("case", 1): MockReply(GOOD_CONFIG), ("case", 2): MockReply(GOOD_CONFIG)}
        defaults = {
            "case#verify": MockReply("VERDICT: ALIGNED"),
        }
        script = MockScript(
            entries={
                **entries,
                ("case#verify", 1): MockReply("off target\nVERDICT: MISALIGNED: replicas wrong"),
            },
            scenario_defaults=defaults,
        )
        outcome = run_chain(REQUEST, OptimizationProfile.for_name("cot"), deps_for(script))
        assert outcome.resolved and outcome.attempts_used == 2
        first = outcome.attempt_history[0]
        assert first.feedback.failed_stage is Stage.COT_VERIFICATION
        assert "replicas wrong" in first.feedback.summary

    def test_unparseable_verdict_fails_cot_stage_and_charges_tokens(self):
        script = MockScript(
            entries={
                ("case", 1): MockReply(GOOD_CONFIG),
                ("case#verify", 1): MockReply("hard to say really"),
                ("case", 2): MockReply(GOOD_CONFIG),
                ("case#verify", 2): MockReply("VERDICT: ALIGNED"),
            },
        )
        outcome = run_chain(REQUEST, OptimizationProfile.for_name("cot"), deps_for(script))
        assert outcome.resolved and outcome.attempts_used == 2
        first = outcome.attempt_history[0]
        assert first.feedback.failed_stage is Stage.COT_VERIFICATION
        assert "unparseable" in first.feedback.summary
        # the wasted verification reply still shows up in the bill
        assert first.completion_tokens == count_tokens(GOOD_CONFIG) + count_tokens(
            "hard to say really"
        )

    def test_no_deployer_skips_deploy_stages(self):
        deps = deps_for(script_for("case", [GOOD_CONFIG]), deployer=None, workload=None)
        outcome = run_chain(REQUEST, OptimizationProfile.for_name("ip"), deps)
        assert outcome.resolved
        stages = outcome.attempt_history[0].stages_passed
        assert Stage.DEPLOYMENT not in stages
        assert Stage.RUNTIME_BENCHMARK not in stages

    def test_no_workload_skips_benchmark(self):
        deps = deps_for(script_for("case", [GOOD_CONFIG]), workload=None)
        outcome = run_chain(REQUEST, OptimizationProfile.for_name("ip"), deps)
        assert outcome.resolved
        assert Stage.DEPLOYMENT in outcome.attempt_history[0].stages_passed
        assert outcome.benchmark is None

    def test_deployer_without_benchmark_method(self):
        class DeployOnly:
            def deploy(self, config, system):
                return SimulatedDeployer(model=MODEL).deploy(config, system)

        deps = deps_for(script_for("case", [GOOD_CONFIG]), deployer=DeployOnly())
        outcome = run_chain(REQUEST, OptimizationProfile.for_name("ip"), deps)
        assert outcome.resolved
        assert Stage.RUNTIME_BENCHMARK not in outcome.attempt_history[0].stages_passed

    def test_token_totals_sum_attempts(self):
        script = script_for("case", [MISSING_KEY_CONFIG, GOOD_CONFIG])
        outcome = run_chain(REQUEST, OptimizationProfile.for_name("ip"), deps_for(script))
        assert outcome.total_prompt_tokens == sum(
            r.prompt_tokens for r in outcome.attempt_history
        )
        assert outcome.total_tokens == (
            outcome.total_prompt_tokens + outcome.total_completion_tokens
        )

    def test_replay_determinism(self):
        def run():
            return run_chain(
                REQUEST,
                OptimizationProfile.for_name("ip"),
                deps_for(script_for("case", ["::broken::", BIG_MEMORY_CONFIG, GOOD_CONFIG])),
            )

        assert run() == run()


class TestTranscripts:
    def outcome(self):
        return run_chain(
            REQUEST,
            OptimizationProfile.for_name("ip"),
            deps_for(script_for("case", [BIG_MEMORY_CONFIG, GOOD_CONFIG])),
        )

    def test_one_line_per_attempt_round_trip(self, tmp_path, jsonl_entries):
        path = tmp_path / "chain.jsonl"
        outcome = self.outcome()
        write_transcript(path, outcome, case_id="case", system="dask")
        entries = jsonl_entries(path)
        assert len(entries) == 2
        assert [e["attempt"] for e in entries] == [1, 2]
        assert entries[0]["failed_stage"] == "Deployment"
        assert "insufficient memory" in entries[0]["summary"]
        assert entries[1]["failed_stage"] is None
        assert entries[0]["case"] == "case" and entries[0]["system"] == "dask"

    def test_byte_identical_reruns(self, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_transcript(first, self.outcome(), case_id="case", system="dask")
        write_transcript(second, self.outcome(), case_id="case", system="dask")
        assert first.read_bytes() == second.read_bytes()

    def test_no_timestamps_anywhere(self, tmp_path, jsonl_entries):
        path = tmp_path / "chain.jsonl"
        write_transcript(path, self.outcome(), case_id="case", system="dask")
        for entry in jsonl_entries(path):
            assert not any("time" in key and key != "latency_seconds" for key in entry)
            assert "date" not in " ".join(entry.keys())

    def test_stage_fields_reflect_history(self, tmp_path, jsonl_entries):
        path = tmp_path / "chain.jsonl"
        outcome = self.outcome()
        write_transcript(path, outcome, case_id="case", system="dask")
        entries = jsonl_entries(path)
        for entry, record in zip(entries, outcome.attempt_history):
            assert entry["stages_passed"] == [s.value for s in record.stages_passed]
            assert entry["reached"] == record.reached.value
            assert entry["prompt"] == record.user_message

    def test_outcome_shape(self):
        outcome = self.outcome()
        assert isinstance(outcome, ChainOutcome)
        assert [f.name for f in dataclasses.fields(ChainOutcome)] == [
            "attempt_history", "max_attempts"
        ]
        assert outcome.attempts_used == len(outcome.attempt_history) <= outcome.max_attempts


class TestTokenCountingWork:
    """What a chain counts: the fixed prompt text once, and per attempt only
    what changes. Texts are attributed to attempts by the feedback the chain
    has made so far: attempt n's texts are those counted after the feedback
    of attempt n-1 and before its own, the retry prompt's feedback section
    and the alignment check included."""

    DOCS = [
        (f"guide{d}.md", " ".join(f"dask worker memory note{d}x{j}." for j in range(150)))
        for d in range(3)
    ]

    def run(self, monkeypatch, replies, verify_replies):
        """The chain's outcome, its index and every counted text with its attempt.
        The request and the shot are made here: both keep their counted
        sections, so objects shared between tests would arrive counted."""
        self.shot = FewShotExample(
            prompt="Scale the dask cluster.",
            intent="three workers",
            correct_output="worker:\n  replicas: 3",
            incorrect_output="worker:\n  replicas: 0",
            defect_note="zero workers run nothing",
        )
        self.request = GenerationRequest(
            system="dask",
            prompt="Write the dask configuration that satisfies the intent.",
            intent="two dask workers with half a gig of memory each",
        )
        index = build_index(self.DOCS, chunk_size=200, overlap=20)
        counted: list[tuple[int, str]] = []
        attempt = 1
        real_make_feedback = chain_mod.make_feedback

        def make_feedback(*args):
            nonlocal attempt
            attempt += 1
            return real_make_feedback(*args)

        def counting(text):
            counted.append((attempt, text))
            return count_tokens(text)

        monkeypatch.setattr(chain_mod, "make_feedback", make_feedback)
        monkeypatch.setattr(prompting_mod, "count_tokens", counting)
        monkeypatch.setattr(gateway_mod, "count_tokens", counting)
        script = script_for("case", replies)
        for number, text in enumerate(verify_replies, start=1):
            script.entries["case#verify", number] = MockReply(text)
        deps = ChainDeps(
            provider=MockProvider(script),
            shots=(self.shot,),
            index=index,
            assertions=ASSERTIONS,
            deployer=SimulatedDeployer(model=MODEL),
            workload=WORKLOAD,
            case_id="case",
        )
        outcome = run_chain(self.request, OptimizationProfile.for_name("lads"), deps)
        assert outcome.resolved and outcome.attempts_used == len(replies)
        assert "## Context" in outcome.attempt_history[0].user_message
        return outcome, index, counted

    def check_bounds(self, outcome, index, counted, verify_replies):
        request, shot = self.request, self.shot
        for text in [request.intent, request.prompt, shot.correct_output, shot.incorrect_output]:
            assert sum(text in seen for _, seen in counted) == 1, text
        for chunk in index.chunks:
            assert sum(chunk.text in seen for _, seen in counted) <= 1, chunk.text

        # The shot's two blocks are counted once, in the first attempt.
        shot_chars = 2 * len(shot.prompt + shot.intent) + len(
            shot.correct_output + shot.incorrect_output + shot.defect_note
        )
        for number, record in enumerate(outcome.attempt_history, start=1):
            feedback = outcome.attempt_history[number - 2].feedback.render() if number > 1 else ""
            varying = (
                len(request.intent) + len(request.prompt)
                + len(feedback) + len(record.response_text) + len(verify_replies[number - 1])
            )
            chars = sum(len(text) for n, text in counted if n == number)
            assert chars <= 300 + shot_chars + 2 * varying

    def test_fixed_prompt_text_is_counted_at_most_once(self, monkeypatch):
        """The intent, the task and the shot's outputs are counted once, a chunk
        text once at most; what else an attempt counts is bounded by the text
        that changes per attempt."""
        replies = ["::broken::", MISSING_KEY_CONFIG, GOOD_CONFIG]
        verify_replies = ["VERDICT: ALIGNED"] * 3
        outcome, index, counted = self.run(monkeypatch, replies, verify_replies)
        self.check_bounds(outcome, index, counted, verify_replies)

    def test_each_alignment_check_reuses_the_counted_intent_and_task(self, monkeypatch):
        """Three attempts reach the alignment check; the intent and the task
        are still counted once in the chain."""
        replies = [GOOD_CONFIG] * 3
        verify_replies = ["VERDICT: MISALIGNED: too few", "VERDICT: MISALIGNED: no", "VERDICT: ALIGNED"]
        outcome, index, counted = self.run(monkeypatch, replies, verify_replies)
        assert [r.reached for r in outcome.attempt_history[:2]] == [Stage.COT_VERIFICATION] * 2
        assert sum("## Generated configuration" in seen for _, seen in counted) == 3
        self.check_bounds(outcome, index, counted, verify_replies)


def resources_reply(cpu, memory, replicas):
    return (
        f"worker:\n  replicas: {replicas}\n  resources:\n    limits:\n"
        f"      cpu: {cpu}\n      memory: {memory}"
    )


class TestPlacementLogWork:
    """The chain formats no placed line on any path: a placement that
    fits reads no log, and a failed one hands the feedback only its ready
    text, the Error line."""

    @pytest.fixture
    def formatted(self, monkeypatch):
        """Fills whose line was formatted. Formatting one fails the chain at once."""
        fills = []

        def refuse(fill, cpu, memory):
            fills.append(fill)
            raise AssertionError(f"formatted the placed line of {fill}")

        monkeypatch.setattr(simulator_mod, "_placed_line", refuse)
        return fills

    def test_a_million_replicas_that_fit_format_no_line(self, formatted, monkeypatch):
        placements = []

        def recorded(model, spec, notes):
            placements.append(apply(model, spec, notes))
            return placements[-1]

        monkeypatch.setattr(simulator_mod, "apply", recorded)
        model = ClusterModel(nodes=(NodeSpec(64000, 16 * GIB),) * 200)
        deps = deps_for(script_for("case", [resources_reply("1m", 1, 1_000_000)]))
        deps = dataclasses.replace(deps, deployer=SimulatedDeployer(model=model))
        outcome = run_chain(REQUEST, OptimizationProfile.for_name("ip"), deps)
        assert outcome.resolved and outcome.attempts_used == 1
        assert outcome.attempt_history[0].resources.replicas == 1_000_000
        assert formatted == []
        # One pool: 15 full nodes in one fill, the last 40,000 replicas on node 15.
        assert [placement.fills for placement in placements] == [(
            (0, 15, 0, 64000, 64000, 16 * GIB),
            (15, 1, 960_000, 40_000, 64000, 16 * GIB),
        )]

    def test_zero_demand_at_any_replica_count_is_benchmark_feedback(self, formatted):
        reply = resources_reply(0, 0, 10**30)
        assert "replicas: 1000000000000000000000000000000" in reply
        outcome = run_chain(
            REQUEST, OptimizationProfile.for_name("ip"), deps_for(script_for("case", [reply] * 3))
        )
        assert not outcome.resolved and outcome.attempts_used == 3
        for attempt in outcome.attempt_history:
            assert attempt.feedback.failed_stage is Stage.RUNTIME_BENCHMARK
            assert "spec allocates zero cores" in attempt.feedback.summary
        assert formatted == []

    @pytest.mark.parametrize(
        "cpu, memory, replicas, overflow",
        [
            (1, "1Gi", 10**350, "int too large to convert to float"),
            (1, 10**400, 2, "integer division result too large for a float"),
        ],
        ids=["cores", "memory"],
    )
    def test_totals_past_the_float_range_are_benchmark_feedback(
        self, formatted, cpu, memory, replicas, overflow
    ):
        deployer = SimulatedDeployer(model=ClusterModel(nodes=(NodeSpec(10**401, 10**401),)))
        reply = resources_reply(cpu, memory, replicas)
        deps = dataclasses.replace(deps_for(script_for("case", [reply] * 3)), deployer=deployer)
        outcome = run_chain(REQUEST, OptimizationProfile.for_name("ip"), deps)
        assert not outcome.resolved and outcome.attempts_used == 3
        for attempt in outcome.attempt_history:
            assert attempt.feedback.failed_stage is Stage.RUNTIME_BENCHMARK
            assert attempt.feedback.summary.endswith(
                f"due to spec totals are past the float range: {overflow}"
            )
        assert formatted == []

    @pytest.mark.parametrize(
        "nodes, reply, error",
        [
            pytest.param(
                (NodeSpec(64000, 16 * GIB),) * 3,
                resources_reply(0, 1, 10**30),
                "Error: replica 51539607552 unplaceable: insufficient memory"
                " (demand cpu=0m memory=1B)",
                id="a-byte-a-replica-at-10**30",
            ),
            pytest.param(
                (NodeSpec(8000, 32 * GIB),) * 200,
                resources_reply("500m", "256Mi", 3600),
                "Error: replica 3200 unplaceable: insufficient cpu"
                " (demand cpu=500m memory=268435456B)",
                id="wide-placement-oversubscribed",
            ),
        ],
    )
    def test_a_failed_fill_feeds_back_only_its_error_line(self, formatted, nodes, reply, error):
        deployer = SimulatedDeployer(model=ClusterModel(nodes=nodes))
        deps = dataclasses.replace(deps_for(script_for("case", [reply] * 3)), deployer=deployer)
        outcome = run_chain(REQUEST, OptimizationProfile.for_name("ip"), deps)
        assert not outcome.resolved and outcome.attempts_used == 3
        for attempt in outcome.attempt_history:
            assert attempt.feedback.failed_stage is Stage.DEPLOYMENT
            assert attempt.feedback.filtered_lines == (error,)
        assert formatted == []
