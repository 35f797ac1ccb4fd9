"""Profiles, prompt section assembly, verdict parsing, shot libraries."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intentconf.prompting as prompting_mod
from intentconf.chain import ChainDeps, Stage, run_chain
from intentconf.gateway import RawResponse, SamplingParams
from intentconf.preprocess import ConfigDocument, InputError, parse_config, serialize_config
from intentconf.prompting import (
    ATTEMPT_CEILING,
    COT_SUFFIX,
    FEEDBACK_LABEL,
    INSTRUCTION_HEADER,
    PROFILE_NAMES,
    FewShotExample,
    GenerationRequest,
    OptimizationProfile,
    VerdictUnparseable,
    build_prompt,
    load_shot_library,
    verify_alignment,
    with_feedback,
)
from intentconf.retrieval import Chunk, chunk_document, count_tokens

REQUEST = GenerationRequest(
    system="dask",
    prompt="Write the dask configuration that satisfies the intent.",
    intent="one scheduler and two worker nodes",
)
SHOTS = (
    FewShotExample(prompt="p1", intent="i1", correct_output="replicas: 1"),
    FewShotExample(
        prompt="p2",
        intent="i2",
        correct_output="replicas: 2",
        incorrect_output="replicas: 0",
        defect_note="zero replicas serve no traffic",
    ),
)
CHUNK = Chunk(doc_id="guide.md", ordinal=3, token_span=(0, 4), text="workers need memory limits")


def doc(tree):
    return ConfigDocument(root=tree, source_text=serialize_config(tree))


class TestProfiles:
    @pytest.mark.parametrize(
        "name,cot,rag,fsl",
        [
            ("ip", False, False, False),
            ("cot", True, False, False),
            ("rag", False, True, False),
            ("fsl", False, False, True),
            ("lads", True, True, True),
        ],
    )
    def test_flag_mapping(self, name, cot, rag, fsl):
        profile = OptimizationProfile.for_name(name)
        assert (profile.use_cot, profile.use_retrieval, profile.use_few_shot) == (cot, rag, fsl)

    def test_for_name_case_insensitive(self):
        assert OptimizationProfile.for_name("LADS").name == "lads"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            OptimizationProfile.for_name("zero-shot")

    def test_header_cannot_be_disabled(self):
        with pytest.raises(TypeError):
            OptimizationProfile(name="ip", use_instruction_header=False)
        payload = build_prompt(OptimizationProfile.for_name("ip"), REQUEST)
        assert payload.system_instructions == INSTRUCTION_HEADER

    def test_flags_must_match_name(self):
        for keyword in ("use_cot", "use_retrieval", "use_few_shot"):
            with pytest.raises(TypeError):
                OptimizationProfile(name="ip", **{keyword: True})

    def test_attempt_budget_positive(self):
        with pytest.raises(ValueError):
            OptimizationProfile.for_name("ip", max_chain_attempts=0)

    def test_attempt_budget_has_a_ceiling(self):
        with pytest.raises(ValueError, match="^max_chain_attempts must be between 1 and 100, got 101$"):
            OptimizationProfile.for_name("ip", max_chain_attempts=ATTEMPT_CEILING + 1)
        assert OptimizationProfile.for_name("ip", max_chain_attempts=ATTEMPT_CEILING)

    def test_effective_sampling_is_clamped(self):
        """Every call of a chain, the verification call included, is sent the clamped params."""

        class RecordingProvider:
            def __init__(self):
                self.params = []

            def complete(self, payload, params):
                self.params.append(params)
                verify = payload.metadata["case"].endswith("#verify")
                return RawResponse("VERDICT: ALIGNED" if verify else "replicas: 2", 1, 1, 0.0)

        provider = RecordingProvider()
        profile = OptimizationProfile("cot", SamplingParams(temperature=0.9, top_p=0.9))
        outcome = run_chain(REQUEST, profile, ChainDeps(provider=provider))
        assert Stage.COT_VERIFICATION in outcome.attempt_history[-1].stages_passed
        assert len(provider.params) == 2
        assert all(p.temperature <= 0.1 and p.top_p <= 0.1 for p in provider.params)

    def test_profile_names_constant(self):
        assert PROFILE_NAMES == ("ip", "cot", "rag", "fsl", "lads")


class TestExampleGuards:
    def test_correct_output_must_parse(self):
        with pytest.raises(ValueError):
            FewShotExample(prompt="p", intent="i", correct_output="- not: [a mapping")

    def test_incorrect_output_needs_note(self):
        with pytest.raises(ValueError):
            FewShotExample(prompt="p", intent="i", correct_output="a: 1", incorrect_output="a: 0")

    def test_request_fields_non_empty(self):
        with pytest.raises(ValueError):
            GenerationRequest(system="dask", prompt="", intent="i")
        with pytest.raises(ValueError):
            GenerationRequest(system="dask", prompt="p", intent="")
        with pytest.raises(ValueError):
            GenerationRequest(system="", prompt="p", intent="i")


def section_offsets(message, markers):
    offsets = []
    for marker in markers:
        position = message.find(marker)
        assert position >= 0, f"section {marker!r} missing"
        offsets.append(position)
    return offsets


class TestBuildPrompt:
    def test_ip_payload_is_header_intent_task_only(self):
        payload = build_prompt(OptimizationProfile.for_name("ip"), REQUEST)
        assert payload.system_instructions == INSTRUCTION_HEADER
        assert "## User intent" in payload.user_message
        assert "## Task" in payload.user_message
        assert "## Context" not in payload.user_message
        assert "## Examples" not in payload.user_message
        assert "Let's think step by step" not in payload.user_message

    def test_header_wording(self):
        assert "Output only the configuration, as YAML, no prose" in INSTRUCTION_HEADER
        assert "only relevant" in INSTRUCTION_HEADER

    def test_lads_sections_in_fixed_order(self):
        payload = build_prompt(
            OptimizationProfile.for_name("lads"),
            REQUEST,
            shots=SHOTS,
            context_chunks=(CHUNK,),
        )
        payload = with_feedback(payload, "summary line\nError: detail")
        offsets = section_offsets(
            payload.user_message,
            ["## Context", "## Examples", "## User intent", "## Task",
             "Let's think step by step", FEEDBACK_LABEL],
        )
        assert offsets == sorted(offsets)

    def test_intent_precedes_task_prompt(self):
        payload = build_prompt(OptimizationProfile.for_name("ip"), REQUEST)
        message = payload.user_message
        assert message.index(REQUEST.intent) < message.index(REQUEST.prompt)

    def test_missing_shots_raise(self):
        with pytest.raises(
            InputError, match="profile 'fsl' requires few-shot examples but none were provided"
        ):
            build_prompt(OptimizationProfile.for_name("fsl"), REQUEST, shots=())

    def test_retrieval_profile_with_no_chunks_omits_section(self):
        payload = build_prompt(OptimizationProfile.for_name("rag"), REQUEST, context_chunks=())
        assert "## Context" not in payload.user_message

    def test_chunk_labels(self):
        payload = build_prompt(
            OptimizationProfile.for_name("rag"), REQUEST, context_chunks=(CHUNK,)
        )
        assert "[doc guide.md part 3]" in payload.user_message
        assert CHUNK.text in payload.user_message

    def test_correct_examples_before_incorrect(self):
        payload = build_prompt(OptimizationProfile.for_name("fsl"), REQUEST, shots=SHOTS)
        message = payload.user_message
        incorrect = message.index("(incorrect, defect: zero replicas serve no traffic)")
        assert message.index("replicas: 1") < incorrect
        assert message.index("replicas: 2") < incorrect
        assert "replicas: 0" in message[incorrect:]

    def test_feedback_is_final_section(self):
        payload = with_feedback(
            build_prompt(OptimizationProfile.for_name("ip"), REQUEST), "it broke\nError: x"
        )
        assert payload.user_message.endswith("it broke\nError: x")
        tail = payload.user_message[payload.user_message.index(FEEDBACK_LABEL):]
        assert "it broke" in tail

    def test_no_feedback_section_on_first_attempt(self):
        payload = build_prompt(OptimizationProfile.for_name("ip"), REQUEST)
        assert FEEDBACK_LABEL not in payload.user_message

    def test_byte_identical_across_calls(self):
        build = lambda: build_prompt(
            OptimizationProfile.for_name("lads"), REQUEST, shots=SHOTS, context_chunks=(CHUNK,)
        )
        assert build().user_message == build().user_message
        assert build().system_instructions == build().system_instructions

    def test_enabling_flags_never_reorders_base_sections(self):
        base = ["## User intent", "## Task"]
        ip = build_prompt(OptimizationProfile.for_name("ip"), REQUEST).user_message
        base_offsets = section_offsets(ip, base)
        assert base_offsets == sorted(base_offsets)
        for name in ("cot", "rag", "fsl", "lads"):
            payload = build_prompt(
                OptimizationProfile.for_name(name), REQUEST, shots=SHOTS, context_chunks=(CHUNK,)
            )
            offsets = section_offsets(payload.user_message, base)
            assert offsets == sorted(offsets)
            assert f"## User intent\n{REQUEST.intent}" in payload.user_message


class TestCotSuffix:
    def test_contains_reasoning_phrase(self):
        assert "Let's think step by step" in COT_SUFFIX

    def test_stable_across_calls(self):
        other = GenerationRequest(system="redis", prompt="p", intent="i")
        for request in (REQUEST, other, REQUEST):
            payload = build_prompt(OptimizationProfile.for_name("cot"), request)
            assert payload.user_message.endswith(COT_SUFFIX)

    def test_ends_with_verdict_format_instruction(self):
        assert COT_SUFFIX.rstrip().endswith(
            "VERDICT: ALIGNED or VERDICT: MISALIGNED: <reason>."
        )


class _CaptureProvider:
    def __init__(self, text):
        self.text = text
        self.calls = []

    def complete(self, payload, params):
        self.calls.append((payload, params))
        return RawResponse(
            text=self.text,
            prompt_tokens=7,
            completion_tokens=11,
            latency_seconds=0.5,
        )


class TestVerifyAlignment:
    CONFIG = doc({"replicas": 2, "limits": {"memory": "4Gi"}})

    def run(self, reply, params=None):
        provider = _CaptureProvider(reply)
        verdict = verify_alignment(
            self.CONFIG, REQUEST, provider, params or SamplingParams()
        )
        return verdict, provider

    def test_aligned(self):
        verdict, _ = self.run("The config matches every constraint.\nVERDICT: ALIGNED")
        assert verdict.aligned and verdict.reason == ""

    def test_misaligned_with_reason(self):
        verdict, _ = self.run("Replica count is too low.\nVERDICT: MISALIGNED: replicas below intent")
        assert not verdict.aligned
        assert verdict.reason == "replicas below intent"

    def test_trailing_blank_lines_ignored(self):
        verdict, _ = self.run("reasoning\nVERDICT: ALIGNED\n\n  \n")
        assert verdict.aligned

    def test_missing_verdict_raises_with_raw(self):
        with pytest.raises(VerdictUnparseable) as info:
            self.run("I think it looks fine overall.")
        assert info.value.raw.completion_tokens == 11

    def test_empty_reply_raises(self):
        with pytest.raises(VerdictUnparseable):
            self.run("   \n\n")

    def test_prefix_text_never_changes_verdict(self):
        rng = random.Random(3)
        words = ["checking", "replicas", "memory", "fine", "warning", "###"]
        for _ in range(25):
            prefix = "\n".join(
                " ".join(rng.choices(words, k=rng.randrange(1, 5)))
                for _ in range(rng.randrange(0, 6))
            )
            verdict, _ = self.run(prefix + "\nVERDICT: ALIGNED")
            assert verdict.aligned

    def test_prompt_carries_config_intent_prompt_and_suffix(self):
        _, provider = self.run("VERDICT: ALIGNED")
        payload, params = provider.calls[0]
        assert "replicas: 2" in payload.user_message
        assert REQUEST.intent in payload.user_message
        assert REQUEST.prompt in payload.user_message
        assert payload.user_message.rstrip().endswith(COT_SUFFIX)

    def test_params_clamped_before_call(self):
        _, provider = self.run("VERDICT: ALIGNED", params=SamplingParams(temperature=1.5, top_p=0.8))
        _, params = provider.calls[0]
        assert params.temperature == 0.1 and params.top_p == 0.1

    def test_verdict_carries_raw_usage(self):
        verdict, _ = self.run("VERDICT: ALIGNED")
        assert verdict.raw.completion_tokens == 11


# Text built to stress token counting: Unicode word characters (a combining
# accent is not one), punctuation runs, and every kind of whitespace.
HOSTILE = st.lists(
    st.sampled_from(
        ["a", "Z", "9", "_", "é", "e\u0301", "ß", "漢", "٣", ":", "::", "-", "[", "]", "#",
         "!?", ".", " ", "\t", "\r\n", "\n", "\u00a0", "\u2028", "\x0b"]
    ),
    max_size=40,
).map("".join)
VALID_CONFIGS = ("replicas: 2", "name: 漢字é\nreplicas: 2\r\n", "a:\n  b: [1, 2]\n\n")


@st.composite
def shots(draw):
    out = []
    for _ in range(draw(st.integers(1, 3))):
        incorrect = draw(HOSTILE)
        out.append(
            FewShotExample(
                prompt=draw(HOSTILE) + "p",
                intent="i" + draw(HOSTILE),
                correct_output=draw(st.sampled_from(VALID_CONFIGS)),
                incorrect_output=incorrect,
                defect_note=draw(HOSTILE) + "!" if incorrect else "",
            )
        )
    return tuple(out)


@st.composite
def contexts(draw):
    context = []
    for _ in range(draw(st.integers(0, 3))):
        chunk_size = draw(st.integers(1, 6))
        context.extend(
            chunk_document(draw(HOSTILE), chunk_size, draw(st.integers(0, chunk_size - 1)),
                           doc_id=draw(HOSTILE))
        )
    return context


def counted_from_texts(payload):
    return count_tokens(payload.system_instructions) + count_tokens(payload.user_message)


class TestPromptTokens:
    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(PROFILE_NAMES),
        prompt=HOSTILE,
        intent=HOSTILE,
        feedback=HOSTILE,
        examples=shots(),
        context=contexts(),
    )
    def test_summed_sections_equal_counting_the_texts(
        self, name, prompt, intent, feedback, examples, context
    ):
        profile = OptimizationProfile.for_name(name)
        request = GenerationRequest(system="dask", prompt=prompt + "p", intent=intent + "i")
        # The second build reuses the examples' and the request's counted sections.
        for _ in range(2):
            payload = build_prompt(profile, request, examples, context)
            assert payload.prompt_tokens == counted_from_texts(payload)
            retry = with_feedback(payload, feedback)
            assert retry.prompt_tokens == counted_from_texts(retry)
        provider = _CaptureProvider("VERDICT: ALIGNED")
        config = parse_config(examples[0].correct_output)
        verify_alignment(config, request, provider, SamplingParams())
        verify_payload, _ = provider.calls[0]
        assert verify_payload.prompt_tokens == counted_from_texts(verify_payload)


def oracle_build_prompt(profile, request, shots=(), context_chunks=(), feedback=""):
    """The payload one call builds for any attempt, feedback section last:
    ``build_prompt`` then ``with_feedback`` must give the same bytes and count."""
    sections = []
    if profile.use_retrieval and context_chunks:
        sections.append(prompting_mod._context_section(context_chunks))
    if profile.use_few_shot:
        sections.append(prompting_mod._examples_section(shots))
    sections.append(prompting_mod._counted(f"## User intent\n{request.intent}"))
    sections.append(prompting_mod._counted(f"## Task\n{request.prompt}"))
    if profile.use_cot:
        sections.append(prompting_mod._COT_SECTION)
    if feedback:
        sections.append(prompting_mod._counted(f"{FEEDBACK_LABEL}\n{feedback}"))
    user_message, tokens = prompting_mod._joined(sections)
    return user_message, count_tokens(INSTRUCTION_HEADER) + tokens


class TestRetryPrompt:
    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(PROFILE_NAMES),
        prompt=HOSTILE,
        intent=HOSTILE,
        feedbacks=st.lists(st.one_of(HOSTILE, st.text()).filter(bool), min_size=1, max_size=3),
        examples=shots(),
        context=contexts(),
    )
    def test_first_prompt_plus_feedback_is_the_single_call_build(
        self, name, prompt, intent, feedbacks, examples, context
    ):
        """Every retry of one chain, each from the same first payload."""
        profile = OptimizationProfile.for_name(name)
        request = GenerationRequest(system="dask", prompt=prompt + "p", intent=intent + "i")
        first = build_prompt(profile, request, examples, context)
        want = oracle_build_prompt(profile, request, examples, context)
        assert (first.user_message, first.prompt_tokens) == want
        for feedback in feedbacks:
            retry = with_feedback(first, feedback)
            want = oracle_build_prompt(profile, request, examples, context, feedback)
            assert (retry.user_message, retry.prompt_tokens) == want
            assert retry.system_instructions == first.system_instructions


class TestShotLibrary:
    def write(self, tmp_path, system, name, text):
        directory = tmp_path / system
        directory.mkdir(exist_ok=True)
        (directory / name).write_text(text, encoding="utf-8")

    def test_loads_sorted_examples(self, tmp_path):
        self.write(tmp_path, "dask", "b.yaml", "prompt: pb\nintent: ib\ncorrect_output: 'b: 1'\n")
        self.write(tmp_path, "dask", "a.yaml", "prompt: pa\nintent: ia\ncorrect_output: 'a: 1'\n")
        shots = load_shot_library(tmp_path, "dask")
        assert [s.prompt for s in shots] == ["pa", "pb"]

    def test_mapping_outputs_serialized(self, tmp_path):
        self.write(
            tmp_path,
            "redis",
            "one.yaml",
            "prompt: p\nintent: i\ncorrect_output:\n  replica:\n    replicaCount: 2\n",
        )
        shots = load_shot_library(tmp_path, "redis")
        assert "replicaCount: 2" in shots[0].correct_output

    def test_mapping_output_reaches_the_prompt_in_utf8(self, tmp_path):
        """A shot's mapping is written as a verify prompt writes a config: non-ASCII as it is."""
        config = "name: caf\u00e9\nlimits:\n  memory: 1Gi\n"
        indented = "".join(f"  {line}\n" for line in config.splitlines())
        self.write(tmp_path, "dask", "a.yaml", f"prompt: p\nintent: i\ncorrect_output:\n{indented}")
        shots = load_shot_library(tmp_path, "dask")
        payload = build_prompt(OptimizationProfile.for_name("fsl"), REQUEST, shots=shots)
        assert f"Configuration:\n{config}\n" in payload.user_message

    def test_counterexample_round_trip(self, tmp_path):
        self.write(
            tmp_path,
            "ray",
            "one.yaml",
            "prompt: p\nintent: i\ncorrect_output: 'a: 1'\n"
            "incorrect_output: 'a: 0'\ndefect_note: zero is wrong\n",
        )
        shot = load_shot_library(tmp_path, "ray")[0]
        assert shot.incorrect_output and shot.defect_note == "zero is wrong"

    def test_unknown_system_is_empty(self, tmp_path):
        assert load_shot_library(tmp_path, "spark") == ()

    def test_invalid_yaml_names_path(self, tmp_path):
        self.write(tmp_path, "dask", "bad.yaml", "prompt: [unclosed\n")
        with pytest.raises(ValueError) as info:
            load_shot_library(tmp_path, "dask")
        assert "bad.yaml: not valid YAML" in str(info.value)

    def test_malformed_file_names_path(self, tmp_path):
        self.write(tmp_path, "dask", "bad.yaml", "prompt: p\nintent: i\ncorrect_output: '- 1'\n")
        with pytest.raises(ValueError) as info:
            load_shot_library(tmp_path, "dask")
        assert "bad.yaml" in str(info.value)
