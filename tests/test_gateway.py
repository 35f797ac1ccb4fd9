"""Sampling params, the deterministic mock provider, and the HTTP client."""

import dataclasses
import random

import pytest
import requests

import intentconf.gateway as gateway_mod
from intentconf.appconfig import build_provider, load_app_config
from intentconf.gateway import (
    ATTEMPT_CEILING,
    HttpProvider,
    MockProvider,
    MockReply,
    MockScript,
    PromptPayload,
    Provider,
    ProviderConfig,
    ProviderError,
    RawResponse,
    SamplingParams,
    clamp_for_determinism,
    load_mock_script,
    mock_script_from_dict,
)
from intentconf.preprocess import InputError
from intentconf.retrieval import count_tokens
from intentconf.simulator import Workload


class TestSamplingParams:
    def test_defaults_valid(self):
        params = SamplingParams()
        assert params.max_tokens == 2048

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": -0.1},
            {"temperature": 2.5},
            {"top_p": 0.0},
            {"top_p": 1.5},
            {"max_tokens": 0},
        ],
    )
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SamplingParams(**kwargs)


class TestClamp:
    def test_high_values_clamped(self):
        clamped = clamp_for_determinism(SamplingParams(temperature=0.8, top_p=0.95))
        assert (clamped.temperature, clamped.top_p) == (0.1, 0.1)

    def test_below_threshold_unchanged(self):
        clamped = clamp_for_determinism(SamplingParams(temperature=0.05, top_p=0.05))
        assert (clamped.temperature, clamped.top_p) == (0.05, 0.05)

    def test_boundary_fixed_point(self):
        clamped = clamp_for_determinism(SamplingParams(temperature=0.1, top_p=0.1))
        assert (clamped.temperature, clamped.top_p) == (0.1, 0.1)

    def test_max_tokens_untouched(self):
        clamped = clamp_for_determinism(SamplingParams(temperature=1.9, top_p=0.9, max_tokens=77))
        assert clamped.max_tokens == 77

    def test_idempotent_random(self):
        rng = random.Random(11)
        for _ in range(200):
            params = SamplingParams(
                temperature=rng.uniform(0.0, 2.0),
                top_p=rng.uniform(1e-6, 1.0),
                max_tokens=rng.randrange(1, 5000),
            )
            once = clamp_for_determinism(params)
            assert once.temperature <= 0.1 and once.top_p <= 0.1
            assert clamp_for_determinism(once) == once


class TestPayloadAndResponse:
    def test_empty_user_message_rejected(self):
        with pytest.raises(ValueError):
            PromptPayload(system_instructions="s", user_message="", prompt_tokens=1)
        given = PromptPayload(system_instructions="s", user_message="u", prompt_tokens=1)
        with pytest.raises(ValueError):
            dataclasses.replace(given, user_message="")

    def test_given_prompt_tokens_survive_replace(self):
        given = PromptPayload(system_instructions="s", user_message="u", prompt_tokens=40)
        assert given.prompt_tokens == 40
        assert dataclasses.replace(given, metadata={"case": "c"}).prompt_tokens == 40

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"prompt_tokens": -1, "completion_tokens": 0, "latency_seconds": 0.0},
            {"prompt_tokens": 0, "completion_tokens": -2, "latency_seconds": 0.0},
            {"prompt_tokens": 0, "completion_tokens": 0, "latency_seconds": -0.5},
        ],
    )
    def test_response_invariants(self, kwargs):
        with pytest.raises(ValueError):
            RawResponse(text="x", **kwargs)


class TestMockScript:
    def setup_method(self):
        self.script = MockScript(
            entries={("dask-01", 1): MockReply("first", 1.5), ("dask-01", 2): MockReply("second")},
            scenario_defaults={"dask-01": MockReply("fallback")},
            default_reply="global",
            default_latency=0.25,
        )

    def test_exact_entry(self):
        assert self.script.lookup("dask-01", 1) == MockReply("first", 1.5)

    def test_scenario_default(self):
        assert self.script.lookup("dask-01", 9).text == "fallback"

    def test_global_default(self):
        reply = self.script.lookup("nope", 1)
        assert reply.text == "global" and reply.latency_seconds == 0.25

    def test_build_provider_overlay_wins(self, tmp_path):
        (tmp_path / "mock.yaml").write_text(
            "default: global\nlatency: 0.25\nscenarios:\n"
            "  dask-01: {replies: [first, second], default: fallback}\n",
            encoding="utf-8",
        )
        app = tmp_path / "app.yaml"
        app.write_text("provider: {kind: mock, script: mock.yaml}\n", encoding="utf-8")
        overlay = MockScript(
            entries={("dask-01", 1): MockReply("patched")},
            scenario_defaults={"dask-01": MockReply("dataset fallback")},
        )
        script = build_provider(load_app_config(app), extra_script=overlay).script
        assert script.lookup("dask-01", 1).text == "patched"
        assert script.lookup("dask-01", 2).text == "second"
        assert script.lookup("dask-01", 9).text == "dataset fallback"
        assert script.lookup("nope", 1) == MockReply("global", 0.25)

    def test_from_dict_list_and_map(self):
        script = mock_script_from_dict(
            {
                "default": "dflt",
                "scenarios": {
                    "a": {"replies": ["one", "two"], "latency": 2.0},
                    "b": {"replies": {3: "third"}},
                },
            }
        )
        assert script.lookup("a", 1).text == "one"
        assert script.lookup("a", 2) == MockReply("two", 2.0)
        assert script.lookup("b", 3).text == "third"
        assert script.lookup("b", 1).text == "dflt"

    # A reply no chain can be served: attempts run from 1 to ATTEMPT_CEILING.
    @pytest.mark.parametrize(
        "replies, key, attempt",
        [
            ({0: "zero"}, 0, 0),
            ({-3: "neg"}, -3, -3),
            ({10**6: "far"}, 10**6, 10**6),
            ({ATTEMPT_CEILING + 1: "past"}, ATTEMPT_CEILING + 1, ATTEMPT_CEILING + 1),
            (["r"] * (ATTEMPT_CEILING + 1), ATTEMPT_CEILING, ATTEMPT_CEILING + 1),
        ],
        ids=["zero", "negative", "far", "past-ceiling", "list-past-ceiling"],
    )
    def test_unservable_attempt_is_refused(self, replies, key, attempt):
        with pytest.raises(InputError) as info:
            mock_script_from_dict({"scenarios": {"d": {"replies": replies}}})
        assert str(info.value) == (
            f"mock script: scenarios.d.replies[{key}] is for attempt {attempt}; "
            f"attempts run from 1 to {ATTEMPT_CEILING}"
        )

    @pytest.mark.parametrize(
        "replies", [{1: "first", ATTEMPT_CEILING: "last"}, ["r"] * ATTEMPT_CEILING]
    )
    def test_attempts_up_to_the_ceiling_are_scripted(self, replies):
        script = mock_script_from_dict({"scenarios": {"d": {"replies": replies}}})
        assert script.lookup("d", ATTEMPT_CEILING).text in ("last", "r")

    def test_load_from_yaml(self, tmp_path):
        path = tmp_path / "script.yaml"
        path.write_text(
            "default: d\nscenarios:\n  s:\n    replies:\n      1: hello\n", encoding="utf-8"
        )
        script = load_mock_script(path)
        assert script.lookup("s", 1).text == "hello"
        assert script.lookup("s", 2).text == "d"


class TestLoadAppConfig:
    def test_workloads_per_system_and_default(self, tmp_path):
        app = tmp_path / "app.yaml"
        app.write_text(
            "workloads:\n"
            "  dask: {serial_seconds: 5, parallel_core_seconds: 50}\n"
            "  default: {serial_seconds: 7}\n",
            encoding="utf-8",
        )
        config = load_app_config(app)
        assert config.workload_for("dask") == Workload(5.0, 50.0)
        assert config.workload_for("redis") == Workload(7.0, 100.0)


class TestMockProvider:
    def make(self):
        script = MockScript(
            entries={("case-1", 1): MockReply("replicas: 2", 1.25)}, default_reply="none"
        )
        return MockProvider(script)

    def payload(self, case="case-1", attempt="1"):
        return PromptPayload(
            system_instructions="sys words",
            user_message="user words here",
            prompt_tokens=count_tokens("sys words") + count_tokens("user words here"),
            metadata={"case": case, "attempt": attempt},
        )

    def test_scripted_lookup_with_latency(self):
        raw = self.make().complete(self.payload(), SamplingParams())
        assert raw.text == "replicas: 2"
        assert raw.latency_seconds == 1.25

    def test_unknown_scenario_gets_default(self):
        raw = self.make().complete(self.payload(case="other"), SamplingParams())
        assert raw.text == "none"

    def test_token_accounting_uses_shared_counter(self):
        payload = self.payload()
        raw = self.make().complete(payload, SamplingParams())
        assert raw.completion_tokens == count_tokens("replicas: 2")
        assert raw.prompt_tokens == count_tokens(payload.system_instructions) + count_tokens(
            payload.user_message
        )

    def test_referential_transparency(self):
        provider = self.make()
        first = provider.complete(self.payload(), SamplingParams())
        second = provider.complete(self.payload(), SamplingParams())
        assert first.text == second.text and first == second


class _FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text or ("" if payload is None else str(payload))

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


class _FakeSession:
    def __init__(self, response=None, error=None):
        self.response = response
        self.error = error
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        if self.error is not None:
            raise self.error
        return self.response


class TestHttpProvider:
    CONFIG = ProviderConfig(base_url="http://llm.local/v1", model="m1", api_key_env="FAKE_KEY")

    def payload(self):
        return PromptPayload(
            system_instructions="sys",
            user_message="hello there",
            prompt_tokens=count_tokens("sys") + count_tokens("hello there"),
        )

    def test_success_with_usage(self, monkeypatch):
        monkeypatch.setenv("FAKE_KEY", "secret")
        session = _FakeSession(
            response=_FakeResponse(
                payload={
                    "choices": [{"message": {"content": "a: 1"}}],
                    "usage": {"prompt_tokens": 12, "completion_tokens": 5},
                }
            )
        )
        provider = HttpProvider(self.CONFIG, session=session)
        raw = provider.complete(self.payload(), SamplingParams(temperature=0.1, top_p=0.1))
        assert raw.text == "a: 1"
        assert (raw.prompt_tokens, raw.completion_tokens) == (12, 5)
        sent = session.requests[0]
        assert sent["url"] == "http://llm.local/v1/chat/completions"
        assert sent["headers"]["Authorization"] == "Bearer secret"
        assert sent["json"]["model"] == "m1"
        assert [m["role"] for m in sent["json"]["messages"]] == ["system", "user"]

    def test_reported_usage_counts_nothing(self, monkeypatch):
        payload = self.payload()
        counted = []
        monkeypatch.setattr(gateway_mod, "count_tokens", lambda text: counted.append(text) or 0)
        session = _FakeSession(
            response=_FakeResponse(
                payload={
                    "choices": [{"message": {"content": "a: 1"}}],
                    "usage": {"prompt_tokens": 12, "completion_tokens": 5},
                }
            )
        )
        raw = HttpProvider(self.CONFIG, session=session).complete(payload, SamplingParams())
        assert (raw.prompt_tokens, raw.completion_tokens) == (12, 5)
        assert counted == []

    def test_missing_completion_usage_counts_only_the_reply(self, monkeypatch):
        payload = PromptPayload(system_instructions="s", user_message="u", prompt_tokens=40)
        counted = []
        monkeypatch.setattr(
            gateway_mod, "count_tokens", lambda text: counted.append(text) or count_tokens(text)
        )
        session = _FakeSession(
            response=_FakeResponse(
                payload={"choices": [{"message": {"content": "x: 1"}}], "usage": {}}
            )
        )
        raw = HttpProvider(self.CONFIG, session=session).complete(payload, SamplingParams())
        assert (raw.prompt_tokens, raw.completion_tokens) == (40, count_tokens("x: 1"))
        assert counted == ["x: 1"]

    def test_usage_fallback_estimates_tokens(self):
        session = _FakeSession(
            response=_FakeResponse(payload={"choices": [{"message": {"content": "x: 1"}}]})
        )
        provider = HttpProvider(ProviderConfig(base_url="http://h", model="m"), session=session)
        raw = provider.complete(self.payload(), SamplingParams())
        assert raw.completion_tokens == count_tokens("x: 1")
        assert raw.prompt_tokens == count_tokens("sys") + count_tokens("hello there")

    def test_transport_failure(self):
        session = _FakeSession(error=requests.ConnectionError("refused"))
        provider = HttpProvider(ProviderConfig(base_url="http://h", model="m"), session=session)
        with pytest.raises(ProviderError) as info:
            provider.complete(self.payload(), SamplingParams())
        assert str(info.value) == "cannot reach http://h/chat/completions: refused"
        assert info.value.status is None

    def test_non_2xx_carries_status_and_body(self):
        body = "overloaded,\n\t retry  later\n"
        session = _FakeSession(response=_FakeResponse(status_code=503, text=body))
        provider = HttpProvider(ProviderConfig(base_url="http://h", model="m"), session=session)
        with pytest.raises(ProviderError) as info:
            provider.complete(self.payload(), SamplingParams())
        assert info.value.status == 503
        assert str(info.value) == "provider returned HTTP 503; body: overloaded, retry later"

    def test_malformed_reply(self):
        session = _FakeSession(response=_FakeResponse(payload={"weird": True}))
        provider = HttpProvider(ProviderConfig(base_url="http://h", model="m"), session=session)
        with pytest.raises(ProviderError):
            provider.complete(self.payload(), SamplingParams())

    @pytest.mark.parametrize(
        "body",
        [
            {"usage": "lots"},
            {"usage": {"prompt_tokens": "many"}},
            {"usage": {"completion_tokens": -3}},
            {"usage": {"prompt_tokens": None}},
            {"usage": {"completion_tokens": 1e400}},
            {"usage": {"prompt_tokens": True}},
            {"content": None},
            {"content": ["a: 1"]},
            {"choices": {"0": {}}},
            [1, 2],
        ],
        ids=["usage-text", "tokens-text", "tokens-negative", "tokens-null", "tokens-inf",
             "tokens-bool", "content-null", "content-list", "choices-mapping", "body-list"],
    )
    def test_malformed_2xx_body_is_a_provider_error(self, body):
        if isinstance(body, dict):
            message = {"content": body.pop("content", "a: 1")}
            body = {"choices": [{"message": message}], **body}
        response = _FakeResponse(status_code=200, payload=body, text=f"body {body!r}")
        session = _FakeSession(response)
        provider = HttpProvider(ProviderConfig(base_url="http://h", model="m"), session=session)
        with pytest.raises(ProviderError) as info:
            provider.complete(self.payload(), SamplingParams())
        assert info.value.status == 200
        assert str(info.value).startswith("malformed provider reply: ")
        assert str(info.value).endswith(f"; body: body {body!r}")

    def test_provider_protocol(self):
        assert isinstance(MockProvider(MockScript()), Provider)
