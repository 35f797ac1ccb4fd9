"""Uniform chat-completion interface with sampling control.

Two providers share one contract: an HTTP client for chat-completion style
APIs, and a deterministic scripted mock that every test and desk-scale run
uses. Retry semantics live in the chain loop, never here.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Protocol, runtime_checkable

if TYPE_CHECKING:
    import requests

from .preprocess import Fields, InputError, quote
from .retrieval import count_tokens

DETERMINISTIC_CEILING = 0.1
DEFAULT_MAX_TOKENS = 2048
ATTEMPT_CEILING = 100  # the most attempts a chain may be given, or a transcript record


class ProviderError(Exception):
    """The endpoint failed: unreachable (``status`` None), a non-2xx status or a malformed body.

    The message of a reply that came back ends with the start of its body.
    """

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


def _reply_error(problem: str, response: requests.Response) -> ProviderError:
    """``problem`` with the first 500 characters of the body of ``response``,
    whitespace folded to single spaces so that the message stays one line."""
    excerpt = " ".join(response.text[:500].split())
    return ProviderError(f"{problem}; body: {excerpt or '(empty)'}", status=response.status_code)


@dataclass(frozen=True)
class SamplingParams:
    """Decoding knobs passed through to the provider."""

    temperature: float = 0.0
    top_p: float = 0.05
    max_tokens: int = DEFAULT_MAX_TOKENS

    def __post_init__(self):
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature must be in [0, 2], got {self.temperature}")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be positive, got {self.max_tokens}")


def clamp_for_determinism(params: SamplingParams) -> SamplingParams:
    """Cap temperature and top_p at 0.1; reliable config generation degrades above that."""
    return SamplingParams(
        temperature=min(params.temperature, DETERMINISTIC_CEILING),
        top_p=min(params.top_p, DETERMINISTIC_CEILING),
        max_tokens=params.max_tokens,
    )


@dataclass(frozen=True)
class PromptPayload:
    """One assembled request: system role text, user message, routing metadata.

    ``prompt_tokens`` is the token count of the two texts, which the
    builder sums from the pieces it counted as it joined them.
    """

    system_instructions: str
    user_message: str
    prompt_tokens: int
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.user_message:
            raise ValueError("user_message must be non-empty")


@dataclass(frozen=True)
class RawResponse:
    """Full model output plus usage accounting for one call."""

    text: str
    prompt_tokens: int
    completion_tokens: int
    latency_seconds: float

    def __post_init__(self):
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValueError("token counts must be >= 0")
        if self.latency_seconds < 0:
            raise ValueError("latency_seconds must be >= 0")


@runtime_checkable
class Provider(Protocol):
    def complete(self, payload: PromptPayload, params: SamplingParams) -> RawResponse: ...


def complete(payload: PromptPayload, params: SamplingParams, provider: Provider) -> RawResponse:
    """Issue one completion call through ``provider``, never streaming, with
    ``params`` clamped for determinism."""
    return provider.complete(payload, clamp_for_determinism(params))


@dataclass(frozen=True)
class ProviderConfig:
    """Connection settings for a chat-completion HTTP endpoint."""

    base_url: str
    model: str
    api_key_env: str = ""
    timeout_seconds: float = 30.0


class HttpProvider:
    """Chat-completion client: messages array in, choices array out.

    The API key is read from the environment variable named by
    ``config.api_key_env``; an unset variable simply omits the auth header
    (local inference servers accept that).
    """

    def __init__(self, config: ProviderConfig, session: requests.Session | None = None):
        # Imported here: requests and what it loads hold about 13 MB, which
        # runs on the mock provider never need.
        import requests

        self.config = config
        self._session = session or requests.Session()

    def complete(self, payload: PromptPayload, params: SamplingParams) -> RawResponse:
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        messages = []
        if payload.system_instructions:
            messages.append({"role": "system", "content": payload.system_instructions})
        messages.append({"role": "user", "content": payload.user_message})
        body = {
            "model": self.config.model,
            "messages": messages,
            "temperature": params.temperature,
            "top_p": params.top_p,
            "max_tokens": params.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.config.api_key_env) if self.config.api_key_env else None
        if key:
            headers["Authorization"] = f"Bearer {key}"
        import requests

        started = time.perf_counter()
        try:
            response = self._session.post(
                url, json=body, headers=headers, timeout=self.config.timeout_seconds
            )
        except requests.RequestException as exc:
            raise ProviderError(f"cannot reach {url}: {exc}", status=None) from exc
        latency = time.perf_counter() - started
        if not 200 <= response.status_code < 300:
            raise _reply_error(f"provider returned HTTP {response.status_code}", response)
        try:
            data = response.json()
            text = data["choices"][0]["message"]["content"]
            if type(text) is not str:
                raise TypeError(f"content must be a string, got {text!r}")
            usage = data.get("usage") or {}
            prompt_tokens = usage.get("prompt_tokens", payload.prompt_tokens)
            if "completion_tokens" in usage:
                completion_tokens = usage["completion_tokens"]
            else:
                completion_tokens = count_tokens(text)
            if type(prompt_tokens) is not int or type(completion_tokens) is not int:
                raise TypeError(f"token counts must be integers, got usage {usage!r}")
            return RawResponse(text, prompt_tokens, completion_tokens, latency)
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            # A body of any shape ends here; RawResponse rejects negative counts.
            raise _reply_error(f"malformed provider reply: {exc}", response) from exc


@dataclass(frozen=True)
class MockReply:
    text: str
    latency_seconds: float = 0.0


@dataclass(frozen=True)
class MockScript:
    """Scripted replies keyed by (scenario id, attempt number).

    Lookup is total: a missing (scenario, attempt) falls back to the
    scenario's default, then to the global default reply.
    """

    entries: Mapping[tuple[str, int], MockReply] = field(default_factory=dict)
    scenario_defaults: Mapping[str, MockReply] = field(default_factory=dict)
    default_reply: str = ""
    default_latency: float = 0.0

    def lookup(self, scenario: str, attempt: int) -> MockReply:
        entry = self.entries.get((scenario, attempt))
        if entry is not None:
            return entry
        fallback = self.scenario_defaults.get(scenario)
        if fallback is not None:
            return fallback
        return MockReply(self.default_reply, self.default_latency)


def _latency(spec: Fields, default: float) -> float:
    """The ``latency`` of ``spec``: finite and >= 0; ``default`` if unset."""
    latency = spec.get("latency", default)
    if latency < 0:
        raise spec.fail(f"must be >= 0, got {latency}", "latency")
    return latency


def _unservable(spec: Fields, attempt: int, *key) -> InputError:
    """The error for the reply at ``key``, scripted for an attempt no chain reaches."""
    return spec.fail(f"is for attempt {attempt}; attempts run from 1 to {ATTEMPT_CEILING}", *key)


def read_scenario(
    into: MockScript,
    name: str,
    spec: Fields,
    keys: tuple[str, str] = ("replies", "default"),
    latency: float = 0.0,
) -> None:
    """Script scenario ``name``, the mapping ``spec``, into the entry and default dicts of ``into``.

    ``keys`` name its replies, a list (attempts from 1) or a mapping of
    attempt to text, and its fallback text. Every reply takes the spec's
    ``latency``, or ``latency`` when it sets none.
    """
    latency = _latency(spec, latency)
    replies_key, default_key = keys
    replies = spec.raw.get(replies_key)
    if isinstance(replies, list):
        if len(replies) > ATTEMPT_CEILING:
            raise _unservable(spec, ATTEMPT_CEILING + 1, replies_key, ATTEMPT_CEILING)
        for index, text in enumerate(replies):
            text = spec.check(text, str, replies_key, index)
            into.entries[name, index + 1] = MockReply(text, latency)
    elif isinstance(replies, dict):
        for attempt, text in replies.items():
            text = spec.check(text, str, replies_key, attempt)
            attempt = spec.check(attempt, int, replies_key, attempt)
            if not 1 <= attempt <= ATTEMPT_CEILING:
                raise _unservable(spec, attempt, replies_key, attempt)
            into.entries[name, attempt] = MockReply(text, latency)
    elif replies is not None:
        raise spec.fail(f"must be a list or a mapping, got {quote(replies)}", replies_key)
    default = spec.raw.get(default_key)
    if default is not None:
        default = spec.check(default, str, default_key)
        into.scenario_defaults[name] = MockReply(default, latency)


def mock_script_from_dict(data: Mapping, file="mock script") -> MockScript:
    """Build a MockScript from the parsed script-file structure.

    Each scenario is a mapping. A value of the wrong type is an InputError
    naming ``file`` and its key.
    """
    script = Fields(file, data)
    latency = _latency(script, 0.0)
    built = MockScript({}, {}, script.get("default", ""), latency)
    scenarios = script.section("scenarios")
    for name in scenarios.raw:
        read_scenario(built, str(name), scenarios.section(name), latency=latency)
    return built


def load_mock_script(path: Path | str) -> MockScript:
    """The provider script in ``path``; an InputError naming the file and key if malformed."""
    return mock_script_from_dict(Fields.load(path).raw, path)


class MockProvider:
    """Deterministic provider backed by a MockScript.

    Routing reads the payload metadata: ``case`` selects the scenario and
    ``attempt`` the attempt number. Latency is the scripted value; nothing
    sleeps. Token counts use the shared approximation so cost accounting
    matches real-provider bookkeeping.
    """

    def __init__(self, script: MockScript):
        self.script = script

    def complete(self, payload: PromptPayload, params: SamplingParams) -> RawResponse:
        scenario = payload.metadata.get("case", "")
        attempt = int(payload.metadata.get("attempt", "1"))
        reply = self.script.lookup(scenario, attempt)
        return RawResponse(
            text=reply.text,
            prompt_tokens=payload.prompt_tokens,
            completion_tokens=count_tokens(reply.text),
            latency_seconds=reply.latency_seconds,
        )
