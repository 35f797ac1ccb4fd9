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

from .preprocess import InputError, convert, load_yaml_file
from .retrieval import count_tokens

DETERMINISTIC_CEILING = 0.1
DEFAULT_MAX_TOKENS = 2048


class ProviderUnreachable(Exception):
    """Transport-level failure: the endpoint could not be reached."""


class ProviderError(Exception):
    """The provider answered, but with a non-2xx status or a malformed body."""

    def __init__(self, message: str, status: int | None = None, body_excerpt: str = ""):
        super().__init__(message)
        self.status = status
        self.body_excerpt = body_excerpt


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

    ``prompt_tokens`` is the token count of the two texts. A builder that
    has counted the pieces it joined passes their sum; when it is omitted,
    the texts are counted here.
    """

    system_instructions: str
    user_message: str
    metadata: Mapping[str, str] = field(default_factory=dict)
    prompt_tokens: int | None = None

    def __post_init__(self):
        if not self.user_message:
            raise ValueError("user_message must be non-empty")
        if self.prompt_tokens is None:
            object.__setattr__(
                self,
                "prompt_tokens",
                count_tokens(self.system_instructions) + count_tokens(self.user_message),
            )


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
    """Issue one completion call through ``provider``, never streaming."""
    if not payload.user_message:
        raise ValueError("user_message must be non-empty")
    return provider.complete(payload, params)


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
            raise ProviderUnreachable(f"cannot reach {url}: {exc}") from exc
        latency = time.perf_counter() - started
        if not 200 <= response.status_code < 300:
            raise ProviderError(
                f"provider returned HTTP {response.status_code}",
                status=response.status_code,
                body_excerpt=response.text[:500],
            )
        try:
            data = response.json()
            text = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError(
                f"malformed provider reply: {exc}",
                status=response.status_code,
                body_excerpt=response.text[:500],
            ) from exc
        usage = data.get("usage") or {}
        prompt_tokens = usage.get("prompt_tokens", payload.prompt_tokens)
        if "completion_tokens" in usage:
            completion_tokens = usage["completion_tokens"]
        else:
            completion_tokens = count_tokens(text)
        return RawResponse(
            text=text,
            prompt_tokens=int(prompt_tokens),
            completion_tokens=int(completion_tokens),
            latency_seconds=latency,
        )


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

    def merged_with(self, other: "MockScript") -> "MockScript":
        """Overlay ``other`` on top of this script; other wins on conflicts."""
        entries = dict(self.entries)
        entries.update(other.entries)
        defaults = dict(self.scenario_defaults)
        defaults.update(other.scenario_defaults)
        return MockScript(
            entries=entries,
            scenario_defaults=defaults,
            default_reply=other.default_reply or self.default_reply,
            default_latency=other.default_latency or self.default_latency,
        )


def _coerce_replies(raw, scenario: str) -> dict[int, str]:
    """Accept either an attempt->text mapping or a list (1-based attempts)."""
    if raw is None:
        return {}
    if isinstance(raw, list):
        return {i + 1: str(text) for i, text in enumerate(raw)}
    if isinstance(raw, dict):
        out = {}
        for attempt, text in raw.items():
            try:
                out[int(attempt)] = str(text)
            except (TypeError, ValueError):
                raise ValueError(f"mock scenario {scenario!r}: attempt keys must be integers")
        return out
    raise ValueError(f"mock scenario {scenario!r}: replies must be a list or mapping")


def mock_script_from_dict(data: Mapping) -> MockScript:
    """Build a MockScript from the parsed script-file structure.

    A value of the wrong shape is a ValueError naming its key.
    """
    default_reply = str(data.get("default", "") or "")
    default_latency = convert(data.get("latency") or 0.0, float, "latency")
    scenarios = data.get("scenarios") or {}
    if not isinstance(scenarios, Mapping):
        raise ValueError(f"scenarios must be a mapping, got {scenarios!r}")
    entries: dict[tuple[str, int], MockReply] = {}
    scenario_defaults: dict[str, MockReply] = {}
    for scenario, spec in scenarios.items():
        scenario = str(scenario)
        if not isinstance(spec, Mapping):
            spec = {"replies": spec}
        where = f"mock scenario {scenario!r}: latency"
        latency = convert(spec.get("latency", default_latency) or 0.0, float, where)
        for attempt, text in _coerce_replies(spec.get("replies"), scenario).items():
            entries[(scenario, attempt)] = MockReply(text, latency)
        if "default" in spec and spec["default"] is not None:
            scenario_defaults[scenario] = MockReply(str(spec["default"]), latency)
    return MockScript(
        entries=entries,
        scenario_defaults=scenario_defaults,
        default_reply=default_reply,
        default_latency=default_latency,
    )


def load_mock_script(path: Path | str) -> MockScript:
    """The provider script in ``path``; an InputError naming the file when it is malformed."""
    data = load_yaml_file(path)
    try:
        return mock_script_from_dict(data)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


class MockProvider:
    """Deterministic provider backed by a MockScript.

    Routing reads the payload metadata: ``case`` selects the scenario and
    ``attempt`` the attempt number. Latency is the scripted value; nothing
    sleeps. Token counts use the shared approximation so cost accounting
    matches real-provider bookkeeping.
    """

    def __init__(self, script: MockScript):
        self.script = script
        self.calls = 0

    def complete(self, payload: PromptPayload, params: SamplingParams) -> RawResponse:
        self.calls += 1
        scenario = payload.metadata.get("case", "")
        attempt = int(payload.metadata.get("attempt", "1"))
        reply = self.script.lookup(scenario, attempt)
        return RawResponse(
            text=reply.text,
            prompt_tokens=payload.prompt_tokens,
            completion_tokens=count_tokens(reply.text),
            latency_seconds=reply.latency_seconds,
        )
