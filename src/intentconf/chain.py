"""Generate, check, deploy, and retry: the feedback loop around the model.

Each attempt walks an ordered set of gates. When a gate fails, the failure
is condensed into a short stage-tagged summary plus filtered log lines,
and the next attempt gets the original prompt with that feedback appended.
The loop stops at the first attempt that passes every enabled gate or when
the attempt budget runs out. A chain's transcript is written and read back
here alone, so its format lives in this module.
"""

from __future__ import annotations

import enum
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .gateway import ATTEMPT_CEILING, PromptPayload, Provider, ProviderError, complete
from .preprocess import ConfigDocument, Fields, InputError, StructuralError, preprocess_reply
from .preprocess import read_text_file
from .prompting import (
    GenerationRequest,
    OptimizationProfile,
    FewShotExample,
    VerdictUnparseable,
    build_prompt,
    verify_alignment,
    with_feedback,
)
from .retrieval import DEFAULT_TOP_K, Chunk, RetrievalIndex, retrieve
from .simulator import BenchmarkResult, ResourceSpec, Workload, filter_logs
from .validation import Assertion, evaluate


class Stage(enum.Enum):
    """Gates in pipeline order; an attempt reaches a gate only after all earlier ones pass."""

    GENERATION = "Generation"
    STRUCTURAL = "Structural"
    STATIC_VALIDATION = "StaticValidation"
    COT_VERIFICATION = "CoTVerification"
    DEPLOYMENT = "Deployment"
    RUNTIME_BENCHMARK = "RuntimeBenchmark"


@dataclass(frozen=True)
class FeedbackContext:
    """What the next attempt is told about this attempt's failure."""

    failed_stage: Stage
    filtered_lines: tuple[str, ...]
    summary: str

    def render(self) -> str:
        if not self.filtered_lines:
            return self.summary
        return self.summary + "\n" + "\n".join(self.filtered_lines)


def make_feedback(
    failed_stage: Stage, prior_stage: Stage, reason: str, raw_logs: str
) -> FeedbackContext:
    reason = " ".join(reason.split()) or "unspecified failure"
    return FeedbackContext(
        failed_stage=failed_stage,
        filtered_lines=tuple(filter_logs(raw_logs)),
        summary=f"{failed_stage.value} failed after {prior_stage.value} succeeded due to {reason}",
    )


@dataclass
class AttemptRecord:
    """One attempt: what it sent, how far it got, what it cost, what it fed forward.

    The gate steps fill it in as they run: the reply, the parsed config,
    the placed resources and the benchmark, each as far as the attempt got.
    """

    attempt: int
    payload: PromptPayload
    stages_passed: tuple[Stage, ...] = ()
    reached: Stage = Stage.GENERATION
    feedback: FeedbackContext | None = None
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency_seconds: float = 0.0
    response_text: str = ""
    provider_error: str = ""
    config: ConfigDocument | None = None
    resources: ResourceSpec | None = None
    benchmark: BenchmarkResult | None = None

    @property
    def user_message(self) -> str:
        return self.payload.user_message

    @property
    def failed(self) -> bool:
        return self.feedback is not None or bool(self.provider_error)

    def charge(self, raw) -> None:
        self.prompt_tokens += raw.prompt_tokens
        self.completion_tokens += raw.completion_tokens
        self.latency_seconds += raw.latency_seconds


@dataclass(frozen=True)
class ChainOutcome:
    """A chain is its attempts; everything else is read from them."""

    attempt_history: tuple[AttemptRecord, ...]
    max_attempts: int

    @property
    def resolved(self) -> bool:
        return bool(self.attempt_history) and not self.attempt_history[-1].failed

    @property
    def attempts_used(self) -> int:
        return len(self.attempt_history)

    @property
    def final_config(self) -> ConfigDocument | None:
        return self.attempt_history[-1].config if self.resolved else None

    @property
    def benchmark(self) -> BenchmarkResult | None:
        return self.attempt_history[-1].benchmark if self.resolved else None

    @property
    def total_prompt_tokens(self) -> int:
        return sum(r.prompt_tokens for r in self.attempt_history)

    @property
    def total_completion_tokens(self) -> int:
        return sum(r.completion_tokens for r in self.attempt_history)

    @property
    def total_tokens(self) -> int:
        return self.total_prompt_tokens + self.total_completion_tokens


@dataclass
class ChainDeps:
    """Everything run_chain consumes besides the request and profile.

    deployer is duck-typed: it needs deploy(config, system) and, to enable
    the runtime benchmark gate, benchmark(resources, workload).
    """

    provider: Provider
    shots: Sequence[FewShotExample] = ()
    index: RetrievalIndex | None = None
    retrieval_k: int = DEFAULT_TOP_K
    assertions: Sequence[Assertion] = ()
    deployer: object | None = None
    workload: Workload | None = None
    case_id: str = ""


# A gate step returns None on a pass, or (reason, raw logs) on a failure. Steps
# call the layers through this module's globals, looked up at call time.
_Failure = tuple[str, str] | None


def _generation(a: AttemptRecord, request, profile, deps) -> _Failure:
    """The model answers the attempt's prompt."""
    raw = complete(a.payload, profile.sampling, deps.provider)
    a.response_text = raw.text
    a.charge(raw)
    return None


def _structural(a: AttemptRecord, request, profile, deps) -> _Failure:
    """The reply must reduce to one well-formed mapping."""
    try:
        a.config = preprocess_reply(a.response_text)
    except StructuralError as exc:
        return str(exc), f"Error: {exc}"
    return None


def _static_validation(a: AttemptRecord, request, profile, deps) -> _Failure:
    report = evaluate(a.config, deps.assertions)
    if report.passed:
        return None
    failures = report.failures
    reason = (
        f"{len(failures)} of {len(report.results)} assertions failed; "
        f"first: path {failures[0].assertion.path!r} {failures[0].reason}"
    )
    logs = "\n".join(
        f"Error: assertion failed: path {f.assertion.path!r} {f.reason}" for f in failures
    )
    return reason, logs


def _alignment(a: AttemptRecord, request, profile, deps) -> _Failure:
    """The model re-reads its own output against the intent."""
    try:
        verdict = verify_alignment(
            a.config,
            request,
            deps.provider,
            profile.sampling,
            metadata={"case": f"{deps.case_id}#verify", "attempt": str(a.attempt)},
        )
    except VerdictUnparseable as exc:
        a.charge(exc.raw)
        return "alignment verdict unparseable", f"Error: alignment verdict unparseable: {exc}"
    a.charge(verdict.raw)
    if verdict.aligned:
        return None
    reason = verdict.reason or "configuration does not reflect the intent"
    return reason, f"Error: intent misalignment: {reason}"


def _deployment(a: AttemptRecord, request, profile, deps) -> _Failure:
    # The feedback filters the log down to its severity-marked lines. Neither
    # a placed line nor a `note:` line holds a marker, so the chain filters
    # the ready text and formats no placed line on any path. The attempt
    # keeps only the placed spec.
    deployed = deps.deployer.deploy(a.config, request.system)
    if deployed.failure_reason:
        return deployed.failure_reason, deployed.text
    a.resources = deployed.resources
    return None


def _runtime_benchmark(a: AttemptRecord, request, profile, deps) -> _Failure:
    try:
        a.benchmark = deps.deployer.benchmark(a.resources, deps.workload)
    except ValueError as exc:
        return str(exc), f"Error: {exc}"
    return None


# Every stage, in Stage order: (stage, enabled(profile, deps), step).
GATES = (
    (Stage.GENERATION, lambda profile, deps: True, _generation),
    (Stage.STRUCTURAL, lambda profile, deps: True, _structural),
    (Stage.STATIC_VALIDATION, lambda profile, deps: bool(deps.assertions), _static_validation),
    (Stage.COT_VERIFICATION, lambda profile, deps: profile.use_cot, _alignment),
    (Stage.DEPLOYMENT, lambda profile, deps: deps.deployer is not None, _deployment),
    (
        Stage.RUNTIME_BENCHMARK,
        lambda profile, deps: deps.workload is not None and hasattr(deps.deployer, "benchmark"),
        _runtime_benchmark,
    ),
)


def run_chain(
    request: GenerationRequest,
    profile: OptimizationProfile,
    deps: ChainDeps,
) -> ChainOutcome:
    """Run the generate/check/repair loop up to the profile's attempt budget.

    Gates are enabled by the inputs at hand: static validation when
    assertions exist, alignment verification when the profile reasons
    step-by-step, deployment when a deployer is wired in, and the runtime
    benchmark when that deployer can also benchmark a placed workload.
    """
    gates = [(stage, step) for stage, enabled, step in GATES if enabled(profile, deps)]
    context_chunks: tuple[Chunk, ...] = ()
    if profile.use_retrieval and deps.index is not None:
        context_chunks = tuple(
            retrieve(deps.index, f"{request.system} {request.intent}", k=deps.retrieval_k)
        )

    first = build_prompt(profile, request, shots=deps.shots, context_chunks=context_chunks)
    history: list[AttemptRecord] = []
    for attempt in range(1, profile.max_chain_attempts + 1):
        payload = with_feedback(first, history[-1].feedback.render()) if history else first
        a = AttemptRecord(
            attempt, replace(payload, metadata={"case": deps.case_id, "attempt": str(attempt)})
        )
        history.append(a)
        try:
            for stage, step in gates:
                a.reached = stage
                failure = step(a, request, profile, deps)
                if failure is not None:
                    a.feedback = make_feedback(stage, a.stages_passed[-1], *failure)
                    break
                a.stages_passed += (stage,)
        except ProviderError as exc:
            # A provider error, in the Generation call or the alignment
            # check's, ends the chain; it is not feedback for another attempt.
            a.provider_error = str(exc)
        if a.feedback is None:  # passed, or ended by a provider error
            break

    return ChainOutcome(tuple(history), profile.max_chain_attempts)


def write_transcript(
    path: Path | str, outcome: ChainOutcome, case_id: str = "", system: str = ""
) -> None:
    """Persist one chain as JSON lines, one attempt per line.

    Content is fully determined by the chain inputs: no timestamps, so
    identical runs produce identical bytes.
    """
    lines = []
    for record in outcome.attempt_history:
        entry = {
            "case": case_id,
            "system": system,
            "attempt": record.attempt,
            "max_attempts": outcome.max_attempts,
            "stages_passed": [s.value for s in record.stages_passed],
            "reached": record.reached.value,
            "failed_stage": record.feedback.failed_stage.value if record.feedback else None,
            "summary": record.feedback.summary if record.feedback else None,
            "filtered_lines": list(record.feedback.filtered_lines) if record.feedback else [],
            "prompt_tokens": record.prompt_tokens,
            "completion_tokens": record.completion_tokens,
            "latency_seconds": record.latency_seconds,
            "provider_error": record.provider_error or None,
            "prompt": record.user_message,
            "response": record.response_text,
        }
        lines.append(json.dumps(entry, ensure_ascii=True, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class TranscriptStats:
    """One transcript read back: what ``report`` aggregates over chains.

    Exposes the same resolved/attempts_used/max_attempts triple as a live
    ChainOutcome so curve aggregation accepts either.
    """

    system: str
    resolved: bool
    attempts_used: int
    max_attempts: int
    completion_tokens: int
    latencies: tuple[float, ...]


def read_transcript(path: Path | str) -> TranscriptStats | None:
    """The record of the transcript at ``path``; None when it holds no attempts.

    The attempt numbered highest decides the outcome, and an entry with no
    number is numbered by its place in the file. A system left unnamed
    reads as "unknown". A file that does not read, a line that is not a
    JSON object, a field that does not read, an attempt below 1, a
    negative completion_tokens or latency_seconds, completion_tokens that
    take the total past the float range (the cost report prices it as a
    float) and an attempt or budget above ATTEMPT_CEILING are InputErrors
    naming the file and the line.
    """
    path = Path(path)
    attempts: list[tuple[int, float, Fields]] = []  # attempt, latency, entry
    total_tokens = 0
    for number, line in enumerate(read_text_file(path).splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}: line {number}"
        try:
            entry = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"{where}: not JSON: {exc}") from exc
        if not isinstance(entry, dict):
            raise InputError(f"{where}: expected a JSON object, got {type(entry).__name__}")
        fields = Fields(where, entry)
        attempt = fields.get("attempt", len(attempts) + 1)
        tokens = fields.get("completion_tokens", 0)
        latency = fields.get("latency_seconds", 0.0)
        for key, value, least in (
            ("attempt", attempt, 1), ("completion_tokens", tokens, 0), ("latency_seconds", latency, 0)
        ):
            if value < least:
                raise fields.fail(f"must be >= {least}, got {value}", key)
        total_tokens += tokens
        if total_tokens > sys.float_info.max:
            problem = f"must keep the total within the float range, got {tokens}"
            raise fields.fail(problem, "completion_tokens")
        attempts.append((attempt, latency, fields))
    if not attempts:
        return None
    attempts.sort(key=lambda numbered: numbered[0])
    attempt, _, last = attempts[-1]
    max_attempts = last.get("max_attempts", len(attempts))
    for key, count in (("attempt", attempt), ("max_attempts", max_attempts)):
        if count > ATTEMPT_CEILING:
            raise last.fail(f"must be at most {ATTEMPT_CEILING}, got {count}", key)
    return TranscriptStats(
        system=last.get("system", "") or "unknown",
        resolved=last.raw.get("failed_stage") is None and not last.raw.get("provider_error"),
        attempts_used=attempt,
        max_attempts=max_attempts,
        completion_tokens=total_tokens,
        latencies=tuple(latency for _, latency, _ in attempts),
    )
