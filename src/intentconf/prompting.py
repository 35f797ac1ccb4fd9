"""Prompt assembly for configuration generation and alignment checks.

A profile's name says which prompt enhancements are active: plain instruction
prompting, step-by-step reasoning, retrieved documentation context,
curated few-shot examples, or all of them combined. build_prompt turns a
generation request plus the active profile into one payload; the sections
always appear in the same order so transcripts stay reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

from .gateway import (
    ATTEMPT_CEILING,
    PromptPayload,
    Provider,
    RawResponse,
    SamplingParams,
    complete,
)
from .preprocess import (
    ConfigDocument,
    Fields,
    InputError,
    StructuralError,
    parse_config,
    serialize_config,
)
from .retrieval import Chunk, count_tokens

# name -> (use_cot, use_retrieval, use_few_shot); every profile keeps the
# instruction header.
_FLAGS = {
    "ip": (False, False, False),
    "cot": (True, False, False),
    "rag": (False, True, False),
    "fsl": (False, False, True),
    "lads": (True, True, True),
}

PROFILE_NAMES = tuple(_FLAGS)

MAX_CHAIN_ATTEMPTS = 3

INSTRUCTION_HEADER = (
    "You are a deployment engineer for distributed compute clusters.\n"
    "Translate the user's intent into a configuration for the named system.\n"
    "Output only the configuration, as YAML, no prose. Produce only relevant\n"
    "configuration details: include only keys the intent calls for or the\n"
    "system requires, never boilerplate."
)

COT_SUFFIX = (
    "Let's think step by step: identify the system being configured, list\n"
    "the constraints the request imposes, map each constraint onto the\n"
    "system's configuration schema, and check every constraint is met.\n"
    "When asked for a verdict, end with exactly one final line of the form\n"
    "VERDICT: ALIGNED or VERDICT: MISALIGNED: <reason>."
)

ALIGNMENT_HEADER = (
    "You are reviewing a generated cluster configuration against the intent\n"
    "it was produced from. Judge whether every constraint in the intent is\n"
    "reflected in the configuration and nothing contradicts it."
)

FEEDBACK_LABEL = "## PREVIOUS ATTEMPT FAILED"

# A prompt's token count is the sum of its sections' counts: sections are
# joined by whitespace and no token spans whitespace, so a join neither adds
# nor splits a token. Text that is the same on every call is counted once.
_Section = tuple[str, int]  # a piece of a user message and its token count


def _counted(text: str) -> _Section:
    return text, count_tokens(text)


def _joined(sections: Sequence[_Section]) -> _Section:
    return "\n\n".join(text for text, _ in sections), sum(n for _, n in sections)


_INSTRUCTION_HEADER_TOKENS = count_tokens(INSTRUCTION_HEADER)
_ALIGNMENT_HEADER_TOKENS = count_tokens(ALIGNMENT_HEADER)
_COT_SECTION = _counted(COT_SUFFIX)
_CONTEXT_LABEL = _counted("## Context")
_EXAMPLES_LABEL = _counted("## Examples")


class VerdictUnparseable(Exception):
    """An alignment reply did not end with a recognizable verdict line."""

    def __init__(self, message: str, raw: RawResponse):
        super().__init__(message)
        self.raw = raw


@dataclass(frozen=True)
class OptimizationProfile:
    """A named set of prompt enhancements, plus sampling policy and attempt budget."""

    name: str
    sampling: SamplingParams = SamplingParams()
    max_chain_attempts: int = MAX_CHAIN_ATTEMPTS

    def __post_init__(self):
        if self.name not in PROFILE_NAMES:
            raise InputError(f"profile must be one of {', '.join(PROFILE_NAMES)}, got {self.name!r}")
        if not 1 <= self.max_chain_attempts <= ATTEMPT_CEILING:
            raise InputError(
                f"max_chain_attempts must be between 1 and {ATTEMPT_CEILING}, "
                f"got {self.max_chain_attempts}"
            )

    @property
    def use_cot(self) -> bool:
        return _FLAGS[self.name][0]

    @property
    def use_retrieval(self) -> bool:
        return _FLAGS[self.name][1]

    @property
    def use_few_shot(self) -> bool:
        return _FLAGS[self.name][2]

    @classmethod
    def for_name(
        cls,
        name: str,
        sampling: SamplingParams | None = None,
        max_chain_attempts: int = MAX_CHAIN_ATTEMPTS,
    ) -> "OptimizationProfile":
        return cls(name.lower(), sampling or SamplingParams(), max_chain_attempts)


@dataclass(frozen=True)
class FewShotExample:
    """One curated example: the task, the intent, a correct configuration,
    and optionally a labeled counterexample."""

    prompt: str
    intent: str
    correct_output: str
    incorrect_output: str = ""
    defect_note: str = ""

    def __post_init__(self):
        if not self.prompt or not self.intent:
            raise ValueError("example prompt and intent must be non-empty")
        try:
            parse_config(self.correct_output)
        except StructuralError as exc:
            raise ValueError(f"correct_output must parse as a configuration: {exc}") from exc
        if self.incorrect_output and not self.defect_note:
            raise ValueError("defect_note is required with an incorrect_output")

    @cached_property
    def _blocks(self) -> tuple[_Section, _Section | None]:
        """This example's block of the examples section and, when it has a
        counterexample, that block too; counted on first use."""
        head = f"Prompt: {self.prompt}\nIntent: {self.intent}\n"
        correct = _counted(f"{head}Configuration:\n{self.correct_output.rstrip()}")
        if not self.incorrect_output:
            return correct, None
        return correct, _counted(
            f"{head}Configuration (incorrect, defect: {self.defect_note}):\n"
            f"{self.incorrect_output.rstrip()}"
        )


@dataclass(frozen=True)
class GenerationRequest:
    """Everything the prompt builder needs for one generation call."""

    system: str
    prompt: str
    intent: str

    def __post_init__(self):
        if not self.system:
            raise ValueError("target system must be named")
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if not self.intent:
            raise ValueError("intent must be non-empty")

    @cached_property
    def _sections(self) -> tuple[_Section, _Section]:
        """The user intent and task sections, which the generation and the
        alignment prompts share; counted on first use."""
        return _counted(f"## User intent\n{self.intent}"), _counted(f"## Task\n{self.prompt}")


def _context_section(chunks: Sequence[Chunk]) -> _Section:
    parts = [_CONTEXT_LABEL]
    for chunk in chunks:
        # A chunk's token count is its window's width.
        label = f"[doc {chunk.doc_id} part {chunk.ordinal}]"
        start, end = chunk.token_span
        parts.append((f"{label}\n{chunk.text}", count_tokens(label) + end - start))
    return _joined(parts)


def _examples_section(shots: Sequence[FewShotExample]) -> _Section:
    # Correct examples first, then every counterexample with its defect note.
    blocks = [shot._blocks for shot in shots]
    return _joined(
        [
            _EXAMPLES_LABEL,
            *(correct for correct, _ in blocks),
            *(incorrect for _, incorrect in blocks if incorrect is not None),
        ]
    )


def build_prompt(
    profile: OptimizationProfile,
    request: GenerationRequest,
    shots: Sequence[FewShotExample] = (),
    context_chunks: Sequence[Chunk] = (),
) -> PromptPayload:
    """Assemble the generation payload for a chain's first attempt.

    Sections appear in fixed order: instruction header (as the system
    role), retrieved context, examples, the user intent, the task prompt
    and the reasoning suffix; ``with_feedback`` appends the feedback block
    for a retry. Disabled sections are absent, never empty.
    """
    sections: list[_Section] = []
    if profile.use_retrieval and context_chunks:
        sections.append(_context_section(context_chunks))
    if profile.use_few_shot:
        if not shots:
            raise InputError(
                f"profile {profile.name!r} requires few-shot examples but none were provided"
            )
        sections.append(_examples_section(shots))
    sections.extend(request._sections)
    if profile.use_cot:
        sections.append(_COT_SECTION)
    user_message, tokens = _joined(sections)
    return PromptPayload(
        system_instructions=INSTRUCTION_HEADER,
        user_message=user_message,
        prompt_tokens=_INSTRUCTION_HEADER_TOKENS + tokens,
    )


def with_feedback(payload: PromptPayload, feedback: str) -> PromptPayload:
    """A retry's payload: the first attempt's ``payload`` with the feedback
    section last. Only the new section is counted."""
    text, tokens = _counted(f"{FEEDBACK_LABEL}\n{feedback}")
    return replace(
        payload,
        user_message=f"{payload.user_message}\n\n{text}",
        prompt_tokens=payload.prompt_tokens + tokens,
    )


@dataclass(frozen=True)
class Verdict:
    aligned: bool
    reason: str
    raw: RawResponse


def _parse_verdict(raw: RawResponse) -> Verdict:
    lines = [line.strip() for line in raw.text.splitlines() if line.strip()]
    if not lines:
        raise VerdictUnparseable("alignment reply is empty", raw)
    final = lines[-1]
    if final == "VERDICT: ALIGNED":
        return Verdict(aligned=True, reason="", raw=raw)
    prefix = "VERDICT: MISALIGNED:"
    if final.startswith(prefix):
        return Verdict(aligned=False, reason=final[len(prefix):].strip(), raw=raw)
    raise VerdictUnparseable(f"final line {final!r} is not a verdict", raw)


def verify_alignment(
    config: ConfigDocument,
    request: GenerationRequest,
    provider: Provider,
    params: SamplingParams,
    metadata: Mapping[str, str] | None = None,
) -> Verdict:
    """One reasoning call judging whether a configuration matches its intent.

    The verdict is read from the reply's final non-empty line; anything the
    model says before that line is ignored.
    """
    user_message, tokens = _joined(
        [
            *request._sections,
            _counted(f"## Generated configuration\n{serialize_config(config)}"),
            _COT_SECTION,
        ]
    )
    payload = PromptPayload(
        system_instructions=ALIGNMENT_HEADER,
        user_message=user_message,
        metadata=dict(metadata or {}),
        prompt_tokens=_ALIGNMENT_HEADER_TOKENS + tokens,
    )
    raw = complete(payload, params, provider)
    return _parse_verdict(raw)


def _config_text(shot: Fields, key: str) -> str:
    """The configuration at ``key``: text, or a mapping written out as YAML."""
    value = shot.raw.get(key)
    if isinstance(value, dict):
        return serialize_config(value)
    return shot.get(key, "")


def load_shot_library(root: Path | str, system: str) -> tuple[FewShotExample, ...]:
    """Few-shot examples for ``system`` from <root>/<system>/*.yaml, sorted by filename.

    Each file holds ``prompt``, ``intent``, ``correct_output`` and
    optionally ``incorrect_output`` with a ``defect_note``; a malformed file
    is an InputError naming it and the key.
    """
    directory = Path(root) / system
    if not directory.is_dir():
        return ()
    shots = []
    for path in sorted(directory.glob("*.yaml")):
        shot = Fields.load(path)
        shots.append(
            shot.build(
                FewShotExample,
                prompt=shot.require("prompt"),
                intent=shot.require("intent"),
                correct_output=_config_text(shot, "correct_output"),
                incorrect_output=_config_text(shot, "incorrect_output"),
                defect_note=shot.get("defect_note", ""),
            )
        )
    return tuple(shots)
