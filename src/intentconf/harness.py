"""Benchmark loading and evaluation reporting.

A benchmark is a directory of YAML case files, each naming a target
system, a difficulty level from 1 to 6, the prompt and intent text, and
the assertions a correct configuration must satisfy. The harness runs
optimization profiles over the cases and reduces the outcomes into
accuracy-by-level tables, chain resolution curves, token-cost rows, and
latency statistics.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .chain import ChainDeps, ChainOutcome, TranscriptStats, run_chain
from .gateway import MockScript, Provider, read_scenario
from .preprocess import Fields, InputError, quote
from .prompting import FewShotExample, GenerationRequest, OptimizationProfile
from .retrieval import DEFAULT_TOP_K, RetrievalIndex
from .validation import Assertion, AssertionKind

LEVELS = (1, 2, 3, 4, 5, 6)


@dataclass(frozen=True)
class BenchmarkCase:
    id: str
    system: str
    level: int
    prompt: str
    intent: str
    assertions: tuple[Assertion, ...]

    def __post_init__(self):
        if not 1 <= self.level <= 6:
            raise ValueError(f"level must be in [1, 6], got {self.level}")
        if not self.assertions:
            raise ValueError("a case needs at least one assertion")


_KIND_BY_NAME = {kind.value.lower(): kind for kind in AssertionKind}


def assertion_from_mapping(fields: Fields) -> Assertion:
    """One assertion: its ``path``, ``kind`` and, as the kind needs, ``op`` and ``expected``."""
    kind = fields.require("kind")
    if kind.lower() not in _KIND_BY_NAME:
        kinds = sorted(k.value for k in AssertionKind)
        raise fields.fail(f"must be one of {kinds}, got {quote(kind)}", "kind")
    return fields.build(
        Assertion,
        path=fields.require("path"),
        kind=_KIND_BY_NAME[kind.lower()],
        expected=fields.raw.get("expected"),
        op=fields.get("op", "="),
    )


def read_assertions(fields: Fields) -> tuple[Assertion, ...]:
    """The non-empty ``assertions`` list of a case or an assertions file."""
    return tuple(assertion_from_mapping(item) for item in fields.each("assertions"))


def _case_from_file(path: Path) -> BenchmarkCase:
    case = Fields.load(path)
    return case.build(
        BenchmarkCase,
        id=case.require("id"),
        system=case.require("system"),
        level=case.require("level", int),
        prompt=case.require("prompt"),
        intent=case.require("intent"),
        assertions=read_assertions(case),
    )


def load_dataset(path: Path | str) -> list[BenchmarkCase]:
    """All cases under ``path``, sorted by (system, level, id); ids must be unique."""
    root = Path(path)
    if not root.is_dir():
        raise InputError(f"dataset path {root} is not a directory")
    cases = []
    seen: dict[str, Path] = {}
    for file in sorted(root.rglob("*.yaml")):
        if file.name.endswith(".mock.yaml"):
            continue
        case = _case_from_file(file)
        if case.id in seen:
            raise InputError(
                f"duplicate case id {case.id!r} in {file} (first seen in {seen[case.id]})"
            )
        seen[case.id] = file
        cases.append(case)
    cases.sort(key=lambda c: (c.system, c.level, c.id))
    return cases


def load_mock_scripts(path: Path | str) -> MockScript:
    """Merge every <case id>.mock.yaml under the dataset into one script.

    A file scripts the scenario named by its case id, and its ``verify``
    replies script "<id>#verify". Case ids must be unique across files, and
    a malformed file is an InputError naming it.
    """
    mocks = MockScript(entries={}, scenario_defaults={})
    seen: dict[str, Path] = {}
    for file in sorted(Path(path).rglob("*.mock.yaml")):
        mock = Fields.load(file)
        case_id = file.name[: -len(".mock.yaml")]
        if case_id in seen:
            raise InputError(
                f"duplicate mock script for case {case_id!r} in {file} "
                f"(first seen in {seen[case_id]})"
            )
        seen[case_id] = file
        read_scenario(mocks, case_id, mock)
        read_scenario(mocks, f"{case_id}#verify", mock, keys=("verify", "verify_default"))
    return mocks


@dataclass
class HarnessDeps:
    """Shared dependencies for evaluating many cases."""

    provider: Provider
    shots_by_system: Mapping[str, tuple[FewShotExample, ...]] = field(default_factory=dict)
    index: RetrievalIndex | None = None
    retrieval_k: int = DEFAULT_TOP_K


@dataclass(frozen=True)
class AccuracyTable:
    """(passed, total) per (profile, level); accuracy percent per cell and per profile."""

    profiles: tuple[str, ...]
    levels: tuple[int, ...]
    counts: dict[tuple[str, int], tuple[int, int]]
    appendix: tuple[str, ...] = ()

    @property
    def rows(self) -> dict[tuple[str, int], float]:
        return {cell: _percent(passed, total) for cell, (passed, total) in self.counts.items()}

    @property
    def totals(self) -> dict[str, float]:
        totals = {}
        for profile in self.profiles:
            cells = [self.counts[(profile, level)] for level in self.levels]
            totals[profile] = _percent(sum(c[0] for c in cells), sum(c[1] for c in cells))
        return totals


def _percent(passed: int, total: int) -> float:
    return 100.0 * passed / total if total else 0.0


def run_static_eval(
    cases: Sequence[BenchmarkCase],
    profiles: Sequence[OptimizationProfile],
    deps: HarnessDeps,
    workers: int = 1,
) -> AccuracyTable:
    """Static-only accuracy: a case passes iff its chain resolves without deploying."""
    if not cases:
        raise InputError("no cases to evaluate")
    jobs = [(profile, case) for profile in profiles for case in cases]

    def evaluate_one(job) -> tuple[str, BenchmarkCase, ChainOutcome]:
        profile, case = job
        request = GenerationRequest(
            system=case.system, intent=case.intent, prompt=case.prompt
        )
        chain_deps = ChainDeps(
            provider=deps.provider,
            shots=deps.shots_by_system.get(case.system, ()),
            index=deps.index,
            retrieval_k=deps.retrieval_k,
            assertions=case.assertions,
            case_id=case.id,
        )
        return profile.name, case, run_chain(request, profile, chain_deps)

    def results():
        if workers <= 1:
            yield from map(evaluate_one, jobs)
            return
        # Imported here: concurrent.futures and the logging and queue modules
        # it loads are about 1 MB that single-worker runs never use.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(evaluate_one, jobs)

    levels = tuple(sorted({case.level for case in cases}))
    counts = {(p.name, level): (0, 0) for p in profiles for level in levels}
    appendix: list[str] = []
    # Each outcome is folded in as it comes, so only finished outcomes not
    # yet read are held at once.
    for profile_name, case, outcome in results():
        passed, total = counts[(profile_name, case.level)]
        counts[(profile_name, case.level)] = (passed + int(outcome.resolved), total + 1)
        for record in outcome.attempt_history:
            if record.provider_error:
                appendix.append(f"{case.id} [{profile_name}]: {record.provider_error}")
    return AccuracyTable(
        profiles=tuple(p.name for p in profiles),
        levels=levels,
        counts=counts,
        appendix=tuple(sorted(appendix)),
    )


def resolution_curve(outcomes: Sequence[ChainOutcome]) -> dict[int, float]:
    """Cumulative percent of chains resolved by attempt k, for k = 1..max."""
    if not outcomes:
        raise ValueError("resolution curve needs at least one outcome")
    horizon = max(
        max(o.max_attempts for o in outcomes),
        max(o.attempts_used for o in outcomes),
    )
    total = len(outcomes)
    return {
        k: 100.0 * sum(1 for o in outcomes if o.resolved and o.attempts_used <= k) / total
        for k in range(1, horizon + 1)
    }


@dataclass(frozen=True)
class CostRow:
    system: str
    max_completion_tokens: int
    cost_dollars: str


def cost_report(stats: Sequence[TranscriptStats], rate_per_token: float) -> tuple[CostRow, ...]:
    """Per system: the max completion tokens over transcripts, priced at the rate.

    The cost column is max tokens x rate, rendered to seven decimal places.
    A rate that is not a positive finite number is an InputError.
    """
    if not 0 < rate_per_token < math.inf:
        raise InputError(f"rate per token must be > 0 and finite, got {rate_per_token}")
    by_system: dict[str, int] = {}
    for s in stats:  # read_transcript refuses a negative token count
        by_system[s.system] = max(by_system.get(s.system, 0), s.completion_tokens)
    return tuple(
        CostRow(
            system=system,
            max_completion_tokens=tokens,
            cost_dollars=f"{tokens * rate_per_token:.7f}",
        )
        for system, tokens in sorted(by_system.items())
    )


@dataclass(frozen=True)
class LatencyRow:
    system: str
    mean_seconds: float
    std_seconds: float
    calls: int


def latency_report(stats: Sequence[TranscriptStats]) -> tuple[LatencyRow, ...]:
    """Per-system mean and population std over every per-call latency."""
    by_system: dict[str, list[float]] = {}
    for s in stats:
        by_system.setdefault(s.system, []).extend(s.latencies)
    return tuple(
        LatencyRow(system, statistics.mean(latencies), statistics.pstdev(latencies), len(latencies))
        for system, latencies in sorted(by_system.items())
        if latencies
    )


def render_accuracy_table(table: AccuracyTable) -> str:
    """Text table: levels as rows, profiles as columns, Total as the last row."""
    header = ["Level"] + [p.upper() for p in table.profiles]
    rows, totals = table.rows, table.totals
    body: list[list[str]] = []
    for level in table.levels:
        body.append([str(level)] + [f"{rows[(p, level)]:.1f}" for p in table.profiles])
    body.append(["Total"] + [f"{totals[p]:.1f}" for p in table.profiles])
    widths = [max(len(row[i]) for row in [header] + body) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in [header] + body
    ]
    if table.appendix:
        lines.append("")
        lines.append("Provider errors:")
        lines.extend(f"  {entry}" for entry in table.appendix)
    return "\n".join(lines).rstrip() + "\n"


def accuracy_table_to_json(table: AccuracyTable, meta: Mapping | None = None) -> str:
    rows = table.rows
    payload = {
        "profiles": list(table.profiles),
        "levels": list(table.levels),
        "rows": [
            {
                "profile": profile,
                "level": level,
                "percent": rows[(profile, level)],
                "passed": table.counts[(profile, level)][0],
                "total": table.counts[(profile, level)][1],
            }
            for profile in table.profiles
            for level in table.levels
        ],
        "totals": dict(sorted(table.totals.items())),
        "appendix": list(table.appendix),
        "meta": dict(meta or {}),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
