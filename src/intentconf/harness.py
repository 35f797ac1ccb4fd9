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
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import yaml

from .chain import ChainDeps, ChainOutcome, run_chain
from .gateway import MockScript, Provider, mock_script_from_dict
from .prompting import FewShotExample, GenerationRequest, OptimizationProfile
from .retrieval import DEFAULT_TOP_K, RetrievalIndex
from .validation import Assertion, AssertionKind, EmptyCorpus

LEVELS = (1, 2, 3, 4, 5, 6)


class DatasetError(Exception):
    """A case file is malformed or the dataset is inconsistent."""


@dataclass(frozen=True)
class BenchmarkCase:
    id: str
    system: str
    level: int
    prompt: str
    intent: str
    assertions: tuple[Assertion, ...]
    features_tested: tuple[str, ...] = ()

    def __post_init__(self):
        if not 1 <= self.level <= 6:
            raise ValueError(f"level must be in [1, 6], got {self.level}")
        if not self.assertions:
            raise ValueError("a case needs at least one assertion")


_KIND_BY_NAME = {kind.value.lower(): kind for kind in AssertionKind}


def assertion_from_mapping(raw: Mapping, source: str) -> Assertion:
    if not isinstance(raw, Mapping) or "path" not in raw or "kind" not in raw:
        raise DatasetError(f"{source}: each assertion needs at least path and kind")
    kind = _KIND_BY_NAME.get(str(raw["kind"]).lower())
    if kind is None:
        raise DatasetError(
            f"{source}: unknown assertion kind {raw['kind']!r}; "
            f"choose from {sorted(k.value for k in AssertionKind)}"
        )
    try:
        return Assertion(
            path=str(raw["path"]),
            kind=kind,
            expected=raw.get("expected"),
            op=str(raw.get("op", "=")),
        )
    except ValueError as exc:
        raise DatasetError(f"{source}: {exc}") from exc


def _case_from_file(path: Path) -> BenchmarkCase:
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise DatasetError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(data, Mapping):
        raise DatasetError(f"{path}: case file must be a YAML mapping")
    for key in ("id", "system", "level", "prompt", "intent", "assertions"):
        if key not in data:
            raise DatasetError(f"{path}: missing required key {key!r}")
    raw_assertions = data["assertions"]
    if not isinstance(raw_assertions, list) or not raw_assertions:
        raise DatasetError(f"{path}: assertions must be a non-empty list")
    if not str(data["prompt"]).strip() or not str(data["intent"]).strip():
        raise DatasetError(f"{path}: prompt and intent must be non-empty")
    try:
        return BenchmarkCase(
            id=str(data["id"]),
            system=str(data["system"]),
            level=int(data["level"]),
            prompt=str(data["prompt"]),
            intent=str(data["intent"]),
            assertions=tuple(assertion_from_mapping(a, str(path)) for a in raw_assertions),
            features_tested=tuple(str(f) for f in data.get("features") or ()),
        )
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"{path}: {exc}") from exc


def _is_mock_file(path: Path) -> bool:
    return path.name.endswith(".mock.yaml")


def load_dataset(path: Path | str) -> list[BenchmarkCase]:
    """All cases under ``path``, sorted by (system, level, id); ids must be unique."""
    root = Path(path)
    if not root.is_dir():
        raise DatasetError(f"dataset path {root} is not a directory")
    cases = []
    seen: dict[str, Path] = {}
    for file in sorted(root.rglob("*.yaml")):
        if _is_mock_file(file):
            continue
        case = _case_from_file(file)
        if case.id in seen:
            raise DatasetError(
                f"duplicate case id {case.id!r} in {file} (first seen in {seen[case.id]})"
            )
        seen[case.id] = file
        cases.append(case)
    cases.sort(key=lambda c: (c.system, c.level, c.id))
    return cases


def load_mock_scripts(path: Path | str) -> MockScript:
    """Merge every <case id>.mock.yaml under the dataset into one script.

    A file scripts the scenario named by its case id; ``verify`` replies
    script "<id>#verify"; per-intent sections script "<id>@intentN" (and
    their verify replies "<id>@intentN#verify").
    """
    root = Path(path)
    script = MockScript()
    for file in sorted(root.rglob("*.mock.yaml")):
        data = yaml.safe_load(file.read_text(encoding="utf-8")) or {}
        if not isinstance(data, Mapping):
            raise DatasetError(f"{file}: mock script must be a YAML mapping")
        case_id = file.name[: -len(".mock.yaml")]
        scenarios: dict[str, dict] = {}
        base: dict = {"latency": data.get("latency", 0.0)}
        if "replies" in data:
            base["replies"] = data["replies"]
        if "default" in data:
            base["default"] = data["default"]
        scenarios[case_id] = base
        if "verify" in data or "verify_default" in data:
            scenarios[f"{case_id}#verify"] = {
                "replies": data.get("verify"),
                "default": data.get("verify_default"),
                "latency": data.get("latency", 0.0),
            }
        for n, spec in (data.get("intents") or {}).items():
            if not isinstance(spec, Mapping):
                spec = {"replies": spec}
            scenarios[f"{case_id}@intent{n}"] = {
                "replies": spec.get("replies"),
                "default": spec.get("default"),
                "latency": spec.get("latency", data.get("latency", 0.0)),
            }
            if "verify" in spec or "verify_default" in spec:
                scenarios[f"{case_id}@intent{n}#verify"] = {
                    "replies": spec.get("verify"),
                    "default": spec.get("verify_default"),
                    "latency": spec.get("latency", data.get("latency", 0.0)),
                }
        script = script.merged_with(mock_script_from_dict({"scenarios": scenarios}))
    return script


@dataclass
class HarnessDeps:
    """Shared dependencies for evaluating many cases."""

    provider: Provider
    shots_by_system: Mapping[str, tuple[FewShotExample, ...]] = field(default_factory=dict)
    index: RetrievalIndex | None = None
    retrieval_k: int = DEFAULT_TOP_K
    deployer: object | None = None
    workloads: Mapping[str, object] = field(default_factory=dict)
    default_workload: object | None = None

    def chain_deps(self, case: BenchmarkCase, *, dynamic: bool, case_id: str | None = None) -> ChainDeps:
        workload = None
        if dynamic:
            workload = self.workloads.get(case.system, self.default_workload)
        return ChainDeps(
            provider=self.provider,
            shots=self.shots_by_system.get(case.system, ()),
            index=self.index,
            retrieval_k=self.retrieval_k,
            assertions=case.assertions,
            deployer=self.deployer if dynamic else None,
            workload=workload,
            case_id=case_id if case_id is not None else case.id,
        )


@dataclass(frozen=True)
class AccuracyTable:
    """Accuracy percent per (profile, level) plus per-profile totals."""

    profiles: tuple[str, ...]
    levels: tuple[int, ...]
    rows: dict[tuple[str, int], float]
    totals: dict[str, float]
    counts: dict[tuple[str, int], tuple[int, int]]
    appendix: tuple[str, ...] = ()


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
        raise DatasetError("no cases to evaluate")
    jobs = [(profile, case) for profile in profiles for case in cases]

    def evaluate_one(job) -> tuple[str, BenchmarkCase, ChainOutcome]:
        profile, case = job
        request = GenerationRequest(
            system=case.system, intent=case.intent, prompt=case.prompt
        )
        outcome = run_chain(request, profile, deps.chain_deps(case, dynamic=False))
        return profile.name, case, outcome

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(evaluate_one, jobs))
    else:
        results = [evaluate_one(job) for job in jobs]

    levels = tuple(sorted({case.level for case in cases}))
    by_cell: dict[tuple[str, int], list[bool]] = {}
    appendix: list[str] = []
    for profile_name, case, outcome in results:
        by_cell.setdefault((profile_name, case.level), []).append(outcome.resolved)
        for record in outcome.attempt_history:
            if record.provider_error:
                appendix.append(f"{case.id} [{profile_name}]: {record.provider_error}")
    rows = {
        (p.name, level): _percent(sum(flags), len(flags))
        for p in profiles
        for level, flags in ((lv, by_cell.get((p.name, lv), [])) for lv in levels)
    }
    counts = {
        (p.name, level): (sum(by_cell.get((p.name, level), [])), len(by_cell.get((p.name, level), [])))
        for p in profiles
        for level in levels
    }
    totals = {}
    for p in profiles:
        flags = [flag for level in levels for flag in by_cell.get((p.name, level), [])]
        totals[p.name] = _percent(sum(flags), len(flags))
    return AccuracyTable(
        profiles=tuple(p.name for p in profiles),
        levels=levels,
        rows=rows,
        totals=totals,
        counts=counts,
        appendix=tuple(sorted(appendix)),
    )


@dataclass(frozen=True)
class DynamicRow:
    case_id: str
    system: str
    intent_index: int
    intent: str
    resolved: bool
    attempts_used: int
    completion_seconds: float | None = None
    cost_dollars: float | None = None
    cpu_millicores: int | None = None
    memory_bytes: int | None = None
    replicas: int | None = None


@dataclass(frozen=True)
class DynamicReport:
    rows: tuple[DynamicRow, ...]
    mean_completion_by_intent: dict[int, float]
    mean_cost_by_intent: dict[int, float]
    appendix: tuple[str, ...] = ()


def run_dynamic_eval(
    cases: Sequence[BenchmarkCase],
    profile: OptimizationProfile,
    intents: Sequence[str],
    deps: HarnessDeps,
) -> DynamicReport:
    """Full chains (deploy + benchmark) for every case under every intent.

    Unresolved rows are kept for the record but excluded from the per-intent
    means.
    """
    if not cases:
        raise DatasetError("no cases to evaluate")
    if deps.deployer is None:
        raise DatasetError("dynamic evaluation needs a deployer")
    rows: list[DynamicRow] = []
    appendix: list[str] = []
    for case in cases:
        for i, intent in enumerate(intents, start=1):
            scenario = f"{case.id}@intent{i}"
            request = GenerationRequest(system=case.system, intent=intent, prompt=case.prompt)
            outcome = run_chain(
                request, profile, deps.chain_deps(case, dynamic=True, case_id=scenario)
            )
            for record in outcome.attempt_history:
                if record.provider_error:
                    appendix.append(f"{scenario}: {record.provider_error}")
            benchmark = outcome.benchmark
            if outcome.resolved and benchmark is not None:
                rows.append(
                    DynamicRow(
                        case_id=case.id,
                        system=case.system,
                        intent_index=i,
                        intent=intent,
                        resolved=True,
                        attempts_used=outcome.attempts_used,
                        completion_seconds=benchmark.completion_seconds,
                        cost_dollars=benchmark.cost_dollars,
                        cpu_millicores=benchmark.resources.cpu_millicores,
                        memory_bytes=benchmark.resources.memory_bytes,
                        replicas=benchmark.resources.replicas,
                    )
                )
            else:
                rows.append(
                    DynamicRow(
                        case_id=case.id,
                        system=case.system,
                        intent_index=i,
                        intent=intent,
                        resolved=outcome.resolved,
                        attempts_used=outcome.attempts_used,
                    )
                )
    mean_completion: dict[int, float] = {}
    mean_cost: dict[int, float] = {}
    for i in range(1, len(intents) + 1):
        resolved = [r for r in rows if r.intent_index == i and r.completion_seconds is not None]
        if resolved:
            mean_completion[i] = statistics.mean(r.completion_seconds for r in resolved)
            mean_cost[i] = statistics.mean(r.cost_dollars for r in resolved)
    return DynamicReport(
        rows=tuple(rows),
        mean_completion_by_intent=mean_completion,
        mean_cost_by_intent=mean_cost,
        appendix=tuple(appendix),
    )


@dataclass(frozen=True)
class TranscriptStats:
    """Summary of one persisted chain transcript.

    Exposes the same resolved/attempts_used/max_attempts triple as a live
    ChainOutcome so curve aggregation accepts either.
    """

    case_id: str
    system: str
    resolved: bool
    attempts_used: int
    max_attempts: int
    prompt_tokens: int
    completion_tokens: int
    latencies: tuple[float, ...]


def transcript_stats(entries: Sequence[Mapping]) -> TranscriptStats:
    if not entries:
        raise ValueError("transcript has no attempts")
    last = entries[-1]
    resolved = last.get("failed_stage") is None and not last.get("provider_error")
    return TranscriptStats(
        case_id=str(last.get("case", "")),
        system=str(last.get("system", "")),
        resolved=resolved,
        attempts_used=int(last.get("attempt", len(entries))),
        max_attempts=int(last.get("max_attempts", len(entries))),
        prompt_tokens=sum(int(e.get("prompt_tokens", 0)) for e in entries),
        completion_tokens=sum(int(e.get("completion_tokens", 0)) for e in entries),
        latencies=tuple(float(e.get("latency_seconds", 0.0)) for e in entries),
    )


def resolution_curve(outcomes: Sequence[ChainOutcome]) -> dict[int, float]:
    """Cumulative percent of chains resolved by attempt k, for k = 1..max."""
    if not outcomes:
        raise EmptyCorpus("resolution curve needs at least one outcome")
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
class CostRecord:
    """Token and latency accounting for one evaluated chain."""

    case_id: str
    system: str
    attempts: int
    prompt_tokens: int
    completion_tokens: int
    dollars: float
    latency_seconds: tuple[float, ...] = ()

    @classmethod
    def from_outcome(
        cls, case_id: str, system: str, outcome: ChainOutcome, rate_per_token: float
    ) -> "CostRecord":
        return cls(
            case_id=case_id,
            system=system,
            attempts=outcome.attempts_used,
            prompt_tokens=outcome.total_prompt_tokens,
            completion_tokens=outcome.total_completion_tokens,
            dollars=(outcome.total_prompt_tokens + outcome.total_completion_tokens)
            * rate_per_token,
            latency_seconds=tuple(
                r.latency_seconds for r in outcome.attempt_history
            ),
        )


@dataclass(frozen=True)
class CostRow:
    system: str
    max_completion_tokens: int
    cost_display: str


def cost_report(records: Sequence[CostRecord], rate_per_token: float) -> tuple[CostRow, ...]:
    """Per system: the max completion tokens over records, priced at the rate.

    The cost column is max tokens x rate, rendered to seven decimal places.
    """
    if rate_per_token <= 0:
        raise ValueError(f"rate_per_token must be > 0, got {rate_per_token}")
    by_system: dict[str, int] = {}
    for record in records:
        current = by_system.get(record.system)
        if current is None or record.completion_tokens > current:
            by_system[record.system] = record.completion_tokens
    return tuple(
        CostRow(
            system=system,
            max_completion_tokens=tokens,
            cost_display=f"{tokens * rate_per_token:.7f}",
        )
        for system, tokens in sorted(by_system.items())
    )


@dataclass(frozen=True)
class LatencyRow:
    system: str
    mean_seconds: float
    std_seconds: float
    calls: int


def latency_report(records: Sequence[CostRecord]) -> tuple[LatencyRow, ...]:
    """Per-system mean and population std over every per-call latency."""
    by_system: dict[str, list[float]] = {}
    for record in records:
        by_system.setdefault(record.system, []).extend(record.latency_seconds)
    rows = []
    for system, latencies in sorted(by_system.items()):
        if not latencies:
            continue
        rows.append(
            LatencyRow(
                system=system,
                mean_seconds=statistics.mean(latencies),
                std_seconds=statistics.pstdev(latencies),
                calls=len(latencies),
            )
        )
    return tuple(rows)


def render_accuracy_table(table: AccuracyTable) -> str:
    """Text table: levels as rows, profiles as columns, Total as the last row."""
    header = ["Level"] + [p.upper() for p in table.profiles]
    body: list[list[str]] = []
    for level in table.levels:
        body.append(
            [str(level)] + [f"{table.rows[(p, level)]:.1f}" for p in table.profiles]
        )
    body.append(["Total"] + [f"{table.totals[p]:.1f}" for p in table.profiles])
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
    payload = {
        "profiles": list(table.profiles),
        "levels": list(table.levels),
        "rows": [
            {
                "profile": profile,
                "level": level,
                "percent": table.rows[(profile, level)],
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
