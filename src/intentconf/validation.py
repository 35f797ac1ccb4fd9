"""Static checks on parsed configurations, no cluster required.

Assertions address nodes by slash-separated paths ("worker/replicas",
"containers/[0]/image", "spec/*/limits") and check existence, absence,
equality, numeric comparison, or collection length. A configuration is
judged against all assertions at once and the verdict plus per-assertion
evidence comes back as a report.

The same tree walk powers structural complexity metrics used to describe
benchmark difficulty.
"""

from __future__ import annotations

import enum
import math
import re
import statistics
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .preprocess import ConfigDocument

FLOAT_TOLERANCE = 1e-9

_INDEX_RE = re.compile(r"^\[(\d+)\]$")


class PathSyntaxError(ValueError):
    """A path string does not follow the segment grammar."""


class EmptyCorpus(ValueError):
    """Complexity aggregation needs at least one configuration."""


class AssertionKind(enum.Enum):
    EXISTS = "Exists"
    ABSENT = "Absent"
    EQUALS = "Equals"
    COMPARE = "Compare"
    LENGTH = "Length"


_COMPARE_OPS = {">=", "<=", "="}


@dataclass(frozen=True)
class Assertion:
    """One declarative check against a configuration tree."""

    path: str
    kind: AssertionKind
    expected: Any = None
    op: str = "="

    def __post_init__(self):
        parse_path(self.path)
        if self.kind is AssertionKind.COMPARE:
            if self.op not in _COMPARE_OPS:
                raise ValueError(f"comparison op must be one of {sorted(_COMPARE_OPS)}, got {self.op!r}")
            if not _is_number(self.expected):
                raise ValueError("comparison assertions need a numeric expected value")
        if self.kind is AssertionKind.LENGTH:
            if not isinstance(self.expected, int) or isinstance(self.expected, bool) or self.expected < 0:
                raise ValueError("length assertions need a non-negative integer expected value")


@dataclass(frozen=True)
class _Key:
    name: str


@dataclass(frozen=True)
class _Index:
    position: int


class _Wildcard:
    pass


_WILDCARD = _Wildcard()

Segment = _Key | _Index | _Wildcard


def parse_path(path: str) -> list[Segment]:
    """Split a slash-separated path into typed segments."""
    if not path or not path.strip():
        raise PathSyntaxError("path must be non-empty")
    segments: list[Segment] = []
    for part in path.split("/"):
        if part == "":
            raise PathSyntaxError(f"empty segment in path {path!r}")
        if part == "*":
            segments.append(_WILDCARD)
            continue
        index = _INDEX_RE.match(part)
        if index:
            segments.append(_Index(int(index.group(1))))
            continue
        if part.startswith("[") or part.endswith("]"):
            raise PathSyntaxError(f"malformed index segment {part!r} in path {path!r}")
        segments.append(_Key(part))
    return segments


def _children(node: Any) -> Iterable[Any]:
    if isinstance(node, dict):
        return node.values()
    if isinstance(node, list):
        return node
    return ()


def resolve_path(root: Any, path: str) -> list[Any]:
    """All nodes matched by ``path``, in document order."""
    frontier = [root]
    for segment in parse_path(path):
        next_frontier: list[Any] = []
        for node in frontier:
            if isinstance(segment, _Key):
                if isinstance(node, dict) and segment.name in node:
                    next_frontier.append(node[segment.name])
            elif isinstance(segment, _Index):
                if isinstance(node, list) and 0 <= segment.position < len(node):
                    next_frontier.append(node[segment.position])
            else:
                next_frontier.extend(_children(node))
        frontier = next_frontier
        if not frontier:
            break
    return frontier


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _values_equal(observed: Any, expected: Any) -> bool:
    # bool is an int subclass; keep True distinct from 1 in configs.
    if isinstance(expected, bool) or isinstance(observed, bool):
        return isinstance(observed, bool) is isinstance(expected, bool) and observed == expected
    if _is_number(expected) and _is_number(observed):
        if isinstance(expected, int) and isinstance(observed, int):
            return observed == expected
        return math.isclose(observed, expected, rel_tol=0.0, abs_tol=FLOAT_TOLERANCE)
    return type(observed) is type(expected) and observed == expected


@dataclass(frozen=True)
class AssertionResult:
    assertion: Assertion
    passed: bool
    observed: tuple = ()
    reason: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking one configuration against a benchmark case."""

    case_id: str
    results: tuple[AssertionResult, ...] = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> tuple[AssertionResult, ...]:
        return tuple(r for r in self.results if not r.passed)


def _check(assertion: Assertion, root: dict) -> AssertionResult:
    matches = resolve_path(root, assertion.path)
    observed = tuple(matches)
    if assertion.kind is AssertionKind.ABSENT:
        if matches:
            return AssertionResult(assertion, False, observed, f"path {assertion.path!r} matched {len(matches)} node(s), expected none")
        return AssertionResult(assertion, True, observed)
    if not matches:
        return AssertionResult(assertion, False, observed, f"path {assertion.path!r} matched nothing")
    if assertion.kind is AssertionKind.EXISTS:
        return AssertionResult(assertion, True, observed)
    if assertion.kind is AssertionKind.EQUALS:
        for value in matches:
            if not _values_equal(value, assertion.expected):
                return AssertionResult(assertion, False, observed, f"expected {assertion.expected!r}, found {value!r}")
        return AssertionResult(assertion, True, observed)
    if assertion.kind is AssertionKind.COMPARE:
        for value in matches:
            if not _is_number(value):
                return AssertionResult(assertion, False, observed, f"TypeMismatch: {value!r} is not numeric")
            if assertion.op == ">=" and not value >= assertion.expected - FLOAT_TOLERANCE:
                return AssertionResult(assertion, False, observed, f"{value!r} < {assertion.expected!r}")
            if assertion.op == "<=" and not value <= assertion.expected + FLOAT_TOLERANCE:
                return AssertionResult(assertion, False, observed, f"{value!r} > {assertion.expected!r}")
            if assertion.op == "=" and not _values_equal(value, assertion.expected):
                return AssertionResult(assertion, False, observed, f"{value!r} != {assertion.expected!r}")
        return AssertionResult(assertion, True, observed)
    # Length applies to sequences and mappings only.
    for value in matches:
        if not isinstance(value, (list, dict)):
            return AssertionResult(assertion, False, observed, f"TypeMismatch: {value!r} is not a container")
        if len(value) != assertion.expected:
            return AssertionResult(assertion, False, observed, f"length {len(value)} != {assertion.expected}")
    return AssertionResult(assertion, True, observed)


def evaluate(
    config: ConfigDocument,
    assertions: Sequence[Assertion],
    case_id: str = "",
) -> ValidationReport:
    """Check a configuration against assertions."""
    results = tuple(_check(a, config.root) for a in assertions)
    return ValidationReport(case_id=case_id, results=results)


@dataclass(frozen=True)
class ComplexityMeasure:
    key_count: int
    max_depth: int


def complexity(config: ConfigDocument | dict) -> ComplexityMeasure:
    """Structural size of a configuration.

    key_count totals mapping keys at every level. max_depth counts nested
    mapping levels, the root mapping being depth 1; sequences pass depth
    through without adding a level.
    """
    root = config.root if isinstance(config, ConfigDocument) else config
    keys = 0
    deepest = 0

    def walk(node: Any, depth: int):
        nonlocal keys, deepest
        if isinstance(node, dict):
            if node:  # an empty mapping holds no keys and contributes no depth
                keys += len(node)
                deepest = max(deepest, depth + 1)
                for child in node.values():
                    walk(child, depth + 1)
        elif isinstance(node, list):
            for child in node:
                walk(child, depth)

    walk(root, 0)
    return ComplexityMeasure(key_count=keys, max_depth=deepest)


@dataclass(frozen=True)
class ComplexitySummary:
    count: int
    max_key_count: int
    max_depth: int
    mean_key_count: float
    std_key_count: float
    mean_depth: float
    std_depth: float


def aggregate_complexity(configs: Sequence[ConfigDocument | dict]) -> ComplexitySummary:
    """Corpus-level complexity: maxima plus mean and population std."""
    if not configs:
        raise EmptyCorpus("cannot summarize an empty corpus")
    measures = [complexity(c) for c in configs]
    key_counts = [m.key_count for m in measures]
    depths = [m.max_depth for m in measures]
    return ComplexitySummary(
        count=len(measures),
        max_key_count=max(key_counts),
        max_depth=max(depths),
        mean_key_count=statistics.mean(key_counts),
        std_key_count=statistics.pstdev(key_counts),
        mean_depth=statistics.mean(depths),
        std_depth=statistics.pstdev(depths),
    )
