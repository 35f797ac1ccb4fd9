"""Static checks on parsed configurations, no cluster required.

Assertions address nodes by slash-separated paths ("worker/replicas",
"containers/[0]/image", "spec/*/limits") and check existence, absence,
equality, numeric comparison, or collection length. A configuration is
judged against all assertions at once and the verdict plus each failed
assertion's reason comes back as a report.

The same tree walk powers structural complexity metrics used to describe
benchmark difficulty.
"""

from __future__ import annotations

import enum
import math
import operator
import re
import statistics
from dataclasses import dataclass, field
from typing import Any, Sequence

from .preprocess import ConfigDocument, quote

FLOAT_TOLERANCE = 1e-9

_INDEX_RE = re.compile(r"^\[(\d+)\]$")


class AssertionKind(enum.Enum):
    EXISTS = "Exists"
    ABSENT = "Absent"
    EQUALS = "Equals"
    COMPARE = "Compare"
    LENGTH = "Length"


# Each Compare op, and the relation a failure of it reports.
_COMPARE_OPS = {">=": "<", "<=": ">", "=": "!="}


@dataclass(frozen=True)
class Assertion:
    """One declarative check against a configuration tree."""

    path: str
    kind: AssertionKind
    expected: Any = None
    op: str = "="
    segments: list[str | int | None] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "segments", parse_path(self.path))
        if self.kind is AssertionKind.COMPARE:
            if self.op not in _COMPARE_OPS:
                raise ValueError(f"comparison op must be one of {sorted(_COMPARE_OPS)}, got {self.op!r}")
            if not _is_number(self.expected):
                raise ValueError("comparison assertions need a numeric expected value")
        if self.kind is AssertionKind.LENGTH:
            if not isinstance(self.expected, int) or isinstance(self.expected, bool) or self.expected < 0:
                raise ValueError("length assertions need a non-negative integer expected value")


def parse_path(path: str) -> list[str | int | None]:
    """Split a slash-separated path into segments: a str key, an int index,
    or None for the ``*`` wildcard."""
    if not path or not path.strip():
        raise ValueError("path must be non-empty")
    segments: list[str | int | None] = []
    for part in path.split("/"):
        if part == "":
            raise ValueError(f"empty segment in path {path!r}")
        if part == "*":
            segments.append(None)
            continue
        index = _INDEX_RE.match(part)
        if index:
            segments.append(int(index.group(1)))
            continue
        if part.startswith("[") or part.endswith("]"):
            raise ValueError(f"malformed index segment {part!r} in path {path!r}")
        segments.append(part)
    return segments


def resolve_path(root: Any, segments: Sequence[str | int | None]) -> list[Any]:
    """All nodes matched by a path's ``segments`` (see parse_path), in document order."""
    frontier = [root]
    for segment in segments:
        next_frontier: list[Any] = []
        for node in frontier:
            if segment is None:
                if isinstance(node, dict):
                    next_frontier.extend(node.values())
                elif isinstance(node, list):
                    next_frontier.extend(node)
            elif isinstance(segment, str):
                if isinstance(node, dict) and segment in node:
                    next_frontier.append(node[segment])
            elif isinstance(node, list) and segment < len(node):
                next_frontier.append(node[segment])
        frontier = next_frontier
        if not frontier:
            break
    return frontier


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_EXACT = {"=": operator.eq, ">=": operator.ge, "<=": operator.le}


def _holds(value: Any, op: str, expected: Any) -> bool:
    """``value op expected`` for two numbers, ``op`` one of ``=``, ``>=`` and ``<=``.

    Two ints compare equal exactly; any other pair within FLOAT_TOLERANCE,
    in float arithmetic. A number too large for a float is compared
    exactly: at that size the tolerance cannot change the answer.
    """
    try:
        if op == ">=":
            return value >= expected - FLOAT_TOLERANCE
        if op == "<=":
            return value <= expected + FLOAT_TOLERANCE
        if isinstance(value, int) and isinstance(expected, int):
            return value == expected
        return math.isclose(value, expected, rel_tol=0.0, abs_tol=FLOAT_TOLERANCE)
    except OverflowError:
        return _EXACT[op](value, expected)


def _values_equal(observed: Any, expected: Any) -> bool:
    # bool is an int subclass; keep True distinct from 1 in configs.
    if isinstance(expected, bool) or isinstance(observed, bool):
        return isinstance(observed, bool) is isinstance(expected, bool) and observed == expected
    if _is_number(expected) and _is_number(observed):
        return _holds(observed, "=", expected)
    return type(observed) is type(expected) and observed == expected


@dataclass(frozen=True)
class AssertionResult:
    assertion: Assertion
    passed: bool
    reason: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking one configuration against a benchmark case."""

    results: tuple[AssertionResult, ...] = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> tuple[AssertionResult, ...]:
        return tuple(r for r in self.results if not r.passed)


def _failure(assertion: Assertion, matches: list[Any]) -> str:
    """Why the nodes ``matches`` fail ``assertion``; "" when they pass."""
    kind, expected = assertion.kind, assertion.expected
    if kind is AssertionKind.ABSENT:
        if matches:
            return f"path {quote(assertion.path)} matched {len(matches)} node(s), expected none"
        return ""
    if not matches:
        return f"path {quote(assertion.path)} matched nothing"
    for value in matches:
        if kind is AssertionKind.EQUALS:
            if not _values_equal(value, expected):
                return f"expected {quote(expected)}, found {quote(value)}"
        elif kind is AssertionKind.COMPARE:
            if not _is_number(value):
                return f"TypeMismatch: {quote(value)} is not numeric"
            if not _holds(value, assertion.op, expected):
                return f"{quote(value)} {_COMPARE_OPS[assertion.op]} {quote(expected)}"
        elif kind is AssertionKind.LENGTH:
            # Length applies to sequences and mappings only.
            if not isinstance(value, (list, dict)):
                return f"TypeMismatch: {quote(value)} is not a container"
            if len(value) != expected:
                return f"length {len(value)} != {expected}"
    return ""


def evaluate(config: ConfigDocument, assertions: Sequence[Assertion]) -> ValidationReport:
    """Check a configuration against assertions."""
    results = []
    for assertion in assertions:
        matches = resolve_path(config.root, assertion.segments)
        reason = _failure(assertion, matches)
        results.append(AssertionResult(assertion, not reason, reason))
    return ValidationReport(tuple(results))


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

    def measure(node: Any) -> tuple[int, int]:
        """The keys in ``node`` and the mapping levels it nests."""
        if not isinstance(node, (dict, list)):
            return 0, 0
        keys = height = 0
        for child in node.values() if isinstance(node, dict) else node:
            child_keys, child_height = measure(child)
            keys, height = keys + child_keys, max(height, child_height)
        if isinstance(node, dict) and node:  # an empty mapping adds nothing
            keys, height = keys + len(node), height + 1
        return keys, height

    keys, deepest = measure(root)
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
    """Corpus maxima plus mean and population std."""
    if not configs:
        raise ValueError("cannot summarize an empty corpus")
    measures = [complexity(c) for c in configs]
    key_counts = [m.key_count for m in measures]
    depths = [m.max_depth for m in measures]
    return ComplexitySummary(
        count=len(measures),
        max_key_count=max(key_counts),
        max_depth=max(depths),
        mean_key_count=float(statistics.mean(key_counts)),
        std_key_count=statistics.pstdev(key_counts),
        mean_depth=statistics.mean(depths),
        std_depth=statistics.pstdev(depths),
    )
