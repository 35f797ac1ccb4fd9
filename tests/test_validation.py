"""Assertion language, report semantics, and complexity analytics."""

import math
import random
import re
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intentconf.preprocess import (
    QUOTE_BUDGET,
    ConfigDocument,
    StructuralError,
    parse_config,
    serialize_config,
)
from intentconf.validation import (
    Assertion,
    AssertionKind,
    AssertionResult,
    ComplexityMeasure,
    aggregate_complexity,
    complexity,
    evaluate,
    parse_path,
    resolve_path,
)


def naive_metrics(tree):
    """Independent reference walker: explicit stack instead of recursion."""
    keys = 0
    deepest = 0
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, dict):
            for value in node.values():
                keys += 1
                deepest = max(deepest, depth + 1)
                stack.append((value, depth + 1))
        elif isinstance(node, list):
            for item in node:
                stack.append((item, depth))
    return keys, deepest


def random_tree(rng, depth=0):
    roll = rng.random()
    if depth >= 4 or roll < 0.35:
        return rng.choice([1, "x", 2.5, True, None, rng.randrange(100)])
    if roll < 0.55:
        return [random_tree(rng, depth + 1) for _ in range(rng.randrange(0, 4))]
    return {
        f"k{i}_{rng.randrange(10)}": random_tree(rng, depth + 1)
        for i in range(rng.randrange(0, 5))
    }


def random_root(rng):
    return {f"top{i}": random_tree(rng, 1) for i in range(rng.randrange(0, 6))}


# Each malformed path and the error it raises.
MALFORMED_PATHS = {
    "": "path must be non-empty",
    "  ": "path must be non-empty",
    "a//b": "empty segment in path 'a//b'",
    "a/": "empty segment in path 'a/'",
    "/a": "empty segment in path '/a'",
    "[x]": "malformed index segment '[x]' in path '[x]'",
    "[1": "malformed index segment '[1' in path '[1'",
    "1]": "malformed index segment '1]' in path '1]'",
    "a[0]": "malformed index segment 'a[0]' in path 'a[0]'",
}


class TestPaths:
    def test_key_segments(self):
        assert len(parse_path("workers/replicas")) == 2

    def test_nested_lookup(self):
        assert resolve_path({"a": {"b": 1}}, parse_path("a/b")) == [1]

    def test_wildcard_over_sequence(self):
        assert resolve_path({"w": [{"r": 2}, {"r": 3}]}, parse_path("w/*/r")) == [2, 3]

    def test_wildcard_over_mapping_in_document_order(self):
        tree = {"svc": {"beta": {"port": 2}, "alpha": {"port": 1}}}
        assert resolve_path(tree, parse_path("svc/*/port")) == [2, 1]

    def test_index_segment(self):
        assert resolve_path({"w": [{"r": 2}, {"r": 3}]}, parse_path("w/[1]/r")) == [3]

    def test_index_out_of_range_matches_nothing(self):
        assert resolve_path({"w": [1]}, parse_path("w/[5]")) == []

    def test_missing_key(self):
        assert resolve_path({"a": 1}, parse_path("z")) == []

    def test_key_does_not_traverse_sequences(self):
        assert resolve_path({"w": [{"r": 2}]}, parse_path("w/r")) == []

    @pytest.mark.parametrize("bad", list(MALFORMED_PATHS))
    def test_malformed_paths(self, bad):
        with pytest.raises(ValueError, match=re.escape(MALFORMED_PATHS[bad])):
            parse_path(bad)

    def test_wildcard_on_scalar_matches_nothing(self):
        assert resolve_path({"a": 5}, parse_path("a/*")) == []


class TestAssertionGuards:
    def test_path_checked_at_construction(self):
        with pytest.raises(ValueError, match=re.escape("empty segment in path 'a//b'")):
            Assertion(path="a//b", kind=AssertionKind.EXISTS)

    def test_compare_requires_known_op(self):
        with pytest.raises(ValueError):
            Assertion(path="a", kind=AssertionKind.COMPARE, expected=1, op=">")

    def test_compare_requires_numeric_expected(self):
        with pytest.raises(ValueError):
            Assertion(path="a", kind=AssertionKind.COMPARE, expected="two", op=">=")

    def test_length_requires_nonnegative_int(self):
        with pytest.raises(ValueError):
            Assertion(path="a", kind=AssertionKind.LENGTH, expected=-1)
        with pytest.raises(ValueError):
            Assertion(path="a", kind=AssertionKind.LENGTH, expected=True)


def doc(tree):
    return ConfigDocument(root=tree, source_text=serialize_config(tree))


class TestEvaluate:
    def test_compare_ge_passes(self):
        report = evaluate(
            doc({"replicas": 2}),
            [Assertion("replicas", AssertionKind.COMPARE, expected=2, op=">=")],
        )
        assert report.passed

    def test_equals_failure_reports_observed(self):
        report = evaluate(
            doc({"replicas": 2}), [Assertion("replicas", AssertionKind.EQUALS, expected=3)]
        )
        assert not report.passed
        assert report.results[0].reason == "expected 3, found 2"

    def test_vacuous_absence(self):
        assert evaluate(doc({}), [Assertion("debug", AssertionKind.ABSENT)]).passed

    def test_absent_fails_on_match(self):
        report = evaluate(doc({"debug": False}), [Assertion("debug", AssertionKind.ABSENT)])
        assert not report.passed

    def test_exists_needs_at_least_one_match(self):
        assert evaluate(doc({"a": 1}), [Assertion("a", AssertionKind.EXISTS)]).passed
        assert not evaluate(doc({"a": 1}), [Assertion("b", AssertionKind.EXISTS)]).passed

    def test_wildcard_equality_needs_every_match(self):
        tree = {"w": [{"r": 2}, {"r": 3}]}
        ok = evaluate(doc({"w": [{"r": 2}, {"r": 2}]}), [Assertion("w/*/r", AssertionKind.EQUALS, expected=2)])
        mixed = evaluate(doc(tree), [Assertion("w/*/r", AssertionKind.EQUALS, expected=2)])
        assert ok.passed and not mixed.passed

    def test_compare_all_match_semantics(self):
        tree = {"w": [{"r": 2}, {"r": 5}]}
        report = evaluate(doc(tree), [Assertion("w/*/r", AssertionKind.COMPARE, expected=3, op=">=")])
        assert not report.passed

    def test_compare_type_mismatch_is_soft(self):
        report = evaluate(
            doc({"replicas": "two"}),
            [Assertion("replicas", AssertionKind.COMPARE, expected=2, op=">=")],
        )
        assert not report.passed
        assert "TypeMismatch" in report.results[0].reason

    def test_compare_rejects_boolean_values(self):
        report = evaluate(
            doc({"enabled": True}),
            [Assertion("enabled", AssertionKind.COMPARE, expected=1, op=">=")],
        )
        assert "TypeMismatch" in report.results[0].reason

    def test_bool_and_int_stay_distinct(self):
        assert not evaluate(
            doc({"flag": True}), [Assertion("flag", AssertionKind.EQUALS, expected=1)]
        ).passed
        assert evaluate(
            doc({"flag": True}), [Assertion("flag", AssertionKind.EQUALS, expected=True)]
        ).passed

    def test_float_equality_within_tolerance(self):
        report = evaluate(
            doc({"ratio": 0.30000000000000004}),
            [Assertion("ratio", AssertionKind.EQUALS, expected=0.3)],
        )
        assert report.passed

    def test_length_on_sequence_and_mapping(self):
        tree = {"workers": [1, 2, 3], "limits": {"cpu": 1, "memory": 2}}
        assert evaluate(doc(tree), [Assertion("workers", AssertionKind.LENGTH, expected=3)]).passed
        assert evaluate(doc(tree), [Assertion("limits", AssertionKind.LENGTH, expected=2)]).passed

    def test_length_rejects_scalars(self):
        report = evaluate(doc({"name": "abc"}), [Assertion("name", AssertionKind.LENGTH, expected=3)])
        assert not report.passed
        assert "TypeMismatch" in report.results[0].reason

    def test_permuting_assertions_preserves_verdict(self):
        tree = {"a": 1, "b": {"c": 2}, "d": [1, 2]}
        assertions = [
            Assertion("a", AssertionKind.EXISTS),
            Assertion("b/c", AssertionKind.EQUALS, expected=2),
            Assertion("d", AssertionKind.LENGTH, expected=2),
            Assertion("missing", AssertionKind.ABSENT),
        ]
        rng = random.Random(5)
        baseline = evaluate(doc(tree), assertions).passed
        for _ in range(10):
            shuffled = assertions[:]
            rng.shuffle(shuffled)
            report = evaluate(doc(tree), shuffled)
            assert report.passed == baseline
            assert [r.assertion for r in report.results] == shuffled

    def test_exists_and_absent_mutually_exclusive(self):
        rng = random.Random(17)
        paths = ["a", "a/b", "w/*/r", "w/[0]", "missing/thing", "*"]
        for _ in range(50):
            tree = random_root(rng)
            for path in paths:
                exists = evaluate(doc(tree), [Assertion(path, AssertionKind.EXISTS)]).passed
                absent = evaluate(doc(tree), [Assertion(path, AssertionKind.ABSENT)]).passed
                assert exists != absent


# The evaluator as it was written with a class per path segment and one
# result per verdict branch, kept as the oracle for the one-path evaluator.
ORACLE_TOLERANCE = 1e-9
ORACLE_INDEX_RE = re.compile(r"^\[(\d+)\]$")


@dataclass(frozen=True)
class OracleKey:
    name: str


@dataclass(frozen=True)
class OracleIndex:
    position: int


class OracleWildcard:
    pass


ORACLE_WILDCARD = OracleWildcard()


def oracle_parse_path(path):
    if not path or not path.strip():
        raise ValueError("path must be non-empty")
    segments = []
    for part in path.split("/"):
        if part == "":
            raise ValueError(f"empty segment in path {path!r}")
        if part == "*":
            segments.append(ORACLE_WILDCARD)
            continue
        index = ORACLE_INDEX_RE.match(part)
        if index:
            segments.append(OracleIndex(int(index.group(1))))
            continue
        if part.startswith("[") or part.endswith("]"):
            raise ValueError(f"malformed index segment {part!r} in path {path!r}")
        segments.append(OracleKey(part))
    return segments


def oracle_children(node):
    if isinstance(node, dict):
        return node.values()
    if isinstance(node, list):
        return node
    return ()


def oracle_resolve_path(root, path):
    frontier = [root]
    for segment in oracle_parse_path(path):
        next_frontier = []
        for node in frontier:
            if isinstance(segment, OracleKey):
                if isinstance(node, dict) and segment.name in node:
                    next_frontier.append(node[segment.name])
            elif isinstance(segment, OracleIndex):
                if isinstance(node, list) and 0 <= segment.position < len(node):
                    next_frontier.append(node[segment.position])
            else:
                next_frontier.extend(oracle_children(node))
        frontier = next_frontier
        if not frontier:
            break
    return frontier


def oracle_is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def oracle_values_equal(observed, expected):
    if isinstance(expected, bool) or isinstance(observed, bool):
        return isinstance(observed, bool) is isinstance(expected, bool) and observed == expected
    if oracle_is_number(expected) and oracle_is_number(observed):
        if isinstance(expected, int) and isinstance(observed, int):
            return observed == expected
        return math.isclose(observed, expected, rel_tol=0.0, abs_tol=ORACLE_TOLERANCE)
    return type(observed) is type(expected) and observed == expected


def oracle_quote(value):
    """A value as a failure reason writes it: its repr, cut to QUOTE_BUDGET characters and "..."."""
    text = repr(value)
    return text if len(text) <= QUOTE_BUDGET else text[:QUOTE_BUDGET] + "..."


def oracle_check(assertion, root):
    matches = oracle_resolve_path(root, assertion.path)
    if assertion.kind is AssertionKind.ABSENT:
        if matches:
            return AssertionResult(assertion, False, f"path {oracle_quote(assertion.path)} matched {len(matches)} node(s), expected none")
        return AssertionResult(assertion, True)
    if not matches:
        return AssertionResult(assertion, False, f"path {oracle_quote(assertion.path)} matched nothing")
    if assertion.kind is AssertionKind.EXISTS:
        return AssertionResult(assertion, True)
    if assertion.kind is AssertionKind.EQUALS:
        for value in matches:
            if not oracle_values_equal(value, assertion.expected):
                return AssertionResult(assertion, False, f"expected {oracle_quote(assertion.expected)}, found {oracle_quote(value)}")
        return AssertionResult(assertion, True)
    if assertion.kind is AssertionKind.COMPARE:
        for value in matches:
            if not oracle_is_number(value):
                return AssertionResult(assertion, False, f"TypeMismatch: {oracle_quote(value)} is not numeric")
            if assertion.op == ">=" and not value >= assertion.expected - ORACLE_TOLERANCE:
                return AssertionResult(assertion, False, f"{oracle_quote(value)} < {oracle_quote(assertion.expected)}")
            if assertion.op == "<=" and not value <= assertion.expected + ORACLE_TOLERANCE:
                return AssertionResult(assertion, False, f"{oracle_quote(value)} > {oracle_quote(assertion.expected)}")
            if assertion.op == "=" and not oracle_values_equal(value, assertion.expected):
                return AssertionResult(assertion, False, f"{oracle_quote(value)} != {oracle_quote(assertion.expected)}")
        return AssertionResult(assertion, True)
    for value in matches:
        if not isinstance(value, (list, dict)):
            return AssertionResult(assertion, False, f"TypeMismatch: {oracle_quote(value)} is not a container")
        if len(value) != assertion.expected:
            return AssertionResult(assertion, False, f"length {len(value)} != {assertion.expected}")
    return AssertionResult(assertion, True)


HUGE = 10**400  # an integer too large for a float
huge_ints = st.integers(min_value=2**1024, max_value=HUGE).flatmap(
    lambda n: st.sampled_from([n, -n])
)
# A few values that sit on the tolerance's edges, so drawn pairs often meet.
NEAR = (0, 2, 2.0, 2 + 5e-10, 2 + 2e-9, 2.5, 2**53, 2**53 + 1, 2**60 + 1, float(2**60), HUGE, -HUGE)
numbers = st.one_of(
    st.sampled_from(NEAR),
    st.integers(-(2**64), 2**64),
    st.floats(allow_nan=True, allow_infinity=True),
    huge_ints,
)
scalars = st.one_of(numbers, numbers, st.booleans(), st.none(), st.text(alphabet="ab1", max_size=3))
KEYS = ("a", "b", "c", "1")
trees = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | st.integers(0, 2), children, max_size=3),
    max_leaves=12,
)


@st.composite
def paths(draw, tree):
    """A path that mostly follows the tree down its keys, its indexes and
    ``*``, now and then through a segment the node does not have."""
    segments = []
    node = tree
    while isinstance(node, (dict, list)) and (not segments or draw(st.integers(0, 3)) < 3):
        if isinstance(node, dict):
            names = [key for key in node if isinstance(key, str)]
        else:
            names = [f"[{i}]" for i in range(len(node))]
        if draw(st.integers(0, 4)) < 4:
            segment = draw(st.sampled_from([*names, "*"]))
        else:
            segment = draw(st.sampled_from(["[0]", "[3]", *KEYS]))
        segments.append(segment)
        step = resolve_path(node, parse_path(segment))
        if not step:
            break
        node = step[0]
    return "/".join(segments)


def reached_or(draw, reached, strategy):
    """Half the time a value the path reaches, so that checks also pass."""
    return draw(st.sampled_from(reached) | strategy if reached else strategy)


@st.composite
def assertions(draw, tree):
    path = draw(paths(tree))
    reached = oracle_resolve_path(tree, path)
    kind = draw(st.sampled_from(list(AssertionKind)))
    if kind is AssertionKind.COMPARE:
        expected = reached_or(draw, [v for v in reached if oracle_is_number(v)], numbers)
        return Assertion(path, kind, expected, draw(st.sampled_from(["=", ">=", "<="])))
    if kind is AssertionKind.EQUALS:
        leaves = [v for v in reached if not isinstance(v, (list, dict))]
        return Assertion(path, kind, reached_or(draw, leaves, scalars))
    if kind is AssertionKind.LENGTH:
        lengths = [len(v) for v in reached if isinstance(v, (list, dict))]
        return Assertion(path, kind, reached_or(draw, lengths, st.integers(0, 3)))
    return Assertion(path, kind)


def oracle_segment(segment):
    if isinstance(segment, OracleKey):
        return segment.name
    if isinstance(segment, OracleIndex):
        return segment.position
    return None


class TestAgainstOracle:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_every_verdict_matches_the_oracle(self, data):
        tree = data.draw(st.dictionaries(st.sampled_from(KEYS), trees, min_size=1, max_size=4))
        assertion = data.draw(assertions(tree))
        assert parse_path(assertion.path) == [
            oracle_segment(s) for s in oracle_parse_path(assertion.path)
        ]
        (result,) = evaluate(ConfigDocument(root=tree), [assertion]).results
        try:
            expected = oracle_check(assertion, tree)
        except OverflowError:
            return  # the oracle crashed; the result above came back without raising
        assert resolve_path(tree, assertion.segments) == oracle_resolve_path(tree, assertion.path)
        assert (result.passed, result.reason) == (expected.passed, expected.reason)

    @settings(max_examples=600, deadline=None)
    @given(value=numbers, expected=numbers, op=st.sampled_from(["=", ">=", "<="]))
    @example(value=HUGE, expected=2.5, op="=")
    @example(value=3, expected=HUGE, op=">=")
    @example(value=HUGE, expected=HUGE, op="<=")
    @example(value=-HUGE, expected=float("-inf"), op=">=")
    def test_no_number_pair_raises(self, value, expected, op):
        config = ConfigDocument(root={"n": value})
        checks = [
            Assertion("n", AssertionKind.COMPARE, expected, op),
            Assertion("n", AssertionKind.EQUALS, expected),
        ]
        for assertion, result in zip(checks, evaluate(config, checks).results):
            try:
                answer = oracle_check(assertion, {"n": value})
            except OverflowError:
                continue
            assert (result.passed, result.reason) == (answer.passed, answer.reason)

    @pytest.mark.parametrize(
        "value,expected,op,passed",
        [
            (HUGE, 2.5, "=", False),
            (3, HUGE, ">=", False),
            (3, HUGE, "<=", True),
            (HUGE, HUGE, ">=", True),
            (HUGE + 1, HUGE, "<=", False),
            (float("inf"), HUGE, ">=", True),
            (-HUGE, float("-inf"), ">=", True),
        ],
    )
    def test_past_float_range_compares_exactly(self, value, expected, op, passed):
        checks = [Assertion("n", AssertionKind.COMPARE, expected, op)]
        if op == "=":
            checks.append(Assertion("n", AssertionKind.EQUALS, expected))
        report = evaluate(doc({"n": value}), checks)
        assert [r.passed for r in report.results] == [passed] * len(checks)


class TestComplexity:
    def test_single_key(self):
        assert complexity({"a": 1}) == ComplexityMeasure(1, 1)

    def test_nested_mapping(self):
        assert complexity({"a": {"b": {"c": 1}}, "d": 2}) == ComplexityMeasure(4, 3)

    def test_sequence_is_transparent(self):
        assert complexity({"a": [{"b": 1}, {"c": {"d": 2}}]}) == ComplexityMeasure(4, 3)

    def test_empty_config(self):
        assert complexity({}) == ComplexityMeasure(0, 0)

    def test_empty_submapping_adds_nothing_below_its_key(self):
        assert complexity({"a": {}}) == ComplexityMeasure(1, 1)

    def test_depth_zero_iff_no_keys(self):
        rng = random.Random(23)
        for _ in range(200):
            tree = random_root(rng)
            m = complexity(tree)
            assert (m.max_depth == 0) == (m.key_count == 0)

    def test_matches_reference_walker(self):
        rng = random.Random(404)
        for _ in range(300):
            tree = random_root(rng)
            m = complexity(tree)
            assert (m.key_count, m.max_depth) == naive_metrics(tree), tree

    def test_stable_under_serialization_round_trip(self):
        rng = random.Random(77)
        for _ in range(25):
            tree = {f"k{i}": random_tree(rng, 1) for i in range(rng.randrange(1, 5))}
            reparsed = parse_config(serialize_config(tree)).root
            assert complexity(reparsed) == complexity(tree)

    def test_key_count_additive_over_disjoint_subtrees(self):
        rng = random.Random(99)
        for _ in range(50):
            left = {f"l{i}": random_tree(rng, 1) for i in range(rng.randrange(0, 4))}
            right = {f"r{i}": random_tree(rng, 1) for i in range(rng.randrange(0, 4))}
            merged = {**left, **right}
            assert complexity(merged).key_count == (
                complexity(left).key_count + complexity(right).key_count
            )

    def test_accepts_config_document(self):
        assert complexity(doc({"a": 1})) == ComplexityMeasure(1, 1)

    def test_alias_copies_are_measured_as_written_out(self):
        """Level n lists level n-1 twice, so the tree holds 2**7 - 1 copies of
        the two-key mapping at level 0, each a node of its own. A chain of 41
        levels, which would hold 2**41 - 1, is refused as it loads."""
        lines = ["a0: &b0 {k: {j: 1}}"]
        lines += [f"a{n}: &b{n} [*b{n - 1}, *b{n - 1}]" for n in range(1, 41)]
        measure = complexity(parse_config("\n".join(lines[:7])))
        assert measure == ComplexityMeasure(key_count=7 + 2 * (2**7 - 1), max_depth=3)
        with pytest.raises(StructuralError, match="aliases expand past"):
            parse_config("\n".join(lines))


class TestAggregate:
    def test_singleton(self):
        summary = aggregate_complexity([{"a": 1}])
        assert (summary.max_key_count, summary.max_depth) == (1, 1)
        assert (summary.mean_key_count, summary.std_key_count) == (1.0, 0.0)
        assert (summary.mean_depth, summary.std_depth) == (1.0, 0.0)

    def test_two_configs(self):
        configs = [{"a": 1, "b": 2}, {"a": {"b": {"c": 1}}, "d": 2}]
        summary = aggregate_complexity(configs)
        assert summary.count == 2
        assert summary.max_key_count == 4
        assert summary.max_depth == 3
        assert summary.mean_key_count == pytest.approx(3.0)
        assert summary.std_key_count == pytest.approx(1.0)
        assert summary.mean_depth == pytest.approx(2.0)
        assert summary.std_depth == pytest.approx(1.0)

    def test_matches_reference_on_mixed_corpus(self):
        import statistics

        rng = random.Random(314)
        corpus = [random_root(rng) for _ in range(40)]
        summary = aggregate_complexity(corpus)
        pairs = [naive_metrics(tree) for tree in corpus]
        keys = [p[0] for p in pairs]
        depths = [p[1] for p in pairs]
        assert summary.max_key_count == max(keys)
        assert summary.max_depth == max(depths)
        assert summary.mean_key_count == pytest.approx(statistics.mean(keys))
        assert summary.std_key_count == pytest.approx(statistics.pstdev(keys))
        assert summary.mean_depth == pytest.approx(statistics.mean(depths))
        assert summary.std_depth == pytest.approx(statistics.pstdev(depths))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="cannot summarize an empty corpus"):
            aggregate_complexity([])
