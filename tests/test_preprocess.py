"""Extraction of YAML from chatty replies, strict parsing, canonical output."""

import functools
import importlib.util
import itertools
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import intentconf.preprocess as preprocess_mod
from intentconf.preprocess import (
    ConfigDocument,
    Fields,
    InputError,
    StructuralError,
    StructuralErrorKind,
    load_yaml_file,
    parse_config,
    preprocess_reply,
    quote,
    read_scalar,
    serialize_config,
)

YAML_BODY = "replicas: 3\nscheduler:\n  policy: spread\n  retries: 2\nlimits:\n  cpu: 2\n  memory: 4Gi"
YAML_TREE = {
    "replicas": 3,
    "scheduler": {"policy": "spread", "retries": 2},
    "limits": {"cpu": 2, "memory": "4Gi"},
}


def naive_largest_span(raw):
    """Brute-force reference: largest line span parsing to a mapping, earliest wins.

    Written against plain safe_load so it shares no code with the implementation.
    """
    lines = raw.splitlines()
    n = len(lines)
    best = None
    best_len = 0
    for start in range(n):
        for end in range(start + 1, n + 1):
            candidate = "\n".join(lines[start:end])
            if not candidate.strip():
                continue
            try:
                tree = yaml.safe_load(candidate)
            except yaml.YAMLError:
                continue
            if not isinstance(tree, dict):
                continue
            if end - start > best_len:
                best, best_len = candidate, end - start
    return best


class TestExtract:
    def test_identity_when_whole_reply_is_yaml(self):
        assert preprocess_reply(YAML_BODY).source_text == YAML_BODY

    def test_first_parsing_fence_wins(self):
        raw = "Here is your config:\n```yaml\nreplicas: 2\n```\nLet me explain..."
        assert preprocess_reply(raw).source_text == "replicas: 2"

    def test_non_parsing_fence_is_skipped(self):
        raw = (
            "Look:\n```\njust words no structure\n```\nand then\n"
            "```yaml\nreplicas: 4\n```\ndone"
        )
        assert preprocess_reply(raw).source_text == "replicas: 4"

    def test_fence_preferred_over_larger_bare_span(self):
        raw = "```yaml\na: 1\n```\nNow unfenced:\n" + YAML_BODY
        assert preprocess_reply(raw).source_text == "a: 1"

    def test_language_tag_irrelevant(self):
        raw = "```json\n{\"a\": 1}\n```"
        assert parse_config(preprocess_reply(raw).source_text).root == {"a": 1}

    def test_unterminated_fence_runs_to_end(self):
        raw = "intro words\n```yaml\nreplicas: 7\nworkers: 2"
        assert preprocess_reply(raw).source_text == "replicas: 7\nworkers: 2"

    def test_bare_span_matches_reference_scan(self):
        raw = "Intro prose without structure\n" + YAML_BODY + "\nClosing prose words"
        assert preprocess_reply(raw).source_text == YAML_BODY
        assert preprocess_reply(raw).source_text == naive_largest_span(raw)

    def test_constructed_inputs_against_reference(self):
        bodies = [
            "a: 1",
            "a: 1\nb: 2",
            YAML_BODY,
            "outer:\n  inner:\n    deep: true",
        ]
        wrappers = [
            ("", ""),
            ("One prose line first\n", ""),
            ("", "\nTrailing prose line"),
            ("Two lines of prose\nwithout any structure\n", "\nAnd two more\nafter the block"),
        ]
        for body in bodies:
            for before, after in wrappers:
                raw = before + body + after
                got = preprocess_reply(raw).source_text
                assert got == naive_largest_span(raw), raw
                assert got == body

    def test_no_candidate_raises(self):
        with pytest.raises(StructuralError) as info:
            preprocess_reply("only prose here\nno structure at all").source_text
        assert info.value.kind is StructuralErrorKind.NO_YAML_FOUND

    def test_idempotent_on_own_output(self):
        raws = [
            YAML_BODY,
            "prose first\n" + YAML_BODY,
            "```yaml\nreplicas: 2\n```\ntrailing",
        ]
        for raw in raws:
            once = preprocess_reply(raw).source_text
            assert preprocess_reply(once).source_text == once


class TestParse:
    def test_nested_mapping(self):
        assert parse_config("a: 1\nb:\n  c: 2").root == {"a": 1, "b": {"c": 2}}

    def test_sequence_root_rejected(self):
        with pytest.raises(StructuralError) as info:
            parse_config("- 1\n- 2")
        assert info.value.kind is StructuralErrorKind.PARSE_FAILURE

    def test_scalar_root_rejected(self):
        with pytest.raises(StructuralError):
            parse_config("just a string")

    def test_syntax_error_carries_location(self):
        with pytest.raises(StructuralError) as info:
            parse_config("a: [unclosed")
        assert info.value.kind is StructuralErrorKind.PARSE_FAILURE
        assert info.value.detail.endswith(" at line 2, column 1")  # libyaml's stream end

    def test_text_the_loader_cannot_encode_is_a_parse_failure(self):
        with pytest.raises(StructuralError) as info:
            parse_config("a: \ud800")
        assert info.value.kind is StructuralErrorKind.PARSE_FAILURE
        assert info.value.detail.startswith("UnicodeEncodeError: ")

    def test_duplicate_keys_rejected(self):
        with pytest.raises(StructuralError) as info:
            parse_config("a: 1\na: 2")
        assert info.value.kind is StructuralErrorKind.PARSE_FAILURE
        assert "duplicate" in info.value.detail

    def test_nested_duplicate_keys_rejected(self):
        with pytest.raises(StructuralError):
            parse_config("outer:\n  k: 1\n  k: 2")

    def test_multiple_documents_ambiguous(self):
        with pytest.raises(StructuralError) as info:
            parse_config("a: 1\n---\nb: 2")
        assert info.value.kind is StructuralErrorKind.MULTIPLE_DOCUMENTS_AMBIGUOUS

    def test_extra_empty_documents_tolerated(self):
        assert parse_config("a: 1\n---\n").root == {"a": 1}

    def test_empty_text_rejected(self):
        with pytest.raises(StructuralError) as info:
            parse_config("")
        assert info.value.kind is StructuralErrorKind.PARSE_FAILURE

    @pytest.mark.parametrize(
        "text", ["a: !!set {x, y, z}", "a: !!binary aGk=", "a: !!omap [{k: 1}]", "a: !!pairs [{k: 1}]"]
    )
    def test_tags_that_make_no_plain_tree_are_refused(self, text):
        # A set, bytes or a list of tuples is no value a config holds, and a
        # set's order, which serialize_config wrote, changed with PYTHONHASHSEED.
        with pytest.raises(StructuralError) as info:
            parse_config(text)
        assert info.value.kind is StructuralErrorKind.PARSE_FAILURE
        tag = "tag:yaml.org,2002:" + text[5 : text.index(" ", 5)]
        assert info.value.detail == f"could not determine a constructor for the tag {tag!r} at line 1, column 4"

    def test_message_names_the_kind(self):
        with pytest.raises(StructuralError) as info:
            parse_config("- 1")
        assert str(info.value).startswith("ParseFailure:")

    def test_preprocess_reply_combines_both_steps(self):
        raw = "Sure thing:\n```yaml\n" + YAML_BODY + "\n```"
        assert preprocess_reply(raw).root == YAML_TREE


class TestSerialize:
    def test_block_style_two_space_indent(self):
        out = serialize_config({"a": {"b": 1}})
        assert out == "a:\n  b: 1\n"

    def test_key_order_preserved(self):
        out = serialize_config({"zeta": 1, "alpha": 2})
        assert out.index("zeta") < out.index("alpha")

    def test_unicode_kept_readable(self):
        out = serialize_config({"name": "caf\u00e9"})
        assert "caf\u00e9" in out

    def test_accepts_document_or_tree(self):
        doc = ConfigDocument(root={"a": 1}, source_text="a: 1")
        assert serialize_config(doc) == serialize_config({"a": 1})


yaml_keys = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True)
yaml_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**9), max_value=10**9)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(
        alphabet="abcdefghijklmnopqrstuvwxyzABCDEF0123456789 ._-:/",
        max_size=12,
    )
)
yaml_trees = st.recursive(
    yaml_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(yaml_keys, inner, max_size=3),
    max_leaves=25,
)
yaml_roots = st.dictionaries(yaml_keys, yaml_trees, max_size=4)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(yaml_roots)
    def test_serialize_then_parse_is_identity(self, root):
        assert parse_config(serialize_config(root)).root == root

    @settings(max_examples=60, deadline=None)
    @given(yaml_roots)
    def test_extraction_survives_prose_wrapping(self, root):
        body = serialize_config(root).rstrip("\n")
        raw = "Certainly, here it is.\n```yaml\n" + body + "\n```\nHope that helps."
        assert parse_config(preprocess_reply(raw).source_text).root == root

    def test_config_document_equality_semantics(self):
        doc = ConfigDocument(root={"a": 1}, source_text="a: 1")
        assert doc == ConfigDocument(root={"a": 1}, source_text="a: 1")


# The brute-force extraction the pruned search must reproduce: every span,
# longest first, earliest first among equals, read strictly as libyaml reads
# it, with constructor errors and the builder's refusals counted as failures.
TOO_DEEP = f"nesting deeper than {preprocess_mod.MAX_DEPTH} levels"
VALUE_ERRORS = (ValueError, TypeError, LookupError, AttributeError)


class ComposerRefused(yaml.constructor.ConstructorError):
    """A value the oracle's constructor refuses, or a repeated or unhashable key, at its node."""

    def __init__(self, problem, node):
        super().__init__(None, None, problem, node.start_mark)


class UniqueKeyLoader(preprocess_mod._LIBYAML):
    """SafeLoader on libyaml (PyYAML's own parser without it) that rejects
    duplicate mapping keys instead of last-wins, and a value its constructor
    refuses at the value's node: libyaml's composing loader, read strictly."""

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep=deep)
        except VALUE_ERRORS as exc:
            raise ComposerRefused(f"invalid {node.tag} value: {exc}", node) from exc


def construct_unique_mapping(loader, node, deep=False):
    mapping = {}
    for key_node, value_node in node.value:
        key = loader.construct_object(key_node, deep=deep)
        if isinstance(key, (dict, list)):
            raise ComposerRefused("unhashable mapping key", key_node)
        if key in mapping:
            raise ComposerRefused(f"duplicate key {key!r}", key_node)
        mapping[key] = loader.construct_object(value_node, deep=deep)
    return mapping


UniqueKeyLoader.add_constructor(UniqueKeyLoader.DEFAULT_MAPPING_TAG, construct_unique_mapping)


def composed_documents(text):
    """The non-empty documents of ``text`` as libyaml reads it strictly: its events
    read for depth, then composed by the unique-key loader."""
    depth = 0
    for event in yaml.parse(text, Loader=preprocess_mod._LIBYAML):
        depth += isinstance(event, yaml.CollectionStartEvent)
        if depth > preprocess_mod.MAX_DEPTH:
            raise yaml.MarkedYAMLError(problem=TOO_DEEP, problem_mark=event.start_mark)
        depth -= isinstance(event, yaml.CollectionEndEvent)
    return [d for d in yaml.load_all(text, Loader=UniqueKeyLoader) if d is not None]


class Refusal(Exception):
    """What the builder refuses although the composer reads it, in the wording of its error."""


# The tags whose values are no plain tree: a set, bytes and lists of tuples.
REFUSED_TAGS = {f"tag:yaml.org,2002:{name}" for name in ("set", "binary", "omap", "pairs")}


def first_refusal(text):
    """Walk the composer's node graphs of ``text`` in document order, as the
    builder reads its events: the first visit of a node is where the text
    writes it, and a later visit is an alias, copied node by node, keys free,
    against the budget. Raise Refusal at the first node inside itself, tag
    in REFUSED_TAGS, copy past the budget or copied collection past MAX_DEPTH."""
    limit = preprocess_mod._COPIES_PER_CHAR * len(text)
    copied = 0

    def copy(node, depth):
        nonlocal copied
        if copied == limit:
            raise Refusal(f"aliases expand past {limit} nodes")
        copied += 1
        if isinstance(node, yaml.CollectionNode):
            if depth == preprocess_mod.MAX_DEPTH:
                raise Refusal(TOO_DEEP)
            for child in node.value:
                copy(child[1] if isinstance(node, yaml.MappingNode) else child, depth + 1)

    for root in yaml.compose_all(text, Loader=UniqueKeyLoader):
        seen, inside = set(), set()

        def walk(node, depth):
            if id(node) in inside:
                raise Refusal("is inside the node it names")
            if id(node) in seen:
                return copy(node, depth)
            seen.add(id(node))
            if node.tag in REFUSED_TAGS:
                raise Refusal(f"could not determine a constructor for the tag {node.tag!r}")
            if isinstance(node, yaml.CollectionNode):
                inside.add(id(node))
                for child in node.value:
                    for part in child if isinstance(node, yaml.MappingNode) else (child,):
                        walk(part, depth + 1)
                inside.discard(id(node))

        if root is not None:
            walk(root, 0)


def strict_documents(text):
    """The documents the builder must read from ``text``: the composer's, unless
    the composer fails, or reads a text the builder refuses (a recursive alias,
    a tag in REFUSED_TAGS, aliases past the budget or past MAX_DEPTH)."""
    docs = composed_documents(text)
    first_refusal(text)
    return docs


ORACLE_ERRORS = (yaml.YAMLError, Refusal, *VALUE_ERRORS)


def oracle_mapping(text):
    try:
        docs = strict_documents(text)
    except ORACLE_ERRORS:
        return None
    if len(docs) != 1 or not isinstance(docs[0], dict):
        return None
    return docs[0]


def oracle_largest_span(text):
    lines = text.splitlines()
    n = len(lines)
    for length in range(n, 0, -1):
        for start in range(0, n - length + 1):
            candidate = "\n".join(lines[start : start + length])
            if not candidate.strip():
                continue
            tree = oracle_mapping(candidate)
            if tree is not None:
                return candidate, tree
    return None


def oracle_preprocess(raw):
    """("ok", source_text, tree) or ("error", kind), as preprocess_reply decides."""
    for text in [raw, *preprocess_mod._fenced_blocks(raw)]:
        tree = oracle_mapping(text)
        if tree is not None:
            return "ok", text, tree
    span = oracle_largest_span(raw)
    if span is not None:
        return ("ok", *span)
    return "error", StructuralErrorKind.NO_YAML_FOUND


def bulleted(lines):
    """A markdown list of ``lines`` items, each reading as a one-key mapping."""
    return [f"- Label{i}: some words here." for i in range(lines)]


def outcome(raw):
    try:
        document = preprocess_reply(raw)
    except StructuralError as exc:
        return "error", exc.kind
    return "ok", document.source_text, document.root


REPLY_LINES = (
    # mapping lines, indented lines, duplicates
    "a: 1", "b: two", "a: 2", "name: web", "  c: 3", "    deep: true", "  - x", "- y", "- a: 1",
    # prose with and without colons, bullets, markdown headings and comments
    "Note: memory is set to 1Gi.", "Label: some words.", "Tip: two: colons.",
    "Here is the configuration", "Hope that helps!", "Great !", "- Note: a bullet.",
    "## Summary: words", "# comment: with colon", "~",
    # blank and whitespace-only lines, fences, document markers
    "", "   ", "```", "```yaml", "---", "...", "--- a: 1",
    # flow collections, closed and open, and what libyaml reads differently in them
    "{a: 1}", "{a: 1", "x: [1, {y: 2}]", "[1, 2", "a: [", "  b]", "}", "]", "{a:}", "[a?b]",
    # explicit keys, some spanning lines
    "? k", ": v", "? [1]", "  ? k", "x y: 1", "? x", "  y",
    # tags, including the bare "!" libyaml reads differently
    "!!map", "!!str", "x: !!str 5", "! a: 1", "a: !", "- !", "{a: !}", "[!, 1]", "! :", "!%00 x",
    # values no constructor can build
    "expires: 2024-02-30", "f: !!int abc", "g: !!bool maybe", "t: !!timestamp x", "n: !!int",
    "? !!set {a}",
    # aliases, one of them a repeated key
    "&a a: 1", "b: *a", "*a", "<<: *a", "*a : 2",
    # open quotes
    "q: 'open", 'r: "open', "close'",
    # block scalars
    "s: |", "t: >-", "  text line", "u: |#x",
    # tabs, which libyaml accepts in more places than PyYAML, and byte order marks
    # leading a line, which the loader skips as one column
    "\tk: v", "k:\tv", "k: v\tw", "\ufeffb: 2", "\ufeff", "\ufeff  # c",
    # directives
    "%YAML 1.1", "%YAML 1.2", "%YAML 1.3", "%FOO bar",
    # a character YAML forbids
    "ctl\x01: x",
    # lines that open no mapping on their own, or only with what comes after them
    "&a", "&a !!map", "-", "-foo: bar", "key", ": value", "[a,", " b]: c", "'a", "b': c",
    "word", "  word",
    # plain lines at other columns, a keyless sentence, a key over a sequence at its
    # column, a quote and a block scalar running past a dedent, colons that are no key's
    " one: 1", "   three: 3", "Word words here.", "key:", "- x", "k: 'x", "y'", "  k: |",
    "http://a", "k: v # c",
    # keys repeated at a column, one with a space before its colon
    "a : 3", "  c: 4",
    # nesting 40 deep, flow and block, closed and open: a line that leaves a flow
    # collection open and a flow line below it nest past the limit together
    "k: " + "[" * 40 + "]" * 40, "k: " + "[" * 40, "[" * 40, "- " * 40 + "k: 1", "- " * 39 + "k: [",
)


# Replies at the edges of the span search that Hypothesis rarely draws.
HARD_REPLIES = [
    "Sure thing, here it is.\n" + YAML_BODY + "\nNote: memory is set to 4Gi.",
    "a:\tb\nc: 1\nd: 2",
    "%YAML 1.3\n---\na: 1",
    "!\n---\na: 1",
    "a: 1\n\ufeffb: 2",
    "a: |#x\nb: 1",
    "{a:}",
    "a: !%00 x\nb: 1",
    "{a?b}",
    "x y z: 1\n? x\n  y\n  z\n: 2",
    "x y z: 1\n? x\n  y\n  z\n]",
    "a: 1\n---\nb: 2",
    "&k a: 1\nb: 2\n*k : 3",
    "- Note: a bullet.\n- Tip: another.\nc: 1",
    "~\n---\n- a\nb: 1",
    "e: 2024-02-30\nf: 1\ng: 2",
    "a: 1\nexpires: 2024-02-30\nb: 2",
    "words\nctl\x01: x\na: 1\nb: 2",
    "a: 1\n~\n---\na: 1",  # the null first document is dropped
    "a: 1\r~\r---\ra: 1",  # the same, with lines split at "\r"
    "\u3000: v\nwords",  # a key led by what Python's \s, not YAML, calls a space
    "words\n\ufeff\na: 1",  # the loader skips a byte order mark that opens the text
    # a byte order mark leading a line is a column wide, and alone it is a blank line
    "a: 1\n one: 1\n\ufeffb: 2",
    "  a: 1\n\ufeff\n  b: 2\nc: 3",
    "words\n  a: 1\n\ufeff  # note\n  b: 2",
    "\n".join(bulleted(12)),
    # a quote opened above a keyless sentence closes below it
    "Some words.\na: 1\nk: 'x\nword\ny'",
    "a: 1\nk: 'x\n---\ny'\nb: 2",  # a document marker inside a quote
    "Some words.\na: 1\nb:\n  a: 2\nc: 3",  # a key repeated one level down is no clash
    # nesting past the limit on the third line, inside a flow opened above it
    "a: 1\nk: " + "[" * 40 + "\n" + "[" * 40 + "\n" + "]" * 80 + "\nb: 2",
    "- " * 39 + "k: [\n" + "k: " + "[" * 40 + "]" * 40 + "]\nwords\na: 1",
]


class TestAgainstBruteForce:
    @settings(max_examples=250, deadline=None)
    @given(st.lists(st.sampled_from(REPLY_LINES), max_size=10), st.booleans())
    def test_pruned_search_matches_oracle(self, lines, trailing_newline):
        raw = "\n".join(lines) + ("\n" if trailing_newline else "")
        assert outcome(raw) == oracle_preprocess(raw)

    @pytest.mark.parametrize("raw", HARD_REPLIES)
    def test_known_hard_replies(self, raw):
        assert outcome(raw) == oracle_preprocess(raw)

    def test_long_bulleted_reply(self):
        # The oracle would parse each of its 115,440 spans. Every span opens
        # with a block entry, so its root is a sequence and none is a mapping.
        assert outcome("\n".join(bulleted(480))) == ("error", StructuralErrorKind.NO_YAML_FOUND)

    def test_pyyaml_without_libyaml_reads_alike(self):
        # A PyYAML built without libyaml has no CSafeLoader, and every load runs
        # on its own parser, the oracle's included.
        script = (
            "import yaml\n"
            "del yaml.CSafeLoader\n"
            "import test_preprocess as t\n"
            "assert t.preprocess_mod._LIBYAML is yaml.SafeLoader\n"
            "print([raw for raw in t.HARD_REPLIES if t.outcome(raw) != t.oracle_preprocess(raw)])\n"
        )
        paths = [Path(preprocess_mod.__file__).parents[1], Path(__file__).parent]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == "[]\n"


class CountingYaml:
    """Stands in for ``yaml`` inside the preprocess module, counting loads (calls
    of parse), the characters handed to them and the events drawn from them."""

    def __init__(self):
        self.loads = 0
        self.load_chars = 0
        self.events = 0

    def parse(self, stream, *args, **kwargs):
        self.loads += 1
        self.load_chars += len(stream)
        return self._counted(yaml.parse(stream, *args, **kwargs))

    def _counted(self, events):
        for event in events:
            self.events += 1
            yield event

    def __getattr__(self, name):
        return getattr(yaml, name)


@pytest.fixture
def counter(monkeypatch):
    counting = CountingYaml()
    monkeypatch.setattr(preprocess_mod, "yaml", counting)
    return counting


class TestWorkBound:
    def test_colon_free_prose_needs_linear_parses(self, counter):
        # No line holds a mapping signal, so nothing is loaded.
        lines = [f"Sentence number {i} says nothing about the deployment at all." for i in range(120)]
        with pytest.raises(StructuralError) as info:
            preprocess_reply("\n".join(lines))
        assert info.value.kind is StructuralErrorKind.NO_YAML_FOUND
        assert counter.loads == 0

    def test_bulleted_reply_reads_each_character_at_most_twice(self, counter):
        raw = "\n".join(bulleted(480))
        with pytest.raises(StructuralError):
            preprocess_reply(raw)
        assert counter.load_chars <= 2 * len(raw)

    def test_prose_config_prose_needs_at_most_a_load_per_line(self, counter):
        prose = [
            f"Label{i}: some words here." if i % 3 == 2 else f"Sentence {i} of the prose."
            for i in range(1, 13)
        ]
        raw = "\n".join([*prose, YAML_BODY, *prose])
        assert preprocess_reply(raw).source_text == YAML_BODY
        assert counter.loads <= len(raw.splitlines())

    @pytest.mark.parametrize("indent", ["", "  "])
    def test_chatty_reply_needs_at_most_two_span_loads(self, counter, indent):
        # A start's first end is the first prose line that ends its root: one
        # left of it, or a sentence at its column with no key colon.
        raw = "\n".join(
            [
                "Here is the configuration you asked for.",
                "It keeps the defaults where it can.",
                *(indent + line for line in YAML_BODY.splitlines()),
                "Note: memory is set to 4Gi.",
                "Every value above was checked twice.",
                "Tip: raise the retries when the network is slow.",
            ]
        )
        assert outcome(raw) == oracle_preprocess(raw)
        assert counter.loads <= 1 + 2

    def test_unterminated_quote_needs_at_most_a_load_per_line(self, counter):
        # The quote runs to the end of every span that holds the line it opens
        # on, so the first failure from each start drops its end above that line.
        lines = [*(f"a{i}: v" for i in range(240)), "q: 'open", *(f"b{i}: v" for i in range(239))]
        assert preprocess_reply("\n".join(lines)).root == {f"a{i}": "v" for i in range(240)}
        assert counter.loads <= len(lines) + 1

    @pytest.mark.parametrize(
        "breaks, tail, lengths",
        [("\n", "", [2011, 7]), ("\r\n", "", [2013, 2011, 7]), ("\n", "\n", [2012, 2011, 7])],
        ids=["same text", "cr breaks", "trailing newline"],
    )
    def test_failed_whole_reply_is_not_parsed_again(self, monkeypatch, breaks, tail, lengths):
        # The span search starts from the keep of the whole reply's parse, when
        # its lines joined are that reply.
        parsed = []
        parse = preprocess_mod._try_parse_mapping
        monkeypatch.setattr(
            preprocess_mod, "_try_parse_mapping", lambda text: parsed.append(len(text)) or parse(text)
        )
        raw = breaks.join(["? k", ": v", "a: " + "[" * 2000]) + tail
        assert preprocess_reply(raw).root == {"k": "v"}
        assert parsed == lengths

    def test_clean_reply_parses_once(self, counter):
        assert preprocess_reply(YAML_BODY).root == YAML_TREE
        assert counter.loads == 1

    @pytest.mark.parametrize("lines", [240, 960])
    def test_repeated_key_reply_stops_each_load_at_its_clash(self, counter, lines):
        # Each start streams to the first repeated key below it, where its
        # load stops, instead of building the rest of the reply first.
        raw = "\n".join(f"k: {i}" for i in range(lines))
        assert preprocess_reply(raw).root == {"k": 0}
        assert 0 < counter.events < 16 * lines

    def test_repeated_plain_key_bounds_each_start(self, counter):
        # The line below each start repeats its key at its column, so each
        # start's first end is its own line: one span load in all.
        raw = "\n".join(f"k: {i}" for i in range(1920))
        assert preprocess_reply(raw).source_text == "k: 0"
        assert counter.loads == 1 + 1

    def test_deep_nesting_fails_without_crashing(self):
        # 50,000 nested sequences: the load stops at the one past MAX_DEPTH.
        with pytest.raises(StructuralError) as info:
            preprocess_reply("- " * 50_000 + "a: 1")
        assert info.value.kind is StructuralErrorKind.NO_YAML_FOUND

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("a: " + "[" * 2000 + "]" * 2000, ("error", StructuralErrorKind.NO_YAML_FOUND)),
            ("- " * 50_000 + "a: 1", ("error", StructuralErrorKind.NO_YAML_FOUND)),
            ("x: &a 1\na: " + "[" * 2000, ("ok", "x: &a 1", {"x": 1})),
            ("? k\n: v\na: " + "[" * 2000, ("ok", "? k\n: v", {"k": "v"})),
        ],
        ids=["flow", "block", "after an anchor", "after an explicit key"],
    )
    def test_deep_reply_reads_no_further_than_the_limit(self, counter, raw, expected):
        # Each load stops at the collection that opens past MAX_DEPTH, after an
        # anchor as anywhere else.
        assert outcome(raw) == expected
        assert 0 < counter.events < 4 * preprocess_mod.MAX_DEPTH


class TestScalarMemo:
    def test_serializing_again_resolves_no_string(self, monkeypatch):
        """The writer's answer for a short string is kept; a float's text is
        resolved on every pass."""
        resolved = []
        resolve = preprocess_mod._RESOLVE
        monkeypatch.setattr(
            preprocess_mod, "_RESOLVE", lambda kind, text, implicit: resolved.append(text) or resolve(kind, text, implicit)
        )
        tree = {
            "memo-check": {"policy": "memo-spread", "retries": 2, "enabled": True},
            "memo-items": ["memo-a", "memo b", "memo-a"],
            "memo-ratio": 0.5,
        }
        text = serialize_config(tree)
        assert {"memo-check", "memo-spread", "memo b"} <= set(resolved)
        resolved.clear()
        assert serialize_config(tree) == text == yaml.safe_dump(
            tree, default_flow_style=False, indent=2, sort_keys=False, allow_unicode=True
        )
        assert resolved == ["0.5"]

    def test_replies_with_large_scalars_leave_little_behind(self):
        """A memo keeps only short scalar texts, so the memory many replies
        with a large scalar leave held is far below one reply's size."""
        size = 1_000_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(20):
                config = parse_config(f"a: {i} {'x' * size}")
                assert len(serialize_config(config)) == len(f"a: {i} \n") + size
            del config
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < size / 10, held


class TestConstructorErrors:
    @pytest.mark.parametrize(
        "text",
        ["expires: 2024-02-30", "a: !!int abc", "a: !!bool maybe", "!!map\n- 1", "a: !!timestamp x", "a: !!int"],
    )
    def test_parse_failure_not_crash(self, text):
        with pytest.raises(StructuralError) as info:
            parse_config(text)
        assert info.value.kind is StructuralErrorKind.PARSE_FAILURE

    def test_rejected_span_leaves_the_rest(self):
        assert preprocess_reply("expires: 2024-02-30\na: 1\nb: 2").source_text == "a: 1\nb: 2"


# The line breaks of YAML marks: "\r\n" is one break.
YAML_BREAKS = ["\n", "\r", "\r\n", "\x85", "\u2028", "\u2029"]


class TestErrorReports:
    @pytest.mark.parametrize(
        "text",
        [
            "a: [unclosed", "a: 1\n b: 2\nc", "a: 'open", "key: value: other",
            "\u00e9: \x07", "\u00e9\u00e9\n: \x07",
        ],
    )
    def test_syntax_errors_read_as_pyyamls_own(self, text):
        # The error of PyYAML's libyaml loader, at its mark; a reader error has
        # none and is placed by its position, which one_line turns into characters.
        with pytest.raises(yaml.YAMLError) as expected:
            list(yaml.load_all(text, Loader=preprocess_mod._LIBYAML))
        with pytest.raises(StructuralError) as info:
            parse_config(text)
        mark = getattr(expected.value, "problem_mark", None)
        assert info.value.detail == one_line(expected.value, text)
        if mark is not None:
            assert info.value.detail.endswith(f" at line {mark.line + 1}, column {mark.column + 1}")
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("brk", YAML_BREAKS, ids=repr)
    def test_reader_error_counts_the_breaks_libyaml_marks_count(self, brk):
        # A reader error has no mark; libyaml's marks put "b: c: d" on line 2.
        with pytest.raises(yaml.YAMLError) as marked:
            list(yaml.load_all("a: 1" + brk + "b: c: d", Loader=preprocess_mod._LIBYAML))
        assert marked.value.problem_mark.line + 1 == 2
        with pytest.raises(StructuralError) as info:
            parse_config("a: 1" + brk + "b: \x07")
        assert info.value.detail == (
            "unacceptable character #x0007: control characters are not allowed at line 2, column 4"
        )

    def test_duplicate_key_report(self):
        with pytest.raises(StructuralError) as info:
            parse_config("a: 1\na: 2")
        assert info.value.detail == "duplicate key 'a' at line 2, column 1"


# The loader against the oracle that reads as libyaml does, and the direct
# writer against PyYAML's own safe_dump.
needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")


def load_outcome(load, text):
    """("ok", repr of the tree) or ("error", type, message)."""
    try:
        return "ok", repr(load(text))
    except Exception as exc:  # the oracle's own exception, whatever it is
        return "error", type(exc), str(exc)


@pytest.fixture(scope="module")
def yaml_file(tmp_path_factory):
    return tmp_path_factory.mktemp("load") / "input.yaml"


def file_load(path):
    """``load_yaml_file`` on ``text`` written to ``path``."""

    def load(text):
        path.write_text(text, encoding="utf-8")
        return load_yaml_file(path)

    return load


def one_line(exc, text):
    """PyYAML's error on ``text`` as one line: the problem, then its line and column.
    libyaml gives a reader error's position in UTF-8 bytes, PyYAML's reader in characters."""
    if isinstance(exc, yaml.reader.ReaderError):
        position = exc.position
        if preprocess_mod._LIBYAML is not yaml.SafeLoader:
            position = len(text.encode("utf-8")[:position].decode("utf-8"))
        before = re.split("\r\n|[\r\n\x85\u2028\u2029]", text[:position])
        problem = f"unacceptable character #x{exc.character:04x}: {exc.reason}"
        return f"{problem} at line {len(before)}, column {len(before[-1]) + 1}"
    mark = getattr(exc, "problem_mark", None)
    if mark is None:
        return str(exc)
    return f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}"


def error_line(message):
    """The line an error on one line names."""
    return int(re.search(r" at line (\d+), column \d+$", message).group(1))


def strict_file_load(path):
    """The oracle's one document of ``text`` (None for none), or its error on
    one line, as the InputError that names ``path``."""

    def load(text):
        try:
            docs = strict_documents(text)
        except Exception as exc:  # the oracle's own exception, whatever it is
            raise InputError(f"{path}: not valid YAML: {one_line(exc, text)}") from exc
        if len(docs) > 1:
            raise InputError(f"{path}: holds {len(docs)} YAML documents; expected one")
        return docs[0] if docs else None

    return load


# Texts libyaml reads differently from PyYAML's own scanner, and libyaml's
# reading of each, which is the loader's.
LIBYAML_READINGS = {
    "a: b\tc": {"a": "b\tc"},  # a tab PyYAML rejects
    "a:\tb\n c": {"a": "b c"},
    "- x\n\ufeff": ["x"],  # a byte order mark at a line start
    "a: !": {"a": ""},  # an empty node tagged "!", None to PyYAML
    "a: |#x\n  b": {"a": "b"},  # a block scalar header running into a comment
    "[a?b]": ["a?b"],  # a '?' inside a flow plain scalar
}


class TestLoadYaml:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(REPLY_LINES), max_size=8), st.booleans())
    def test_same_tree_or_error_as_strict_loader(self, yaml_file, lines, trailing_newline):
        # Where the messages differ, the builder refused a node in its own words,
        # as reads_as_the_oracle allows.
        text = "\n".join(lines) + ("\n" if trailing_newline else "")
        expected = load_outcome(strict_file_load(yaml_file), text)
        got = load_outcome(file_load(yaml_file), text)
        if got != expected:
            assert got[:2] == expected[:2] == ("error", InputError)
            assert reads_as_the_oracle(text)[1] is preprocess_mod._NodeError

    def test_two_documents_are_an_error(self, yaml_file):
        yaml_file.write_text("a: 1\n---\nb: 2\n", encoding="utf-8")
        with pytest.raises(InputError) as info:
            load_yaml_file(yaml_file)
        assert str(info.value) == f"{yaml_file}: holds 2 YAML documents; expected one"

    def test_duplicate_key_names_the_file_and_line(self, yaml_file):
        yaml_file.write_text("profile: cot\nprofile: ip\n", encoding="utf-8")
        with pytest.raises(InputError) as info:
            load_yaml_file(yaml_file)
        assert str(info.value) == (
            f"{yaml_file}: not valid YAML: duplicate key 'profile' at line 2, column 1"
        )

    @pytest.mark.parametrize(
        "text, problem",
        [
            # libyaml puts the stream end after an implied final line break
            ("a: [unclosed", "did not find expected ',' or ']' at line 2, column 1"),
            ("a: 1\n b: 2\nc", "mapping values are not allowed in this context at line 2, "
             "column 3"),
            ("a: 1\nb: \x07", "unacceptable character #x0007: control characters are not "
             "allowed at line 2, column 4"),
            ("\u00e9: \x07", "unacceptable character #x0007: control characters are not "
             "allowed at line 1, column 4"),
            ("\u00e9\u00e9\n: \x07", "unacceptable character #x0007: control characters are not "
             "allowed at line 2, column 3"),
            ("expires: 2024-02-30", "invalid tag:yaml.org,2002:timestamp value: day is out of "
             "range for month at line 1, column 10"),
        ],
    )
    def test_error_is_one_line(self, yaml_file, text, problem):
        yaml_file.write_text(text, encoding="utf-8")
        with pytest.raises(InputError) as info:
            load_yaml_file(yaml_file)
        assert str(info.value) == f"{yaml_file}: not valid YAML: {problem}"

    @needs_libyaml
    @pytest.mark.parametrize("text", LIBYAML_READINGS)
    def test_routing_rules(self, yaml_file, text):
        yaml_file.write_text(text, encoding="utf-8")
        assert load_yaml_file(yaml_file) == LIBYAML_READINGS[text]
        expected = load_outcome(strict_file_load(yaml_file), text)
        assert load_outcome(file_load(yaml_file), text) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "%YAML 1.3\n---\na: 1",  # libyaml rejects what PyYAML's own scanner accepts
            "a: 1\n\ufeffb: 2",
            "{a:}",
            "a: [unclosed",  # the message is libyaml's
            "a: 1\n b: 2\nc",
            "expires: 2024-02-30",  # a constructor error
            "k: " + "[" * 40 + "\n" + "[" * 40 + "]" * 80,  # nesting past the limit
        ],
    )
    def test_failures_are_decided_by_pyyaml(self, yaml_file, text):
        expected = load_outcome(strict_file_load(yaml_file), text)
        assert load_outcome(file_load(yaml_file), text) == expected

    def test_deep_nesting_stays_off_libyaml(self, yaml_file):
        # The event builder stops at the sequence past MAX_DEPTH, so libyaml's
        # composer, which recurses on the C stack, never reads the text.
        yaml_file.write_text("- " * 1500 + "a", encoding="utf-8")
        with pytest.raises(InputError) as info:
            load_yaml_file(yaml_file)
        assert str(info.value) == (
            f"{yaml_file}: not valid YAML: nesting deeper than 64 levels at line 1, column 129"
        )


# The builder makes trees from libyaml's events; its oracle reads those events
# for depth and composes them with libyaml's own loader. Plain scalars at the edges
# of SafeLoader's resolver join the reply lines as keys, values and
# sequence entries.
HOSTILE_SCALARS = (
    ".inf", ".nan", "1e400", "0x1F", "0o17", "1_000", "190:20:30", "2024-01-01", "2024-02-30",
    "~", "yes", "=", "<<",
)
BUILDER_LINES = REPLY_LINES + tuple(
    line for scalar in HOSTILE_SCALARS for line in (f"h: {scalar}", f"{scalar}: h", f"- {scalar}")
)
# Mapping entries that name and copy nodes: anchors on scalars, sequences and
# mappings; aliases as values, keys and entries, before their anchor and inside
# it; anchors named twice; merge keys; the tags the builder makes and those it
# refuses. In an entry, {k} is its own key, {a} its own anchor, and {p} the
# anchor of an entry some places above, or of the first line, "h: &h [0, {k: v}]".
ALIAS_KEYS = ("{k}",) * 12 + ("*{p} ", "&{a}k {k}", "<<", "? *{p}\n", "? !!map\n")
ALIAS_VALUES = (
    "&{a} 1", "&{a} [1, 2]", "&{a} {{k: v}}", "&{a}", "*{p}", "&{a} [*{p}, *{p}]",
    "&{a} {{x: *{p}, j: [*{p}]}}", "&{a} [*{a}]", "&{a} {{k: *{a}}}", "&{a}\n  k: *{p}",
    "&{a}\n  - *{p}\n  - *{a}", "[&{p} 1]", "&{a} !!str 5", "&{a} !!int 7", "&{a} !!float 1",
    "&{a} !!bool yes", "&{a} !!null x", "&{a} !!timestamp 2024-01-01", "&{a} !!int x", "&{a} ! 5",
    "&{a} !local x", "&{a} !!map {{k: 1}}", "&{a} !!seq [1]", "&{a} !!map [1]", "&{a} !!seq {{k: 1}}",
    "&{a} !!str [1]", "&{a} !!map", "&{a} !!seq", "&{a} ! [1]", "&{a} !!set {{x, y}}",
    "&{a} !!binary aGk=", "&{a} !!omap [{{a: 1}}]", "&{a} !!pairs [{{a: 1}}]",
)


def doubling_chain(levels):
    """Lines whose anchor c<n> lists c<n - 1> twice: 2**n copies of the first."""
    lines = ["c0: &c0 [1, 2]"] + [f"c{n}: &c{n} [*c{n - 1}, *c{n - 1}]" for n in range(1, levels)]
    return "\n".join(lines)


def wrapping_chain(levels, brackets=20):
    """Lines whose anchor w<n> wraps w<n - 1> in ``brackets`` more sequences."""
    lines = [f"w{n}: &w{n} " + "[" * brackets + (f"*w{n - 1}" if n else "1") + "]" * brackets
             for n in range(levels)]
    return "\n".join(lines)


def alias_text(parts):
    """The line "h: &h [0, {k: v}]", then those of ``parts``: each a line, or an
    entry (key form, value, how far up {p} is) placed as the i-th line after it."""
    lines = ["h: &h [0, {k: v}]"]
    for i, part in enumerate(parts, 1):
        if not isinstance(part, str):
            key, value, up = part
            names = dict(k=f"k{i}", a=f"x{i}", p=f"x{i - up}" if i - up > 1 else "h")
            part = f"{key.format(**names)}: {value.format(**names)}"
        lines.append(part)
    return "\n".join(lines)


alias_entries = st.tuples(
    st.sampled_from(ALIAS_KEYS), st.sampled_from(ALIAS_VALUES), st.integers(1, 3)
)
# A chain or none, entries, and a builder line or none.
ALIAS_TEXTS = st.tuples(
    st.just("") | st.integers(1, 12).map(doubling_chain) | st.integers(1, 4).map(wrapping_chain),
    st.lists(alias_entries, max_size=5),
    st.just("") | st.sampled_from(BUILDER_LINES),
).map(lambda parts: alias_text([parts[0], *parts[1], parts[2]]).strip("\n"))


def marked_outcome(load, text):
    """("ok", repr of the tree) or ("error", type, the error on one line), so that
    an error's message does not hold the builder's own context."""
    try:
        return "ok", repr(load(text))
    except Exception as exc:  # the oracle's own exception, whatever it is
        return "error", type(exc), one_line(exc, text)


def reads_as_the_oracle(text, got=None):
    """Check the builder's reading of ``text``, or ``got``, its marked outcome,
    against the oracle's, by repr so that 1, 1.0 and True stay apart; return it.
    - Where the oracle reads documents, the builder reads the same.
    - Where the builder refuses what the composer reads, it says what.
    - A parser error is the same on both: each reads the events up to it.
    - Any other error of the builder's is a node it refuses in its own words,
      on the line of the oracle's error or above, as the builder stops at the
      first. But the composer marks an error on an aliased node at its
      anchor, and a tag in REFUSED_TAGS is met at its node, where the composer
      may read on and fail elsewhere (a set key fails at its mapping).
    """
    expected = marked_outcome(strict_documents, text)
    if got is None:
        got = marked_outcome(preprocess_mod._built_documents, text)
    if expected[0] == "ok" or got[1] is not preprocess_mod._NodeError:
        assert got == expected
    elif expected[1] is Refusal:
        assert expected[2] in got[2]
    elif "*" not in text and not any(repr(tag) in got[2] for tag in REFUSED_TAGS):
        assert error_line(got[2]) <= error_line(expected[2])
    return got


def counted_read(text):
    """The builder's marked outcome on ``text``, and the events it drew plus the nodes it copied."""
    counting = CountingYaml()
    calls = itertools.count()
    copy = preprocess_mod._copy

    def counted_copy(*args):
        next(calls)
        return copy(*args)

    with mock.patch.object(preprocess_mod, "yaml", counting):
        with mock.patch.object(preprocess_mod, "_copy", counted_copy):
            got = marked_outcome(preprocess_mod._built_documents, text)
    return got, counting.events + next(calls)


class TestEventBuilder:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(BUILDER_LINES), max_size=10), st.booleans())
    def test_same_tree_or_both_raise(self, lines, trailing_newline):
        reads_as_the_oracle("\n".join(lines) + ("\n" if trailing_newline else ""))

    @settings(max_examples=500, deadline=None)
    @given(ALIAS_TEXTS, st.booleans())
    def test_anchors_aliases_and_tags_read_as_the_composer_within_the_budget(
        self, text, trailing_newline
    ):
        # The composer's tree, unless the text is past the budget, copies past
        # MAX_DEPTH, names a node inside itself or holds a refused tag; then the
        # builder fails at the first of these. Its work is bounded by the text.
        text += "\n" if trailing_newline else ""
        got, work = counted_read(text)
        reads_as_the_oracle(text, got)
        limit = preprocess_mod._COPIES_PER_CHAR * len(text)
        if "aliases expand past" in got[-1]:
            assert got[-1].startswith(f"aliases expand past {limit} nodes at line ")
        assert work <= (preprocess_mod._COPIES_PER_CHAR + 2) * len(text) + 8

    @pytest.mark.parametrize("levels", [12, 20, 40])
    def test_alias_chain_fails_at_the_budget(self, levels):
        # 2**levels copies of the first line's list: refused at the alias whose
        # copy passes four nodes a character, before it is copied.
        text = doubling_chain(levels)
        limit = 4 * len(text)
        got, work = counted_read(text)
        assert got[0] == "error"
        assert got[2].startswith(f"aliases expand past {limit} nodes at line ")
        assert work <= 6 * len(text) + 8

    @pytest.mark.parametrize(
        "text",
        [
            "a: &a 1\nb: 2",  # an anchor
            "- &a x\n- *a",
            "b: *a",  # an alias, here an undefined one
            "a: !!str 5",  # an explicit tag
            "a: !",  # the non-specific tag
            "? [1]\n: v",  # a key that is not a scalar
            "<<: *a",  # a merge key
            "=: 1",  # the value key, which SafeConstructor cannot build
            "e: 2024-02-30",  # a value its maker refuses
        ],
    )
    def test_fallback_gives_the_composing_loaders_result(self, text):
        # The texts the builder once left to libyaml's composer. It reads each
        # itself now, as the composer does.
        reads_as_the_oracle(text)

    def test_repeated_key_raises_at_its_event(self):
        # The clash is met before the open flow sequence below it.
        with pytest.raises(preprocess_mod._NodeError, match="^duplicate key 'a'") as info:
            preprocess_mod._built_documents("a: 1\na: 2\nb: [")
        assert info.value.end_line == 1

    def test_threads_share_the_scalar_cache(self):
        # More threads than cores, each churning the bounded cache in its own
        # order: a value built for one scalar and handed out for another shows.
        texts = [
            f"a: {i}\nb: {i}.5\nc: 2024-01-{i % 28 + 1:02d}\nd: {'yes' if i % 2 else 'no'}"
            for i in range(600)
        ]
        expected = [repr(strict_documents(text)) for text in texts]
        checked, wrong = [], []

        def check(offset):
            for i in range(len(texts)):
                j = (i + offset) % len(texts)
                if repr(preprocess_mod._built_documents(texts[j])) != expected[j]:
                    wrong.append(j)
                checked.append(j)

        threads = [threading.Thread(target=check, args=(k * 150,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(checked) == 4 * len(texts) and wrong == []

    @pytest.mark.parametrize("text", [".nan: 1\n.NaN: 2", "1: a\n1.0: b", "1: a\ntrue: b"])
    def test_keys_clash_as_the_composing_loader_has_them(self, text):
        # SafeConstructor gives every .nan one float, so repeated .nan keys clash.
        expected = marked_outcome(strict_documents, text)
        assert expected[:2] == ("error", ComposerRefused)
        got = marked_outcome(preprocess_mod._built_documents, text)
        assert got == ("error", preprocess_mod._NodeError, expected[2])

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("a: &x [*x]", "alias 'x' is inside the node it names at line 1, column 8"),
            ("a: &x {b: [*x]}", "alias 'x' is inside the node it names at line 1, column 12"),
            ("a: &x 1\n---\nb: *x", "found undefined alias 'x' at line 3, column 4"),
            ("a: &x 1\nb: &x 2", "found duplicate anchor 'x' at line 2, column 4"),
            ("&k a: 1\nb: 2\n*k : 3", "duplicate key 'a' at line 3, column 1"),
            ("a: &x {k: 1}\n*x : 2", "unhashable mapping key at line 2, column 1"),
            ("!!map\n- 1", "could not determine a constructor for the tag "
             "'tag:yaml.org,2002:map' at line 1, column 1"),
        ],
    )
    def test_alias_and_tag_errors_are_one_line_at_their_event(self, text, problem):
        with pytest.raises(StructuralError) as info:
            parse_config(text)
        assert str(info.value) == f"ParseFailure: {problem}"

    def test_an_alias_is_a_copy(self):
        root = parse_config("a: &x {k: [1, {j: 2}]}\nb: *x\nc: [*x, *x]").root
        assert root["a"] == root["b"] == root["c"][0] == root["c"][1] == {"k": [1, {"j": 2}]}
        containers = [root["a"], root["b"], *root["c"], root["a"]["k"], root["b"]["k"]]
        assert len({id(node) for node in containers}) == len(containers)


def nested_flow(depth):
    """A mapping holding sequences ``depth`` levels deep in all, closed."""
    return "a: " + "[" * (depth - 1) + "]" * (depth - 1)


def copied_flow(depth):
    """A sequence 31 deep, and an alias that copies it ``depth`` levels deep in all."""
    return "a: &x " + "[" * 31 + "]" * 31 + "\nb: " + "[" * (depth - 32) + "*x" + "]" * (depth - 32)


class TestNestingLimit:
    # Each text nests MAX_DEPTH levels at 64 and one more at 65, where the
    # collection past the limit opens, or the alias that copies it lands, at
    # the line and column given.
    @pytest.mark.parametrize(
        "make, line, column",
        [
            (nested_flow, 1, 67),
            (lambda depth: "- " * (depth - 1) + "a: 1", 1, 129),
            (lambda depth: "x: &a 1\n" + nested_flow(depth), 2, 67),
            (lambda depth: "- &a x\n" + "- " * (depth - 1) + "a: 1", 2, 129),
            (lambda depth: "a: &x " + "[" * (depth - 1) + "]" * (depth - 1), 1, 70),
            (lambda depth: "? k\n: v\n" + nested_flow(depth), 3, 67),
            (copied_flow, 2, 37),
        ],
        ids=[
            "flow", "block", "flow after an anchor", "block after an anchor",
            "flow from an anchored sequence", "read differently", "copied by an alias",
        ],
    )
    def test_depth_64_loads_and_65_fails_alike(self, make, line, column):
        problem = f"{TOO_DEEP} at line {line}, column {column}"
        assert reads_as_the_oracle(make(64))[0] == "ok"
        assert reads_as_the_oracle(make(65)) == ("error", preprocess_mod._NodeError, problem)
        with pytest.raises(StructuralError) as info:
            parse_config(make(65))
        assert str(info.value) == f"ParseFailure: {problem}"

    def test_anchors_wrapping_each_other_nest_no_deeper_than_the_limit(self):
        # 40 anchors, each wrapping the one before in 59 brackets: 5.3 KB that
        # libyaml's composer reads as a tree about 2,400 levels deep.
        text = wrapping_chain(40, brackets=59)
        assert 5000 < len(text) < 5500
        with pytest.raises(StructuralError) as info:
            parse_config(text)
        assert str(info.value) == f"ParseFailure: {TOO_DEEP} at line 2, column 68"


# The safe_dump call whose bytes serialize_config writes.
SERIALIZE_OPTIONS = dict(default_flow_style=False, indent=2, sort_keys=False, allow_unicode=True)

# Characters PyYAML prints as they are, and characters that make a scalar
# escaped or unprintable.
PRINTED_CHARS = list("abcxyz   ::--#'\"!&*?{}[],|>%@`~.0123") + ["\u00e9", "\u4e2d", "\xa0"]
OTHER_CHARS = ["\n", "\t", "\x07", "\x85", "\u2028", "\ufeff", "\U0001f600", "\ud800"]
dump_text = st.one_of(
    st.text(st.sampled_from(alphabet), min_size=low, max_size=high)
    for alphabet in (PRINTED_CHARS, PRINTED_CHARS + OTHER_CHARS)
    for low, high in ((0, 12), (60, 200))
)
dump_keys = dump_text | st.text(st.sampled_from(PRINTED_CHARS), min_size=110, max_size=140) | st.integers()
dump_scalars = (
    dump_text
    | st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sets(dump_text, max_size=2)
)
dump_trees = st.recursive(
    dump_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(dump_keys, inner, max_size=4),
    max_leaves=30,
)
dump_roots = st.lists(dump_trees, max_size=3) | st.dictionaries(dump_keys, dump_trees, max_size=3)


# Trees shaped like the configurations the package writes, which the direct
# writer takes: lowercase keys, text that starts with a letter, words with
# single spaces that reach past the folding column, nested containers. The
# table below holds the leaves at the edges of its rules.
LOWER = "abcdefghijklmnopqrstuvwxyz"
config_keys = st.text(LOWER, min_size=1, max_size=10)
config_text = (
    st.tuples(st.sampled_from(LOWER), st.text(LOWER + "ABC0123456789_./:-", max_size=15)).map("".join)
    | st.lists(st.text(LOWER, min_size=1, max_size=9), min_size=4, max_size=15).map(" ".join)
    | st.just("caf\u00e9")
)
config_trees = st.recursive(
    config_text | st.none() | st.booleans() | st.integers() | st.floats(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(config_keys, inner, max_size=4),
    max_leaves=30,
)
config_roots = st.lists(config_trees, max_size=3) | st.dictionaries(config_keys, config_trees, max_size=4)


def refuse_fallback(monkeypatch):
    """Make ``yaml.safe_dump`` fail, so that only the direct writer can answer."""

    def refuse(*args, **kwargs):
        raise AssertionError("serialize_config fell back on yaml.safe_dump")

    monkeypatch.setattr(yaml, "safe_dump", refuse)


BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@functools.cache
def bench_workloads():
    """``bench/workloads.py``, loaded from its file as the module ``bench_workloads``."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDumpYaml:
    @settings(max_examples=400, deadline=None)
    @given(dump_roots | config_roots)
    def test_writer_matches_safe_dump(self, tree):
        assert serialize_config(tree) == yaml.safe_dump(tree, **SERIALIZE_OPTIONS)

    def test_plain_config_is_written_directly(self, monkeypatch):
        trees = (YAML_TREE, {"name": "caf\u00e9"})
        expected = [yaml.safe_dump(tree, **SERIALIZE_OPTIONS) for tree in trees]
        refuse_fallback(monkeypatch)
        assert [serialize_config(tree) for tree in trees] == expected

    # Each tree is one a routing rule of the direct writer decides: it must
    # either write the tree as safe_dump does or leave it to safe_dump. Each
    # row names the safe_dump options it is checked against, all the one set.
    @pytest.mark.parametrize(
        "tree, options",
        [
            ({"": 1}, SERIALIZE_OPTIONS),  # an empty key
            ({"k" * 123: 1}, SERIALIZE_OPTIONS),  # a key past PyYAML's simple-key length
            ({"\u00e9" * 65: 1}, SERIALIZE_OPTIONS),  # a non-ASCII key
            ({10**124: 1}, SERIALIZE_OPTIONS),  # a long key that is not a string
            ({"\U0001f600": 1}, SERIALIZE_OPTIONS),  # a key with a character past U+FFFF
            ({"a": "\ud800"}, SERIALIZE_OPTIONS),  # a lone surrogate
            ({"a": "x\x07" + "a b" * 40}, SERIALIZE_OPTIONS),  # a long escaped string
            ({"a": "\u00e9 b" * 30}, SERIALIZE_OPTIONS),  # non-ASCII words past column 80
            ({"a": "\U0001f600"}, SERIALIZE_OPTIONS),  # a character past U+FFFF
            ({"a": {""}}, SERIALIZE_OPTIONS),  # a set, whose members are keys
            ("a", SERIALIZE_OPTIONS),  # a root scalar
            pytest.param({"a": [1, 2], "b": [1, 2]}, SERIALIZE_OPTIONS, id="repeated list"),
            *(
                pytest.param({word: [word, {"k": word}]}, SERIALIZE_OPTIONS, id=f"resolves {word}")
                for word in ("yes", "No", "on", "null", "~", "1e3", "0x1F", "1_000", "12:30",
                             "2024-02-30", ".inf")
            ),
            pytest.param({"k" * 122: 1}, SERIALIZE_OPTIONS, id="122-character key"),
            pytest.param({"k" * 127: 1}, SERIALIZE_OPTIONS, id="127-character key"),
            pytest.param({"k" * 128: 1}, SERIALIZE_OPTIONS, id="128-character key"),
            pytest.param({"a": "b ", "c ": 1}, SERIALIZE_OPTIONS, id="trailing space"),
            pytest.param([{"a": 1, "b": [1, {"c": None}]}, {"d": {"e": True}}], SERIALIZE_OPTIONS,
                         id="list of dicts"),
            pytest.param([[1, [2, 3]], [], ["x"]], SERIALIZE_OPTIONS, id="list of lists"),
            pytest.param({"a": {}, "b": [], "c": [{}, []], "d": {"e": {}}}, SERIALIZE_OPTIONS,
                         id="empty containers"),
            pytest.param({}, SERIALIZE_OPTIONS, id="empty root"),
            pytest.param({"a\u2028b": "c\u2029d"}, SERIALIZE_OPTIONS, id="line separators"),
            pytest.param({"name": "caf\u00e9"}, SERIALIZE_OPTIONS, id="non-ASCII readable"),
            pytest.param({"name": "caf\u00e9\ufeff"}, SERIALIZE_OPTIONS, id="non-ASCII escaped"),
            pytest.param({"f": [1.5, 1e17, -0.0, float("inf"), float("nan")]}, SERIALIZE_OPTIONS,
                         id="floats"),
            pytest.param({"k": "a" * 77 + " b"}, SERIALIZE_OPTIONS, id="space at column 80"),
            pytest.param({"k": "a" * 78 + " b"}, SERIALIZE_OPTIONS, id="space past column 80"),
        ],
    )
    def test_routing_rules(self, tree, options):
        assert serialize_config(tree) == yaml.safe_dump(tree, **options)

    @pytest.mark.parametrize(
        "workload", ["repair_loop", "chatty_replies", "wide_placement", "bench_sweep"]
    )
    def test_benchmark_trees_are_written_directly(self, workload, monkeypatch):
        """Every reply tree of the benchmark's workloads, at seed 7."""
        embedded = bench_workloads().GENERATORS[workload](7).embedded
        assert embedded
        expected = {
            reply: yaml.safe_dump(tree, **SERIALIZE_OPTIONS) for reply, tree in embedded.items()
        }
        refuse_fallback(monkeypatch)
        for reply, text in expected.items():
            assert serialize_config(embedded[reply]) == text


def convert(value, kind):
    """The scalar reading the loaders used before ``read_scalar``: ``kind(value)``
    for anything but a mapping or a list. Kept as the oracle of the rule."""
    if not isinstance(value, (dict, list)):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{value!r} is not {kind.__name__}")


SCALAR_VALUES = st.one_of(
    st.integers(),
    st.integers(min_value=-(10**30), max_value=10**30).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.from_regex(r"\s?[-+]?\d{1,25}(\.\d*)?(e[-+]?\d{1,3})?\s?", fullmatch=True),
    st.sampled_from(["inf", "-inf", "nan", "1_000", "0x10", "", " ", "12 ", "Infinity"]),
    st.text(max_size=12),
    st.dates(),
    st.datetimes(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _rejected_on_purpose(value, kind) -> bool:
    """What the rule refuses that ``convert`` read: null, a bool, a container,
    a fractional float as an integer, and a non-finite number."""
    if value is None or isinstance(value, (bool, dict, list)):
        return True
    if kind is int and isinstance(value, float) and not value.is_integer():
        return True
    if kind is float:
        read = convert(value, float)
        return read != read or read in (float("inf"), float("-inf"))
    return False


class TestScalarRule:
    @settings(max_examples=600, deadline=None)
    @given(value=SCALAR_VALUES, kind=st.sampled_from([str, int, float]))
    def test_reads_as_convert_or_rejects_exactly_the_listed_values(self, value, kind):
        try:
            expected = convert(value, kind)
        except ValueError:
            assert read_scalar(value, kind) is None
            return
        read = read_scalar(value, kind)
        if _rejected_on_purpose(value, kind):
            assert read is None
        else:
            assert read is not None and type(read) is kind and read == expected

    @pytest.mark.parametrize(
        "value, kind, expected",
        [(12, str, "12"), (2.0, int, 2), ("7", int, 7), (3, float, 3.0), ("0.5", float, 0.5)],
    )
    def test_reads(self, value, kind, expected):
        read = read_scalar(value, kind)
        assert read == expected and type(read) is kind

    @pytest.mark.parametrize(
        "value, kind",
        [(None, str), (True, str), (False, int), (2.7, int), (float("inf"), float),
         ("nan", float), (10**400, float), ([1], str), ({"a": 1}, int)],
    )
    def test_rejects(self, value, kind):
        assert read_scalar(value, kind) is None


class TestFields:
    def test_errors_name_the_file_then_the_key_path(self):
        fields = Fields("f.yaml", {"nodes": [{"cpu": 1}, {"cpu": [2]}], "s": {"t": {"u": "x"}}})
        with pytest.raises(InputError, match=r"^f\.yaml: nodes\[1\]\.cpu must be a number"):
            fields.each("nodes")[1].get("cpu", 0.0)
        with pytest.raises(InputError, match=r"^f\.yaml: s\.t\.u must be an integer, got 'x'$"):
            fields.section("s").section("t").get("u", 0)
        with pytest.raises(InputError, match=r"^f\.yaml: s\.t\.v is required$"):
            fields.section("s").section("t").require("v")
        with pytest.raises(InputError, match=r"^f\.yaml: nodes must be a mapping"):
            fields.section("nodes")
        with pytest.raises(InputError, match=r"^f\.yaml: s must be a non-empty list"):
            fields.each("s")

    def test_a_top_level_list_is_an_error(self, tmp_path):
        path = tmp_path / "f.yaml"
        path.write_text("- a\n- b\n", encoding="utf-8")
        with pytest.raises(InputError) as info:
            Fields.load(path)
        assert str(info.value) == f"{path}: the top level must be a YAML mapping, got list"

    def test_unset_and_null_read_as_the_default(self):
        fields = Fields("f.yaml", {"a": None})
        assert fields.get("a", 3) == 3 and fields.get("b", "x") == "x"
        assert fields.section("a").raw == {} and fields.section("b").raw == {}

    def test_blank_required_text_is_an_error(self):
        with pytest.raises(InputError, match=r"^f\.yaml: prompt is required$"):
            Fields("f.yaml", {"prompt": "  "}).require("prompt")

    def test_build_names_the_mapping(self):
        def invariant(**kwargs):
            raise ValueError("must hold")

        node = Fields("f.yaml", {"nodes": [{}]}).each("nodes")[0]
        with pytest.raises(InputError, match=r"^f\.yaml: nodes\[0\]: must hold$"):
            node.build(invariant)


# Values as YAML builds them.
QUOTE_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.dates() | st.text(max_size=30)
QUOTE_VALUES = st.recursive(
    QUOTE_LEAVES,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.dictionaries(st.text(max_size=6) | st.integers(), inner, max_size=5)
    ),
    max_leaves=25,
)


class TestQuote:
    @settings(max_examples=500, deadline=None)
    @given(value=QUOTE_VALUES, budget=st.integers(0, 120))
    def test_is_repr_cut_at_the_budget(self, value, budget):
        written, quoted = repr(value), quote(value, budget)
        assert quoted == (written if len(written) <= budget else written[:budget] + "...")

    @pytest.mark.parametrize("text", ["ab" * 10**5, "a'" * 10**5, "a'" * 10**5 + '"', '"' * 10**5])
    def test_long_text_is_cut_where_repr_would_be(self, text):
        assert quote(text, 50) == repr(text)[:50] + "..."

    def test_work_is_bounded_by_the_budget_not_the_value(self):
        # A million entries are written only as far as the budget reaches.
        written = []

        class Leaf:
            def __repr__(self):
                written.append(self)
                return "7"

        assert quote({"k": [Leaf()] * 10**6}, 100) == ("{'k': [" + "7, " * 40)[:100] + "..."
        assert len(written) < 40

