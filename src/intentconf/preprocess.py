"""Extract and normalize YAML configuration from raw model output.

Model replies arrive as anything from clean YAML to prose-wrapped,
fence-wrapped, or truncated text. This module finds the configuration,
parses it strictly (duplicate keys are an error, the root must be a
mapping), and re-serializes it into one canonical form so downstream
diffing and deployment always see identical bytes for identical trees.

Parsing runs on libyaml, PyYAML's C parser (on PyYAML's own parser where it
was built without libyaml), and one builder makes every tree from the
parser's events: dicts, lists and scalars, in which an alias is a fresh copy
of the node its anchor names. A YAML error is the parser's, worded on one
line: its problem, then its line and column. What the builder refuses is
worded the same way, at the event where it meets it: a repeated key, a tag
it does not read, a collection opening past ``MAX_DEPTH`` levels, and aliases
that copy more nodes than the text's length allows. Input files are read by
the same strict rule as replies:
``load_yaml_file`` is the one reader of the package's YAML files and
``read_text_file`` of its other text files, and whatever is wrong with a
file, a duplicate key included, the error is an InputError whose message
names the file once. ``Fields`` then reads every value in those files by
one typed rule, and names the key of a value that does not read.
``serialize_config`` writes safe_dump's bytes, by itself for the plain block
trees the package builds.
"""

from __future__ import annotations

import enum
import functools
import math
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Mapping

import yaml


class StructuralErrorKind(enum.Enum):
    NO_YAML_FOUND = "NoYamlFound"
    PARSE_FAILURE = "ParseFailure"
    MULTIPLE_DOCUMENTS_AMBIGUOUS = "MultipleDocumentsAmbiguous"


class StructuralError(Exception):
    """Raised when no single well-formed mapping can be recovered from a reply."""

    def __init__(self, kind: StructuralErrorKind, detail: str):
        super().__init__(f"{kind.value}: {detail}")
        self.kind = kind
        self.detail = detail


@dataclass(frozen=True)
class ConfigDocument:
    """A parsed configuration: the mapping tree plus the text it came from."""

    root: dict
    source_text: str = ""


class _NodeError(yaml.MarkedYAMLError):
    """What the event builder refuses, at the event it met it on, with the
    0-based line that event ends on."""

    def __init__(self, problem: str, event):
        super().__init__(problem=problem, problem_mark=event.start_mark)
        self.end_line = event.end_mark.line


class _Refused(Exception):
    """What a helper of the builder refuses, raised as a _NodeError at the event being read."""


# PyYAML's scalar makers raise plain exceptions on a value they refuse:
# ValueError for "2024-02-30" or "!!int abc", KeyError for "!!bool maybe",
# IndexError for an empty "!!int", AttributeError for "!!timestamp x".
_VALUE_ERRORS = (ValueError, TypeError, LookupError, AttributeError)
# What loading can raise besides a YAMLError: libyaml's UnicodeEncodeError for a lone surrogate.
_LOAD_ERRORS = (yaml.YAMLError, UnicodeEncodeError)

# The most collections a text may hold open. serialize_config and safe_dump recurse one to
# three frames per level, so 64 levels stay far below the recursion limit, worker threads
# included; configurations nest about 15 deep.
MAX_DEPTH = 64
_TOO_DEEP = f"nesting deeper than {MAX_DEPTH} levels"
# The nodes a text's aliases may copy, per character of the text. A configuration's
# aliases copy a node or two per character; a chain of aliases that each name the one
# before twice would double with every line.
_COPIES_PER_CHAR = 4


_LIBYAML = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml's parser, when PyYAML has it
_RESOLVE = yaml.resolver.Resolver().resolve  # SafeLoader's resolver; it keeps no state
_CONSTRUCTOR = yaml.constructor.SafeConstructor()  # its scalar makers keep no state either
_MAKERS = {
    tag: yaml.constructor.SafeConstructor.yaml_constructors[tag]
    for tag in (
        f"tag:yaml.org,2002:{name}" for name in ("str", "int", "float", "bool", "null", "timestamp")
    )
}
_MAP_TAG = "tag:yaml.org,2002:map"
# The first characters some implicit resolver is registered for ('' for the
# empty scalar). SafeLoader registers none for every character, so a plain
# scalar that opens with any other character is a string.
_RESOLVED_FIRST = frozenset(yaml.resolver.Resolver.yaml_implicit_resolvers)
_NO_KEY = object()
_SCALAR, _ALIAS = yaml.ScalarEvent, yaml.AliasEvent
_MAPPING_START, _MAPPING_END = yaml.MappingStartEvent, yaml.MappingEndEvent
_SEQUENCE_START, _SEQUENCE_END = yaml.SequenceStartEvent, yaml.SequenceEndEvent
# The tags a collection may carry: "!", which asks for its kind's own, and that one.
_COLLECTION_TAGS = {_MAPPING_START: ("!", _MAP_TAG), _SEQUENCE_START: ("!", "tag:yaml.org,2002:seq")}


# The longest scalar text whose reading or writing is memoized.
_MEMO_CHARS = 128


def _memo_short(make):
    """``make`` with its answers for texts of up to _MEMO_CHARS characters kept
    in a fixed-size cache. A cache keeps its texts alive, so a longer text, a
    large scalar in a reply, is made afresh each time. One pass of a 240-case
    dataset under two profiles reads 358 distinct short scalars, more than
    256 entries hold."""
    cached = functools.lru_cache(maxsize=1024)(make)
    return lambda text: cached(text) if len(text) <= _MEMO_CHARS else make(text)


def _made(tag: str, text: str):
    """What SafeLoader builds for the scalar ``text`` tagged ``tag``, of the six
    kinds the builder makes. Any other tag ('<<' and '=' resolve to two) and a
    value its maker refuses raise _Refused. The values are immutable, so trees
    can share them."""
    maker = _MAKERS.get(tag)
    if maker is None:
        raise _Refused(f"could not determine a constructor for the tag {tag!r}")
    try:
        return maker(_CONSTRUCTOR, yaml.ScalarNode(tag, text))
    except _VALUE_ERRORS as exc:
        raise _Refused(f"invalid {tag} value: {exc}") from None


@_memo_short
def _plain_value(text: str):
    """What SafeLoader builds for the untagged plain scalar ``text``."""
    return _made(_RESOLVE(yaml.ScalarNode, text, (True, False)), text)


def _copy(node, depth: int, copied: int, limit: int):
    """A fresh copy of the tree ``node`` landing under ``depth`` open
    collections, and ``copied`` plus its nodes. The node past ``limit`` and a
    collection past MAX_DEPTH raise _Refused, so the work is at most ``limit``."""
    if copied == limit:
        raise _Refused(f"aliases expand past {limit} nodes")
    copied += 1
    kind = type(node)
    if kind is not dict and kind is not list:
        return node, copied
    if depth == MAX_DEPTH:
        raise _Refused(_TOO_DEEP)
    copy = dict.fromkeys(node) if kind is dict else [None] * len(node)
    for key, item in node.items() if kind is dict else enumerate(node):
        copy[key], copied = _copy(item, depth + 1, copied, limit)
    return copy, copied


def _built_documents(text: str) -> list:
    """The non-empty documents of ``text``, built from libyaml's events.

    A plain scalar is resolved and made as SafeLoader does, a tagged one is
    made by its tag, and any other scalar is its text; a collection may carry
    its own kind's tag. An anchor names its node within the document, and an
    alias is a fresh copy of a named node that is no longer open, so every
    document is a tree. Whatever the builder does not read raises a _NodeError
    at its own event, so the load stops there: a repeated or unhashable key, a
    tag or value it does not make (``!!set``, ``!!binary``, ``!!omap`` and
    ``!!pairs`` among them), an anchor named twice, an alias to no node or to
    one it is inside, a collection opening past MAX_DEPTH (a copy's where it
    lands), and the alias whose copy takes the nodes aliases copied past
    _COPIES_PER_CHAR per character of ``text``.
    """
    docs: list = []
    filling: list = []  # the open collections, innermost last
    keys: list = []  # for each: the key awaiting its value, or _NO_KEY
    anchors: dict = {}  # the nodes the document's anchors name
    copied, limit = 0, _COPIES_PER_CHAR * len(text)
    try:
        for event in yaml.parse(text, Loader=_LIBYAML):
            kind = type(event)
            if kind is _SCALAR:
                value = event.value
                if event.tag is not None and event.tag != "!":  # "!" reads as if untagged
                    value = {} if event.tag == _MAP_TAG and not value else _made(event.tag, value)
                elif event.implicit[0] and value[:1] in _RESOLVED_FIRST:
                    value = _plain_value(value)
            elif kind is _MAPPING_START or kind is _SEQUENCE_START:
                if len(filling) == MAX_DEPTH:
                    raise _NodeError(_TOO_DEEP, event)
                value = {} if kind is _MAPPING_START else []
                if event.tag is not None and event.tag not in _COLLECTION_TAGS[kind]:
                    problem = f"could not determine a constructor for the tag {event.tag!r}"
                    raise _NodeError(problem, event)
            elif kind is _MAPPING_END or kind is _SEQUENCE_END:
                filling.pop()
                keys.pop()
                continue
            elif kind is _ALIAS:
                if event.anchor not in anchors:
                    raise _NodeError(f"found undefined alias {event.anchor!r}", event)
                value = anchors[event.anchor]
                if any(value is node for node in filling):
                    raise _NodeError(f"alias {event.anchor!r} is inside the node it names", event)
                value, copied = _copy(value, len(filling), copied, limit)
                kind = _SCALAR  # a finished node, placed as a scalar is
            else:  # the stream's and documents' own events; an anchor names a node in its document
                if anchors:
                    anchors.clear()
                continue
            if not filling:
                if value is not None:
                    docs.append(value)
            elif type(parent := filling[-1]) is list:
                parent.append(value)
            elif keys[-1] is _NO_KEY:
                try:
                    if value in parent:
                        raise _NodeError(f"duplicate key {value!r}", event)
                except TypeError:  # a mapping or a list
                    raise _NodeError("unhashable mapping key", event) from None
                keys[-1] = value
            else:
                parent[keys[-1]] = value
                keys[-1] = _NO_KEY
            if kind is not _SCALAR:
                filling.append(value)
                keys.append(_NO_KEY)
            if event.anchor is not None and type(event) is not _ALIAS:
                if event.anchor in anchors:
                    raise _NodeError(f"found duplicate anchor {event.anchor!r}", event)
                anchors[event.anchor] = value
    except _Refused as exc:
        raise _NodeError(str(exc), event) from None
    return docs


# The line breaks YAML marks count, "\r\n" as one.
_LINE_BREAK = re.compile("\r\n|[\r\n\x85\u2028\u2029]")


def _one_line(exc: Exception, text: str) -> str:
    """A load error of ``text`` on one line: its problem, then its line and column
    (an error with no mark, as libyaml's UnicodeEncodeError, is its type and message)."""
    if isinstance(exc, yaml.reader.ReaderError):
        # libyaml gives the position in UTF-8 bytes. A reader stops at the first
        # character it forbids, so the character's first place in the text is it.
        position = text.find(chr(exc.character))
        line, start = 1, 0
        for brk in _LINE_BREAK.finditer(text, 0, position):
            line, start = line + 1, brk.end()
        problem = f"unacceptable character #x{exc.character:04x}: {exc.reason}"
        return f"{problem} at line {line}, column {position - start + 1}"
    mark = getattr(exc, "problem_mark", None)
    if mark is None:
        return f"{type(exc).__name__}: {exc}"
    return f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}"


# The contexts of errors decided once the line of their context mark is in the text.
_OPENED_ABOVE = ("while scanning a simple key", "while scanning a quoted scalar")
_DOCUMENT_MARKER = re.compile(r"^(?:---|\.\.\.|%)", re.MULTILINE)
_FIRST_CONTENT = re.compile(r"^[ \t]*[^\s#]", re.MULTILINE)


def _try_parse_mapping(text: str) -> tuple[dict | None, int]:
    """Parse ``text`` as a single-document mapping.

    Returns ``(mapping, 0)`` or ``(None, keep)``. Every text made of the
    first m lines of ``text``, for keep < m, fails too, because it holds
    all the lines that decided this failure:
    - a required simple key (a line of a block mapping at the mapping's
      indent) with no ':' on its line fails wherever the text ends, once
      that whole line is in it: keep is the line before the key's;
    - so does a quoted scalar that the loader read to the end of the text
      or to a document marker without closing it: a shorter text that holds
      the line the quote opened on, which the error marks, meets the same
      error or ends inside the quote;
    - any other scanner or parser error is found on the line of its mark,
      reading no further than the next line;
    - what the event builder refuses is decided by the lines up to the end
      of the event it refuses at and the next, as a shorter text that holds
      them yields the same events up to it: a repeated or unhashable key, a
      tag or value it does not make, an anchor named twice, an alias to no
      node or to one it is inside, a collection past MAX_DEPTH, and an alias
      whose copy spends the budget, which is smaller for a shorter text.
      The builder stops at the first of these, so one met before a later
      syntax error gives its own keep, which still bounds every longer prefix;
    - with no document marker or directive there is one document, and the
      first line with content decides whether its root is a mapping.
    Any other failure gives keep = all lines but the last.
    """
    last = text.count("\n")
    try:
        docs = _built_documents(text)
    except _NodeError as exc:
        return None, min(last, exc.end_line + 1)
    except yaml.MarkedYAMLError as exc:
        if exc.context in _OPENED_ABOVE and exc.context_mark is not None:
            return None, exc.context_mark.line
        mark = exc.problem_mark
        return None, last if mark is None else min(last, mark.line + 1)
    except _LOAD_ERRORS:
        return None, last
    if len(docs) == 1 and isinstance(docs[0], dict):
        return docs[0], 0
    if _DOCUMENT_MARKER.search(text):
        return None, last
    content = _FIRST_CONTENT.search(text)
    return None, min(last, text.count("\n", 0, content.start())) if content else 0


def _fenced_blocks(text: str) -> list[str]:
    """Bodies of triple-backtick fences in order of appearance.

    The opening fence may carry a language tag; an unterminated fence runs
    to the end of the text.
    """
    segments: list[list[str]] = [[]]  # fence bodies are the odd ones
    for line in text.splitlines():
        if line.strip().startswith("```"):
            segments.append([])
        else:
            segments[-1].append(line)
    return ["\n".join(body) for body in segments[1::2]]


# A mapping needs a ':', '{' or '?' indicator or a '!' tag ("!!map" alone
# is an empty mapping) on at least one of its lines. A tag starts a token,
# so a '!' counts when it begins the line or follows whitespace or a byte
# order mark.
_MAPPING_SIGNAL = re.compile(r"[:{?!](?<![^\s\ufeff]!)")
_NON_PRINTABLE = yaml.reader.Reader.NON_PRINTABLE
# A document's root opens on its first line that is not blank or only a
# comment; YAML's blanks are spaces and tabs alone, so "\u3000: v" is a
# key. That line can open a mapping only if it holds a key's ':', a '{'
# or '?', or a '!' tag or '&' anchor for a mapping on the lines below ('*'
# and '%' are kept to stay on the safe side), and only if it does not
# open a block sequence ("- x"; "-x: 1" is a key).
_BLANK_LINE = re.compile(r"[ \t]*(?:#|$)")
_MAPPING_OPENER = re.compile(r"[:{?!&*%]")
_BLOCK_ENTRY = re.compile(r"[ \t]*-(?:[ \t]|$)")
# A plain line opens no quote, flow collection, block scalar, tag, anchor,
# alias, comment or directive, so each of its tokens ends on it. A key
# colon is a ':' followed by a space or the end of the line.
_PLAIN_LINE = re.compile(r" *[A-Za-z0-9_][^'\"\[\]{}|>&*!%#?@`\t\ufeff]*")
_KEY_COLON = re.compile(r":(?: |$)")


def _largest_parsable_span(text: str, keep: int) -> tuple[str, dict] | None:
    """Largest contiguous run of lines that parses as a mapping root, and its tree.

    ``keep`` is what ``_try_parse_mapping(text)`` gave when ``text`` failed.
    The longest span wins; among equal lengths the earliest wins. Each
    start line is tried with the longest end that could still win, and the
    end only moves down, past every end that ``_try_parse_mapping`` shows
    must fail. Nothing is parsed for a span without a mapping signal or
    holding a character YAML forbids. With one document per span, which
    holds when no line of ``text`` is a document marker or a directive,
    two more rules bound each start by its first line with content, f:
    - nothing is parsed when f cannot open a mapping root, unless f is led
      by a byte order mark, which the loader skips;
    - when f is plain at column c, let L be the first later line with
      content left of c, or plain at c with no key colon or with f's key.
      If every line with content between f and L is plain, no span holding
      both parses: the root has ended and YAML would need '---', or L is a
      required simple key with no ':' on its line, or it repeats f's key
      in the root mapping.
    Columns are the loader's: it skips a byte order mark that leads a line
    as one column, so a line of only one and blanks or a comment is blank.
    Both are found for every start in one backward pass over the lines.
    """
    lines = text.splitlines()
    n = len(lines)
    # first_signal[i] / first_forbidden[i]: the first such line at or after i;
    # first_end[i]: the first end no span from i reaches, by the two rules for
    # one document. Lines split at "\r" and the other breaks too, so markers
    # are looked for line by line.
    first_signal = [n] * (n + 1)
    first_forbidden = [n] * (n + 1)
    first_end = [0] * (n + 1)
    one_document = True
    opens, bound = False, n  # of the first line with content at or after i
    lefts: list[tuple[int, int]] = []  # later lines with content, columns rising to the top
    # (column, key) -> the nearest later plain line there with that key, None for no key colon
    closers: dict[tuple[int, str | None], int] = {}
    barrier = n  # the nearest later line with content that is not plain
    for i in range(n - 1, -1, -1):
        line = lines[i]
        first_signal[i] = i if _MAPPING_SIGNAL.search(line) else first_signal[i + 1]
        first_forbidden[i] = i if _NON_PRINTABLE.search(line) else first_forbidden[i + 1]
        one_document = one_document and not _DOCUMENT_MARKER.match(line)
        body = line[1:] if line.startswith("\ufeff") else line
        if not _BLANK_LINE.match(body):
            column = len(line) - len(body.lstrip(" "))
            while lefts and lefts[-1][0] >= column:
                lefts.pop()
            left = lefts[-1][1] if lefts else n
            lefts.append((column, i))
            if _PLAIN_LINE.fullmatch(line):
                opens = ":" in line  # the one opener a plain line can hold
                colon = _KEY_COLON.search(line)
                key = line[column : colon.start()].rstrip(" ") if colon else None
                end = min(left, closers.get((column, None), n), closers.get((column, key), n))
                bound = end if end <= barrier else n
                closers[column, key] = i
            else:
                opens = line.startswith("\ufeff") or (
                    bool(_MAPPING_OPENER.search(line)) and not _BLOCK_ENTRY.match(line)
                )
                bound, barrier = n, i
        first_end[i] = min(first_forbidden[i], bound) if opens else i
    ends = first_end if one_document else first_forbidden
    if "\n".join(lines) == text:  # the whole text, already tried
        ends[0] = min(ends[0], keep)
    best = None
    best_len = 0
    for start in range(n):
        end = ends[start]
        while end - start > best_len and end > first_signal[start]:
            candidate = "\n".join(lines[start:end])
            tree, keep = _try_parse_mapping(candidate)
            if tree is not None:
                best, best_len = (candidate, tree), end - start
                break
            end = start + keep
    return best


def parse_config(text: str) -> ConfigDocument:
    """Parse extracted text strictly into a ConfigDocument."""
    try:
        docs = _built_documents(text)
    except _LOAD_ERRORS as exc:
        raise StructuralError(StructuralErrorKind.PARSE_FAILURE, _one_line(exc, text)) from exc
    if len(docs) > 1:
        raise StructuralError(
            StructuralErrorKind.MULTIPLE_DOCUMENTS_AMBIGUOUS,
            f"reply contains {len(docs)} YAML documents; expected exactly one",
        )
    if not docs:
        raise StructuralError(
            StructuralErrorKind.PARSE_FAILURE, "reply parses to an empty document"
        )
    root = docs[0]
    if not isinstance(root, dict):
        raise StructuralError(
            StructuralErrorKind.PARSE_FAILURE,
            f"configuration root must be a mapping, got {type(root).__name__}",
        )
    return ConfigDocument(root=root, source_text=text)


def preprocess_reply(raw: str) -> ConfigDocument:
    """Pull the YAML configuration out of a raw model reply.

    Preference order: the whole reply if it already parses as a mapping,
    then the first fenced block that does, then the largest contiguous
    line span that does. The document keeps the tree extraction parsed.
    A reply with no mapping signal holds no span that could be a mapping,
    so nothing of it is parsed.
    """
    if _MAPPING_SIGNAL.search(raw):
        tree, keep = _try_parse_mapping(raw)
        if tree is not None:
            return ConfigDocument(root=tree, source_text=raw)
        for block in _fenced_blocks(raw):
            tree, _ = _try_parse_mapping(block)
            if tree is not None:
                return ConfigDocument(root=tree, source_text=block)
        span = _largest_parsable_span(raw, keep)
        if span is not None:
            text, tree = span
            return ConfigDocument(root=tree, source_text=text)
    raise StructuralError(
        StructuralErrorKind.NO_YAML_FOUND,
        "no contiguous region of the reply parses as a YAML mapping",
    )


class InputError(ValueError):
    """A file or value the user supplied does not read or has the wrong shape."""


def read_text_file(path) -> str:
    """The UTF-8 text of ``path``; a file that does not read is an InputError naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def load_yaml_file(path):
    """The YAML tree in ``path``, a file path or a package resource, read as a reply is.

    An empty file reads as None. A file that does not read, does not load
    by the strict rule or holds more than one document raises an InputError
    with a message that names the file once.
    """
    if isinstance(path, str):
        path = Path(path)
    text = read_text_file(path)
    try:
        docs = _built_documents(text)
    except _LOAD_ERRORS as exc:
        raise InputError(f"{path}: not valid YAML: {_one_line(exc, text)}") from exc
    if len(docs) > 1:
        raise InputError(f"{path}: holds {len(docs)} YAML documents; expected one")
    return docs[0] if docs else None


_KIND_NOUNS = {int: "an integer", float: "a number", str: "a string"}
_BRACKETS = {dict: "{}", list: "[]"}  # what repr writes around each

QUOTE_BUDGET = 500  # room for a whole integer past a float's range (1e308 has 309 digits)


class _Spent(Exception):
    """The budget of ``quote`` is spent."""


def quote(value, budget: int = QUOTE_BUDGET) -> str:
    """``repr(value)``, cut to its first ``budget`` characters and "..." when longer.

    A value read from a long reply can be large, so the work is bounded by
    ``budget``, not by the value: containers are written only as far as the
    budget reaches, and text is cut before it is quoted.
    """
    out: list[str] = []
    size = 0

    def write(text: str) -> None:
        nonlocal size
        out.append(text)
        size += len(text)
        if size > budget:
            raise _Spent

    def walk(node) -> None:
        kind = type(node)
        brackets = _BRACKETS.get(kind)
        if brackets is None:
            if kind is str and len(node) > budget:
                # The last character makes repr pick the quote it picks for the whole text.
                last = "'" if "'" in node and '"' not in node else '"'
                node = node[: budget + 1] + last
            return write(repr(node))
        write(brackets[0])
        for index, item in enumerate(node.items() if kind is dict else node):
            write(", " if index else "")
            if kind is dict:
                walk(item[0])
                write(": ")
                item = item[1]
            walk(item)
        write(brackets[1])

    try:
        walk(value)
    except _Spent:
        return "".join(out)[:budget] + "..."
    return "".join(out)


def read_scalar(value, kind: type):
    """``value`` read as ``kind`` (str, int or float) by the one scalar rule, else None:
    - text is any scalar but null and a bool, so ``id: 12`` reads as "12";
    - an integer is an int, a whole float or an integer string, never a bool;
    - a number is finite, and never a bool;
    - a mapping or a list is never a scalar.
    """
    if type(value) is kind and kind is not float:
        return value
    if value is None or type(value) is bool or isinstance(value, (dict, list)):
        return None
    if kind is int and type(value) is float and not value.is_integer():
        return None
    try:
        read = kind(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return read if kind is not float or math.isfinite(read) else None


class Fields:
    """One mapping of an input file, read key by key: the package's one field reader.

    Scalars are read by ``read_scalar``. An error is an InputError naming the
    file once and then the key path (``cluster.yaml: nodes[0].cpu ...``);
    its text is built only on failure.
    """

    __slots__ = ("file", "raw", "prefix")

    def __init__(self, file, raw: Mapping, prefix: str = ""):
        self.file, self.raw, self.prefix = file, raw, prefix

    @classmethod
    def load(cls, path) -> Fields:
        """The top-level mapping of the YAML file ``path``; an empty file reads as {}."""
        tree = load_yaml_file(path)
        if not isinstance(tree, (dict, type(None))):
            raise InputError(
                f"{path}: the top level must be a YAML mapping, got {type(tree).__name__}"
            )
        return cls(path, tree or {})

    def _path(self, key: tuple) -> str:
        path = self.prefix
        for part in key:
            path += f"[{part}]" if type(part) is int else f".{part}" if path else str(part)
        return path

    def fail(self, problem: str, *key) -> InputError:
        """The error "<file>: <key path> <problem>"; ``key`` holds keys and list indexes."""
        return InputError(f"{self.file}: {self._path(key)} {problem}")

    def check(self, value, kind: type, *key):
        """``value``, found at ``key``, read as ``kind`` by ``read_scalar``."""
        read = read_scalar(value, kind)
        if read is None:
            raise self.fail(f"must be {_KIND_NOUNS[kind]}, got {quote(value)}", *key)
        return read

    def get(self, key, default):
        """``raw[key]`` read as the type of ``default``; ``default`` when unset or null."""
        value = self.raw.get(key)
        return default if value is None else self.check(value, type(default), key)

    def require(self, key, kind: type = str):
        """``raw[key]`` read as ``kind``; unset, null and blank text are errors."""
        value = self.raw.get(key)
        if value is not None:
            value = self.check(value, kind, key)
            if kind is not str or value.strip():
                return value
        raise self.fail("is required", key)

    def _mapping(self, value, *key) -> Fields:
        if not isinstance(value, dict):
            raise self.fail(f"must be a mapping, got {quote(value)}", *key)
        return Fields(self.file, value, self._path(key))

    def section(self, key) -> Fields:
        """The mapping at ``key``; an empty one when unset or null."""
        value = self.raw.get(key)
        return self._mapping({} if value is None else value, key)

    def each(self, key) -> list[Fields]:
        """The mappings of the non-empty list at ``key``, each under its index."""
        items = self.raw.get(key)
        if not isinstance(items, list) or not items:
            raise self.fail(f"must be a non-empty list, got {quote(items)}", key)
        return [self._mapping(item, key, index) for index, item in enumerate(items)]

    def build(self, make, *args, **kwargs):
        """``make(*args, **kwargs)``; a ValueError it raises is an error naming this mapping."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            where = f"{self.prefix}: " if self.prefix else ""
            raise InputError(f"{self.file}: {where}{exc}") from exc

    def fields_of(self, defaults):
        """``defaults``, a dataclass, with each field this mapping sets."""
        values = {f.name: self.get(f.name, getattr(defaults, f.name)) for f in fields(defaults)}
        return self.build(replace, defaults, **values)


# serialize_config writes block YAML itself where it can vouch for PyYAML's bytes: a dict
# or list root, keys PyYAML writes as simple keys (under 128 characters with the "!!str"
# tag) and leaves it writes plain.
# A plain leaf reads back as its own type by the Resolver and keeps to a conservative
# character set without line breaks: no leading indicator, space or document marker, no
# ": ", " #" or trailing ":" or space, and no space past column 80, where PyYAML folds.
_PLAIN = re.compile(
    r"(?!---|\.\.\.|[-?:](?: |\Z)|[ #,\[\]{}&*!|>'\"%@`])"
    r"(?:(?!: |:\Z| #| \Z)[\x20-\x7e\xa0-\u2027\u202a-\ud7ff\ue000-\ufefe\uff00-\ufffd])+"
)
_REPRESENTER = yaml.representer.SafeRepresenter()


def _plain_text(text: str, tag: str = "tag:yaml.org,2002:str") -> str | None:
    """``text`` if safe_dump writes it plain for a scalar tagged ``tag``, or None."""
    plain = _PLAIN.fullmatch(text) and _RESOLVE(yaml.ScalarNode, text, (True, False)) == tag
    return text if plain else None


# Whether a string is written plain depends on the string alone; where it
# lands, for the fold at column 80, is checked by the caller. Each attempt's
# alignment check writes the chain's keys again, so the answer is kept.
_plain_str = _memo_short(_plain_text)


def _plain(value) -> str | None:
    """The text safe_dump writes plain for the scalar ``value``, or None."""
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    if kind is str:
        return _plain_str(value)
    if kind is float:
        node = _REPRESENTER.represent_float(value)
        return _plain_text(node.value, node.tag)
    return None


def _write_block(node, indent: int, inline: bool, out: list) -> bool:
    """Append the dict or list ``node`` to ``out`` at ``indent``, its first entry on
    the current line if ``inline``; False where safe_dump could write it otherwise."""
    pad = "" if inline else " " * indent
    is_mapping = type(node) is dict
    for entry in node:
        if is_mapping:
            if type(entry) is not str or len(entry) > 122 or _plain(entry) is None:
                return False
            value, column = node[entry], indent + len(entry) + 2
            out.append(f"{pad}{entry}:")
        else:
            value, column = entry, indent + 2
            out.append(f"{pad}-")
        pad = " " * indent
        kind = type(value)
        if kind is dict or kind is list:
            if value:  # under a key on the next line, a list not indented; under "-" inline
                inner = indent if is_mapping and kind is list else indent + 2
                out.append("\n" if is_mapping else " ")
                if not _write_block(value, inner, not is_mapping, out):
                    return False
                continue
            text = "{}" if kind is dict else "[]"
        else:
            text = _plain(value)
            if text is None or (" " in text and column + text.rfind(" ") > 80):
                return False
        out.append(f" {text}\n")
    return True


def serialize_config(document: ConfigDocument | dict) -> str:
    """Canonical YAML form of a tree, as the loader builds: ``yaml.safe_dump`` in
    block style, two-space indent, key order preserved and non-ASCII text
    written as it is."""
    tree = document.root if isinstance(document, ConfigDocument) else document
    out: list[str] = []
    if type(tree) in (dict, list) and _write_block(tree, 0, False, out):
        return "".join(out) or ("{}\n" if type(tree) is dict else "[]\n")
    options = dict(default_flow_style=False, indent=2, sort_keys=False, allow_unicode=True)
    return yaml.safe_dump(tree, **options)
