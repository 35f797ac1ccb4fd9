"""Extract and normalize YAML configuration from raw model output.

Model replies arrive as anything from clean YAML to prose-wrapped,
fence-wrapped, or truncated text. This module finds the configuration,
parses it strictly (duplicate keys are an error, the root must be a
mapping), and re-serializes it into one canonical form so downstream
diffing and deployment always see identical bytes for identical trees.

Parsing runs on libyaml when PyYAML was built with it. Text that libyaml
reads differently from PyYAML's own scanner, and every error report, goes
through the pure-Python loader, so results and messages are the same
either way. Input files are read by the same strict rule as replies:
``load_yaml_file`` is the one reader of the package's YAML files and
``read_text_file`` of its other text files, and whatever is wrong with a
file, a duplicate key included, the error is an InputError whose message
names the file once. ``Fields`` then reads every value in those files by
one typed rule, and names the key of a value that does not read.
``dump_yaml`` gives the rest of the package safe_dump on libyaml where it
writes the same bytes.
"""

from __future__ import annotations

import enum
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

    def __init__(
        self,
        kind: StructuralErrorKind,
        detail: str,
        line: int | None = None,
        column: int | None = None,
    ):
        super().__init__(f"{kind.value}: {detail}")
        self.kind = kind
        self.detail = detail
        self.line = line
        self.column = column


@dataclass(frozen=True)
class ConfigDocument:
    """A parsed configuration: the mapping tree plus the text it came from."""

    root: dict
    source_text: str = ""


class _NodeError(yaml.constructor.ConstructorError):
    """A constructor failure at one node, with the 0-based line the node ends on."""

    def __init__(self, problem: str, node):
        super().__init__(None, None, problem, node.start_mark)
        self.end_line = node.end_mark.line


class _KeyClash(_NodeError):
    """A repeated or unhashable mapping key."""


# Well-formed YAML can still name values no constructor can build, and
# PyYAML's constructors then raise plain exceptions: ValueError for
# "2024-02-30" or "!!int abc", KeyError for "!!bool maybe", IndexError for
# an empty "!!int", AttributeError for "!!timestamp x", TypeError for
# "!!map" over a sequence.
_VALUE_ERRORS = (ValueError, TypeError, LookupError, AttributeError)


class _ValueErrorsAtNodes:
    """Loader mixin: a constructor that fails on a node's value raises _NodeError."""

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep=deep)
        except _VALUE_ERRORS as exc:
            raise _NodeError(f"invalid {node.tag} value: {exc}", node) from exc


class _PyUniqueKeyLoader(_ValueErrorsAtNodes, yaml.SafeLoader):
    """Pure-Python SafeLoader that rejects duplicate mapping keys instead of last-wins."""


_C_SAFE_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class _UniqueKeyLoader(_ValueErrorsAtNodes, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The same loader on libyaml, when PyYAML was built with it."""


def _construct_mapping(loader, node, deep=False):
    mapping = {}
    for key_node, value_node in node.value:
        key = loader.construct_object(key_node, deep=deep)
        if isinstance(key, (dict, list)):
            raise _KeyClash("unhashable mapping key", key_node)
        if key in mapping:
            raise _KeyClash(f"duplicate key {key!r}", key_node)
        mapping[key] = loader.construct_object(value_node, deep=deep)
    return mapping


for _loader in (_PyUniqueKeyLoader, _UniqueKeyLoader):
    _loader.add_constructor(yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_mapping)

# What loading can raise besides a YAMLError: RecursionError for nesting
# deeper than the interpreter allows, UnicodeEncodeError from libyaml for a
# lone surrogate, and the value errors above when they come from the part
# of a collection constructor that runs after its node returned.
_NON_YAML_ERRORS = (*_VALUE_ERRORS, RecursionError)
_LOAD_ERRORS = (yaml.YAMLError, *_NON_YAML_ERRORS)

# Where libyaml and PyYAML's scanner disagree, found by comparing the two
# on generated text. libyaml accepts tabs PyYAML rejects, skips a byte
# order mark at the start of any line, rejects %-directives PyYAML
# accepts, reads an empty node tagged "!" as '' where PyYAML reads None,
# lets a block scalar header run into a comment ("|#"), rejects a ':'
# followed by a flow indicator ("{a:}"), decodes %-escapes in tags
# differently, and lets a plain scalar inside a flow collection hold a '?'.
# Every branch opens with a literal, so the regex engine skips ahead to
# those characters instead of trying each branch at every position.
_LIBYAML_DIFFERS = re.compile(
    r"\t|\ufeff|%(?<![^\n]%)|!(?<![^\s\[{,:?-]!)(?=[\s,\[\]{}]|$)|!(?=\S*%)"
    r"|\|(?=[-+\d]*#)|>(?=[-+\d]*#)|:(?=[,\[\]{}])",
    re.MULTILINE,
)
# libyaml's composer recurses on the C stack once per nesting level, and
# every level opens with one of these characters. 1000 levels fit in a
# 512 KiB thread stack.
_NESTING_CHARS = "[{-?:"
_MAX_LIBYAML_NESTING = 1000


def _libyaml_reads_alike(text: str) -> bool:
    """Whether libyaml scans and parses ``text`` as PyYAML's own scanner does."""
    return not (
        _LIBYAML_DIFFERS.search(text)
        or ("?" in text and ("[" in text or "{" in text))
        or sum(map(text.count, _NESTING_CHARS)) > _MAX_LIBYAML_NESTING
    )


def _load_documents(text: str, loader) -> list:
    """The non-empty documents of ``text``; raises what the loader raises."""
    return [d for d in yaml.load_all(text, Loader=loader) if d is not None]


def _load_strict(text: str) -> list:
    """The non-empty documents of ``text``, loaded strictly.

    libyaml words and places its errors differently, so every failure is
    re-run on the pure-Python loader, which decides it and raises its own
    error: results and messages read the same with or without libyaml.
    """
    if _libyaml_reads_alike(text):
        try:
            return _load_documents(text, _UniqueKeyLoader)
        except _LOAD_ERRORS:
            pass
    return _load_documents(text, _PyUniqueKeyLoader)


def _mark_position(exc: yaml.YAMLError) -> tuple[int | None, int | None]:
    mark = getattr(exc, "problem_mark", None)
    if mark is None:
        return None, None
    return mark.line + 1, mark.column + 1


_DOCUMENT_MARKER = re.compile(r"^(?:---|\.\.\.|%)", re.MULTILINE)
_FIRST_CONTENT = re.compile(r"^[ \t]*[^\s#]", re.MULTILINE)


def _try_parse_mapping(text: str) -> tuple[dict | None, int]:
    """Parse ``text`` as a single-document mapping.

    Returns ``(mapping, 0)`` or ``(None, keep)``. Every text made of the
    first m lines of ``text``, for keep < m, fails too, because it holds
    all the lines that decided this failure:
    - a scanner, parser or composer error is found on the line of its mark,
      reading no further than the next line;
    - a value no constructor can build is decided by the lines up to the
      end of its node and the next, and so is a key clash, unless an alias
      ('*') brought the key node back from earlier;
    - with no document marker or directive there is one document, and the
      first line with content decides whether its root is a mapping.
    Any other failure gives keep = all lines but the last.
    """
    last = text.count("\n")
    try:
        loader = _UniqueKeyLoader if _libyaml_reads_alike(text) else _PyUniqueKeyLoader
        docs = _load_documents(text, loader)
    except _NodeError as exc:
        if isinstance(exc, _KeyClash) and "*" in text:
            return None, last
        return None, min(last, exc.end_line + 1)
    except yaml.constructor.ConstructorError:  # its mark need not bound what it read
        return None, last
    except yaml.MarkedYAMLError as exc:
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
    blocks = []
    lines = text.splitlines()
    body: list[str] | None = None
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("```"):
            if body is None:
                body = []
            else:
                blocks.append("\n".join(body))
                body = None
            continue
        if body is not None:
            body.append(line)
    if body is not None:
        blocks.append("\n".join(body))
    return blocks


# A mapping needs a ':', '{' or '?' indicator or a '!' tag ("!!map" alone
# is an empty mapping) on at least one of its lines. A tag starts a token,
# so a '!' counts when it begins the line or follows whitespace or a byte
# order mark.
_MAPPING_SIGNAL = re.compile(r"[:{?!](?<![^\s\ufeff]!)")
_NON_PRINTABLE = yaml.reader.Reader.NON_PRINTABLE


def _largest_parsable_span(text: str) -> tuple[str, dict] | None:
    """Largest contiguous run of lines that parses as a mapping root, and its tree.

    The longest span wins; among equal lengths the earliest wins. Each
    start line is tried with the longest end that could still win, and the
    end only moves down, past every end that ``_try_parse_mapping`` shows
    must fail. Spans without a mapping signal, or holding a character YAML
    forbids, are never parsed.
    """
    lines = text.splitlines()
    n = len(lines)
    # first_signal[i] / first_forbidden[i]: the first such line at or after i.
    first_signal = [n] * (n + 1)
    first_forbidden = [n] * (n + 1)
    for i in range(n - 1, -1, -1):
        first_signal[i] = i if _MAPPING_SIGNAL.search(lines[i]) else first_signal[i + 1]
        forbidden = _NON_PRINTABLE.search(lines[i])
        first_forbidden[i] = i if forbidden else first_forbidden[i + 1]
    best = None
    best_len = 0
    for start in range(n):
        end = first_forbidden[start]
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
        docs = _load_strict(text)
    except yaml.YAMLError as exc:
        line, column = _mark_position(exc)
        raise StructuralError(
            StructuralErrorKind.PARSE_FAILURE, str(exc), line=line, column=column
        ) from exc
    except _NON_YAML_ERRORS as exc:
        raise StructuralError(
            StructuralErrorKind.PARSE_FAILURE, f"{type(exc).__name__}: {exc}"
        ) from exc
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
    """
    tree, _ = _try_parse_mapping(raw)
    if tree is not None:
        return ConfigDocument(root=tree, source_text=raw)
    for block in _fenced_blocks(raw):
        tree, _ = _try_parse_mapping(block)
        if tree is not None:
            return ConfigDocument(root=tree, source_text=block)
    span = _largest_parsable_span(raw)
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
        docs = _load_strict(text)
    except _LOAD_ERRORS as exc:
        raise InputError(f"{path}: not valid YAML: {exc}") from exc
    if len(docs) > 1:
        raise InputError(f"{path}: holds {len(docs)} YAML documents; expected one")
    return docs[0] if docs else None


_KIND_NOUNS = {int: "an integer", float: "a number", str: "a string"}
_CONTAINERS = (dict, list, tuple, set)


def read_scalar(value, kind: type):
    """``value`` read as ``kind`` (str, int or float) by the one scalar rule, else None:
    - text is any scalar but null and a bool, so ``id: 12`` reads as "12";
    - an integer is an int, a whole float or an integer string, never a bool;
    - a number is finite, and never a bool;
    - a mapping or a list is never a scalar.
    """
    if type(value) is kind and kind is not float:
        return value
    if value is None or type(value) is bool or isinstance(value, _CONTAINERS):
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
            raise self.fail(f"must be {_KIND_NOUNS[kind]}, got {value!r}", *key)
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
            raise self.fail(f"must be a mapping, got {value!r}", *key)
        return Fields(self.file, value, self._path(key))

    def section(self, key) -> Fields:
        """The mapping at ``key``; an empty one when unset or null."""
        value = self.raw.get(key)
        return self._mapping({} if value is None else value, key)

    def each(self, key) -> list[Fields]:
        """The mappings of the non-empty list at ``key``, each under its index."""
        items = self.raw.get(key)
        if not isinstance(items, list) or not items:
            raise self.fail(f"must be a non-empty list, got {items!r}", key)
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


# Where the two emitters write the same tree differently, found by comparing
# them on generated trees. Any character outside these sets can make a
# scalar double-quoted, and the emitters fold long double-quoted scalars
# differently; libyaml also escapes characters past U+FFFF that PyYAML
# prints, and raises UnicodeEncodeError on a lone surrogate. PyYAML writes
# a key as a simple key while its text and its tag ("!!str") stay under 128
# characters, libyaml while its UTF-8 bytes are at most 128 (it writes
# an empty key as a simple key too), so a key of 1 to 122 bytes is simple
# for both. A root scalar gets a "..." line from PyYAML only.
_UNPRINTED = {
    True: re.compile(r"[^\x20-\x7e\xa0-\ud7ff\ue000-\ufefe\uff00-\ufffd]"),
    False: re.compile(r"[^\x20-\x7e]"),
}
_MAX_SIMPLE_KEY_BYTES = 122
_PLAIN_SCALARS = (int, float, bool, type(None))


def _libyaml_emits_alike(tree, allow_unicode) -> bool:
    """Whether CSafeDumper writes ``tree`` byte for byte as SafeDumper does.

    One walk over the tree, each container once (a repeated one is written
    as an alias by both). Leaves must be strings or plain scalars: a set,
    for one, turns its members into keys.
    """
    unprinted = _UNPRINTED[bool(allow_unicode)]
    if type(tree) not in (dict, list):
        return False
    seen = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is str:
            if unprinted.search(node):
                return False
        elif kind is dict or kind is list:
            if id(node) in seen:
                continue
            seen.add(id(node))
            if kind is list:
                stack.extend(node)
                continue
            for key in node:
                if (
                    type(key) is not str
                    or not key
                    or unprinted.search(key)
                    or len(key.encode()) > _MAX_SIMPLE_KEY_BYTES
                ):
                    return False
            stack.extend(node.values())
        elif kind not in _PLAIN_SCALARS:
            return False
    return True


def dump_yaml(tree, **options) -> str:
    """``yaml.safe_dump(tree, **options)``, on libyaml when it writes the tree the same."""
    alike = _libyaml_emits_alike(tree, options.get("allow_unicode"))
    return yaml.dump(tree, Dumper=_C_SAFE_DUMPER if alike else yaml.SafeDumper, **options)


def serialize_config(document: ConfigDocument | dict) -> str:
    """Canonical YAML form: block style, two-space indent, key order preserved."""
    root = document.root if isinstance(document, ConfigDocument) else document
    return dump_yaml(
        root,
        default_flow_style=False,
        indent=2,
        sort_keys=False,
        allow_unicode=True,
    )
