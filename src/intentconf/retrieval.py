"""Documentation chunking and lexical retrieval.

Long reference material (cluster specs, application manuals) is split into
overlapping token-window chunks and indexed with a BM25 scorer so that only
the relevant slices are stuffed into a generation prompt.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

from .preprocess import InputError, read_text_file

DEFAULT_CHUNK_SIZE = 5000
DEFAULT_OVERLAP = 500
DEFAULT_TOP_K = 4

# BM25 constants; idf uses the always-positive log(1 + ...) variant so that
# extra occurrences of a query term can never lower a chunk's score.
BM25_K1 = 1.2
BM25_B = 0.75

_TOKEN_RE = re.compile(r"\w+|[^\w\s]+")

# count_tokens reads text in slices of this many characters, so what it
# allocates is bounded by the slice, not by the text.
_SLICE = 1 << 14


def _token_class(char: str) -> int:
    """The run ``char`` belongs to under ``_TOKEN_RE``, as a class bit: 1
    for ``\\w`` (``isalnum`` or "_"), 2 for the rest, and none for ``\\s``
    (``isspace``)."""
    if char.isspace():
        return 0
    return 1 if char.isalnum() or char == "_" else 2


# Each ASCII byte -> its token class. Each term byte ([a-z0-9]) -> itself,
# every other byte -> a space.
_CLASS_TABLE = bytes(_token_class(chr(byte)) for byte in range(256))
_TERM_TABLE = bytes(
    byte if chr(byte) in "abcdefghijklmnopqrstuvwxyz0123456789" else ord(" ")
    for byte in range(256)
)


def count_tokens(text: str) -> int:
    """Approximate token count: word runs plus standalone punctuation runs.

    "replicas: 2" counts as 3 (word, ":", word). The approximation is
    deterministic and monotone under concatenation; every token budget in
    this package (chunk windows, mock usage stats, cost records) uses it.

    It equals ``len(_TOKEN_RE.findall(text))``. Every character is in
    exactly one of the classes of ``_token_class``, and a token is a maximal
    run of one class other than ``\\s``; so the count is the number of
    characters that start such a run. The text is read in slices of
    ``_SLICE`` characters, each counted as if it stood alone:

    - An ASCII slice is mapped byte by byte through ``_CLASS_TABLE`` and
      read as one little-endian integer, ``runs``: byte i holds the class
      bit of character i, and no bit for ``\\s``. In ``runs << 8``, byte i
      holds the class of character i-1 (none for the first), so
      ``runs & (runs << 8)`` keeps the bit of each character that continues
      a run; every other bit starts one.
    - Any other slice counts its ``split`` pieces. ``split`` and ``\\s``
      test whitespace alike, so no token spans two pieces, and a piece that
      is all ``isalnum`` is one token; only the other pieces are matched.

    A run that crosses a cut is counted once on each side of it, which is
    when the characters on both sides are of one class other than ``\\s``;
    one is taken back for each such cut.
    """
    count = 0
    for cut in range(0, len(text), _SLICE):
        part = text[cut : cut + _SLICE]
        if part.isascii():
            runs = int.from_bytes(part.encode("ascii").translate(_CLASS_TABLE), "little")
            count += runs.bit_count() - (runs & (runs << 8)).bit_count()
        else:
            pieces = part.split()
            count += len(pieces)
            for piece in pieces:
                if not piece.isalnum():
                    count += len(_TOKEN_RE.findall(piece)) - 1
        if cut and _token_class(text[cut - 1]) == _token_class(text[cut]) != 0:
            count -= 1
    return count


@dataclass(frozen=True)
class Chunk:
    """One token-window slice of a source document.

    ``token_span`` is the window's [start, end) on the document's token
    axis, so its width is the token count of ``text``.
    """

    doc_id: str
    ordinal: int
    token_span: tuple[int, int]
    text: str


def chunk_document(
    doc: str,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    overlap: int = DEFAULT_OVERLAP,
    doc_id: str = "",
) -> list[Chunk]:
    """Split ``doc`` into windows of ``chunk_size`` tokens with ``overlap``.

    Window i covers tokens [i*stride, i*stride + chunk_size) where
    stride = chunk_size - overlap, clipped to the document end; windows are
    emitted until every token is covered. A window's text runs from its
    first token's start to its last token's end. Every character that is
    not whitespace is in a token, so the stripped document gives the outer
    edges, and only the interior edges are found by walking the tokens.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if overlap < 0 or overlap >= chunk_size:
        raise ValueError(f"overlap must satisfy 0 <= overlap < chunk_size, got {overlap}")
    total = count_tokens(doc)
    if total == 0:
        return []
    # Window i starts at i*stride, and exists while window i-1 stops short
    # of the end: (i-1)*stride + chunk_size < total.
    starts = range(0, max(total - overlap, 1), chunk_size - overlap)
    ends = [min(start + chunk_size, total) for start in starts]
    # offsets[n]: the end of the first n tokens, up to whitespace strip() trims.
    offsets = {0: 0, total: len(doc)}
    tokens = _TOKEN_RE.finditer(doc)
    walked = 0
    for edge in sorted({*starts[1:], *ends[:-1]}):
        offsets[edge] = next(islice(tokens, edge - walked - 1, None)).end()
        walked = edge
    return [
        Chunk(doc_id, ordinal, (start, end), doc[offsets[start] : offsets[end]].strip())
        for ordinal, (start, end) in enumerate(zip(starts, ends))
    ]


def _terms(text: str) -> list[str]:
    """The runs of ``[a-z0-9]`` in ``text.lower()``. Every character that is
    not ASCII becomes one "?", which, like every byte but a term byte, is
    mapped to a space."""
    return text.lower().encode("ascii", "replace").translate(_TERM_TABLE).decode("ascii").split()


@dataclass(frozen=True)
class RetrievalIndex:
    """Immutable BM25 index over document chunks.

    ``postings`` maps each term to a (position, frequency) pair for each
    chunk that holds it, in ascending position order; a term's document
    frequency is the length of its posting list. ``length_norms`` holds each
    chunk's length normalisation, the part of a BM25 denominator that does
    not depend on the term.
    """

    chunks: tuple[Chunk, ...]
    postings: dict[str, list[tuple[int, int]]] = field(repr=False)
    length_norms: tuple[float, ...]


def build_index(
    docs: list[tuple[str, str]],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    overlap: int = DEFAULT_OVERLAP,
) -> RetrievalIndex:
    """Chunk every (doc_id, text) pair and build the retrieval index."""
    if not docs:
        raise ValueError("build_index requires at least one document")
    chunks: list[Chunk] = []
    for doc_id, text in docs:
        chunks.extend(chunk_document(text, chunk_size, overlap, doc_id=doc_id))
    postings: defaultdict[str, list[tuple[int, int]]] = defaultdict(list)
    lengths = []
    for position, chunk in enumerate(chunks):
        terms = _terms(chunk.text)
        for term, freq in Counter(terms).items():
            postings[term].append((position, freq))
        lengths.append(len(terms))
    avg = sum(lengths) / len(lengths) if any(lengths) else 1.0
    return RetrievalIndex(
        chunks=tuple(chunks),
        postings=dict(postings),
        length_norms=tuple(
            BM25_K1 * (1.0 - BM25_B + BM25_B * length / avg) for length in lengths
        ),
    )


def load_corpus(root: Path | str) -> list[tuple[str, str]]:
    """Read every *.md / *.txt file under ``root``; the file path is the doc id.

    A ``root`` that is not a directory, or a file that does not read as
    UTF-8 text, is an InputError naming it.
    """
    root = Path(root)
    if not root.is_dir():
        raise InputError(f"{root}: not a directory")
    docs = []
    for path in sorted(root.rglob("*")):
        if path.suffix.lower() in (".md", ".txt") and path.is_file():
            docs.append((str(path.relative_to(root)), read_text_file(path)))
    return docs


def retrieve(index: RetrievalIndex, query: str, k: int = DEFAULT_TOP_K) -> list[Chunk]:
    """Return the top-k chunks for ``query`` by BM25 score.

    Only the chunks on a query term's posting list are scored. Each chunk's
    score adds the terms' contributions in sorted term order, starting from
    0.0, so it is the same float that scoring every chunk term by term
    gives. Every contribution is positive, so the chunks that hold no query
    term are exactly the zero scores; they fill the tail. Ties are broken
    by (doc_id, ordinal) ascending, then by index position; fewer than k
    chunks are returned only when the index holds fewer.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    chunks = index.chunks
    n = len(chunks)
    norms = index.length_norms
    scores: dict[int, float] = {}
    for term in sorted(set(_terms(query))):
        postings = index.postings.get(term)
        if postings is None:
            continue
        df = len(postings)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for position, freq in postings:
            scores[position] = (
                scores.get(position, 0.0) + idf * freq * (BM25_K1 + 1.0) / (freq + norms[position])
            )
    ranked = sorted(
        scores,
        key=lambda i: (-scores[i], chunks[i].doc_id, chunks[i].ordinal, i),
    )[:k]
    if len(ranked) < k:
        unscored = (i for i in range(n) if i not in scores)
        ranked += sorted(unscored, key=lambda i: (chunks[i].doc_id, chunks[i].ordinal, i))[
            : k - len(ranked)
        ]
    return [chunks[i] for i in ranked]
