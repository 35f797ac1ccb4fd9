"""Token counting, chunking, and lexical retrieval."""

import math
import random
import re
import sys
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intentconf import retrieval
from intentconf.preprocess import InputError
from intentconf.retrieval import (
    BM25_B,
    BM25_K1,
    Chunk,
    _terms,
    build_index,
    chunk_document,
    count_tokens,
    load_corpus,
    retrieve,
)


def naive_chunk_spans(total_tokens: int, chunk_size: int, overlap: int) -> list[tuple[int, int]]:
    """Independent oracle: walk the token axis window by window."""
    if total_tokens == 0:
        return []
    spans = []
    stride = chunk_size - overlap
    start = 0
    while True:
        end = min(start + chunk_size, total_tokens)
        spans.append((start, end))
        if end >= total_tokens:
            return spans
        start += stride


def make_doc(tokens: int) -> str:
    return " ".join(f"w{i}" for i in range(tokens))


ORACLE_TOKEN_RE = re.compile(r"\w+|[^\w\s]+")


def oracle_count_tokens(text: str) -> int:
    """The count as it was first written: every token matched in one pass."""
    return len(ORACLE_TOKEN_RE.findall(text))


def oracle_chunk_document(doc: str, chunk_size: int, overlap: int, doc_id: str = "") -> list[Chunk]:
    """The chunker as it was first written: the span of every token, then
    each window cut from its first token's start to its last token's end."""
    spans = [m.span() for m in ORACLE_TOKEN_RE.finditer(doc)]
    total = len(spans)
    if total == 0:
        return []
    stride = chunk_size - overlap
    chunks = []
    start = 0
    ordinal = 0
    while True:
        end = min(start + chunk_size, total)
        text = doc[spans[start][0] : spans[end - 1][1]]
        chunks.append(Chunk(doc_id=doc_id, ordinal=ordinal, token_span=(start, end), text=text))
        if end >= total:
            return chunks
        start += stride
        ordinal += 1


# Characters where a split-based count could part from the regex: every kind
# of whitespace str.split and \s know (ASCII, the \x1c-\x1f separators, NEL,
# NBSP, ogham space, U+2000, U+2028/9, U+3000); "_", a word character that is
# not isalnum; digits of each kind ("²" digit, "½" numeric, "٣" Arabic-Indic
# decimal); then combining marks, a zero-width space (not whitespace),
# punctuation runs, CJK, an emoji and a control character.
SPACES = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u3000"
TOKEN_ALPHABET = SPACES + "aZ9_²½٣ǅ\u0301\u0300\u200b:-.,!{}漢字🙂\x00"
token_text = st.text(alphabet=TOKEN_ALPHABET, max_size=60)
# Every ASCII code point; TOKEN_ALPHABET is mostly not ASCII, so its texts
# almost never reach the byte-table path.
ascii_text = st.text(alphabet=st.characters(max_codepoint=127), max_size=80)

SLICE = retrieval._SLICE


class TestCountTokens:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_word_punct_word(self):
        # "replicas" + ":" + "2"
        assert count_tokens("replicas: 2") == 3

    def test_additive_on_clean_words(self):
        a, b = "alpha beta", "gamma delta epsilon"
        assert count_tokens(a + " " + b) == count_tokens(a) + count_tokens(b)

    def test_monotone_under_concatenation(self):
        rng = random.Random(7)
        pieces = ["foo bar: baz", "x=1, y=2", "plain words only", "?!", "a\nb\nc"]
        for _ in range(50):
            a = rng.choice(pieces)
            b = rng.choice(pieces)
            assert count_tokens(a + b) >= max(count_tokens(a), count_tokens(b))

    def test_punctuation_runs_count_once(self):
        assert count_tokens("a ::: b") == 3

    @settings(max_examples=1000, deadline=None)
    @given(text=token_text)
    @example(text="a_b² ½٣\x1cc\x85d\xa0e\u2028f\u3000g")
    @example(text="e\u0301 \u0301\u0301 __ ::x:: 漢字,漢")
    def test_equals_one_regex_pass(self, text):
        assert count_tokens(text) == oracle_count_tokens(text)

    @settings(max_examples=500, deadline=None)
    @given(text=st.text())
    def test_equals_one_regex_pass_on_any_text(self, text):
        assert count_tokens(text) == oracle_count_tokens(text)

    @settings(max_examples=1000, deadline=None)
    @given(text=ascii_text)
    @example(text="\x1c\x1d\x1e\x1fa_1\x00\x7f b\x0b\x0c:.\t")
    # Longer than a slice: a word run, a punctuation run, whitespace, and
    # two classes that meet, each across a cut.
    @example(text=" " * (SLICE - 3) + "abc_def9 x")
    @example(text="a " * (SLICE // 2 - 1) + " ::::: y" + "." * SLICE)
    @example(text="a" + " " * (2 * SLICE) + "b")
    @example(text="w" * SLICE + ":" * SLICE + "\x1f" * SLICE + "_")
    def test_equals_one_regex_pass_on_ascii_text(self, text):
        assert count_tokens(text) == oracle_count_tokens(text)

    @settings(max_examples=500, deadline=None)
    @given(text=st.one_of(ascii_text, token_text), slice_size=st.integers(1, 9))
    def test_slice_cuts_count_each_run_once(self, text, slice_size):
        with mock.patch.object(retrieval, "_SLICE", slice_size):
            assert count_tokens(text) == oracle_count_tokens(text)

    def test_one_slice_not_ascii_among_ascii_ones(self):
        # Only the middle slice holds "é"; a word run crosses its first cut
        # and a punctuation run its second.
        first = ("x_y: 500m, " * SLICE)[: SLICE - 2] + "ab"
        middle = ("cd, é " + "dask: 1Gi, " * SLICE)[: SLICE - 2] + "::"
        text = first + middle + ":: worker 2," * 100
        assert text[SLICE - 1 : SLICE + 1] == "bc" and text[2 * SLICE - 1 : 2 * SLICE + 1] == "::"
        slices = [text[cut : cut + SLICE] for cut in (0, SLICE, 2 * SLICE)]
        assert [part.isascii() for part in slices] == [True, False, True]
        assert count_tokens(text) == oracle_count_tokens(text)


class TestChunkDocument:
    def test_single_chunk_exact_fit(self):
        chunks = chunk_document(make_doc(5000), 5000, 500)
        assert [c.token_span for c in chunks] == [(0, 5000)]

    def test_two_chunks(self):
        chunks = chunk_document(make_doc(9500), 5000, 500)
        assert [c.token_span for c in chunks] == [(0, 5000), (4500, 9500)]

    def test_three_chunks(self):
        chunks = chunk_document(make_doc(14000), 5000, 500)
        assert [c.token_span[0] for c in chunks] == [0, 4500, 9000]
        assert chunks[-1].token_span == (9000, 14000)

    def test_matches_naive_oracle_on_random_lengths(self):
        rng = random.Random(2024)
        for _ in range(40):
            total = rng.randrange(1, 12000)
            size = rng.randrange(2, 400)
            overlap = rng.randrange(0, size)
            doc = make_doc(total)
            got = [c.token_span for c in chunk_document(doc, size, overlap)]
            assert got == naive_chunk_spans(total, size, overlap)

    def test_coverage_and_overlap(self):
        chunks = chunk_document(make_doc(14000), 5000, 500)
        # full coverage without gaps
        assert chunks[0].token_span[0] == 0
        for prev, cur in zip(chunks, chunks[1:]):
            assert cur.token_span[0] <= prev.token_span[1]
            inter = prev.token_span[1] - cur.token_span[0]
            assert inter == 500
        assert chunks[-1].token_span[1] == 14000

    def test_chunk_text_reconstructs_tokens(self):
        doc = make_doc(120)
        chunks = chunk_document(doc, 50, 10)
        for chunk in chunks:
            start, end = chunk.token_span
            assert count_tokens(chunk.text) == end - start

    def test_empty_doc(self):
        assert chunk_document("", 5000, 500) == []

    @settings(max_examples=600, deadline=None)
    @given(
        doc=st.one_of(
            st.lists(
                st.sampled_from(("dask", "w_1", "²½", "::", "-", "漢字", "e\u0301", " ", "\n\n",
                                 "\t\xa0", "\u2028", "\x1f", "\u3000")),
                max_size=80,
            ).map("".join),
            token_text,
        ),
        chunk_size=st.integers(1, 12),
        overlap_share=st.floats(0.0, 0.99),
    )
    @example(doc="a b c d e", chunk_size=1, overlap_share=0.0)
    @example(doc="a b c d e", chunk_size=2, overlap_share=0.5)
    @example(doc="  \n a: b, c \t\u3000", chunk_size=2, overlap_share=0.5)
    @example(doc=" \t\n\u2028\x85 ", chunk_size=1, overlap_share=0.0)
    def test_same_chunks_as_spanning_every_token(self, doc, chunk_size, overlap_share):
        overlap = int(overlap_share * chunk_size)
        got = chunk_document(doc, chunk_size, overlap, doc_id="d")
        assert got == oracle_chunk_document(doc, chunk_size, overlap, doc_id="d")

    def test_many_windows_match_the_oracle(self):
        rng = random.Random(11)
        words = ("The", "dask", "worker", "needs", "2", "replicas,", "500m", "cpu:", "1Gi.", "-", "\n")
        doc = "  " + " ".join(rng.choice(words) for _ in range(3000)) + " \n"
        for chunk_size, overlap in ((1, 0), (2, 1), (7, 6), (50, 10), (500, 0), (5000, 500)):
            got = chunk_document(doc, chunk_size, overlap)
            assert got == oracle_chunk_document(doc, chunk_size, overlap), (chunk_size, overlap)

    def test_invalid_overlap(self):
        message = "overlap must satisfy 0 <= overlap < chunk_size, got "
        with pytest.raises(ValueError, match=message + "10"):
            chunk_document("a b c", 10, 10)
        with pytest.raises(ValueError, match=message + "-1"):
            chunk_document("a b c", 10, -1)


class TestIndexAndRetrieve:
    def test_single_doc_single_chunk(self):
        index = build_index([("d", make_doc(100))])
        assert len(index.chunks) == 1

    def test_two_docs_two_chunks_each(self):
        index = build_index([("a", make_doc(9500)), ("b", make_doc(9500))])
        assert len(index.chunks) == 4
        assert sorted({c.doc_id for c in index.chunks}) == ["a", "b"]

    def test_empty_docs_rejected(self):
        with pytest.raises(ValueError):
            build_index([])

    def test_fewer_than_k(self):
        index = build_index([("d", "redis cache settings")])
        assert len(retrieve(index, "redis", k=3)) == 1

    def test_dominant_chunk_ranks_first(self):
        index = build_index(
            [("match", "dask worker replicas scaling"), ("other", "unrelated text entirely")]
        )
        top = retrieve(index, "dask worker replicas", k=2)
        assert top[0].doc_id == "match"

    def test_tie_break_by_doc_and_ordinal(self):
        # identical chunk texts score identically; order must be (doc_id, ordinal)
        index = build_index([("b", "same words here"), ("a", "same words here")])
        got = retrieve(index, "same words", k=2)
        assert [c.doc_id for c in got] == ["a", "b"]

    def test_extra_occurrence_never_lowers_rank(self):
        base = "alpha beta gamma"
        boosted = "alpha alpha beta gamma"
        index = build_index([("plain", base), ("boosted", boosted)])
        got = retrieve(index, "alpha", k=2)
        assert got[0].doc_id == "boosted"

    def test_k_must_be_positive(self):
        index = build_index([("d", "words")])
        with pytest.raises(ValueError):
            retrieve(index, "words", k=0)

    def test_retrieval_is_deterministic(self):
        docs = [(f"d{i}", make_doc(200 + i)) for i in range(5)]
        index = build_index(docs)
        first = retrieve(index, "w10 w20 w30", k=4)
        second = retrieve(index, "w10 w20 w30", k=4)
        assert first == second

    def test_constants(self):
        assert BM25_K1 == 1.2 and BM25_B == 0.75


def peak(run) -> int:
    """The most memory ``run()`` held at once, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestIndexMemory:
    def test_no_list_of_token_spans(self):
        """Indexing a 1 MB document peaks well below spanning its every token."""
        rng = random.Random(5)
        words = ("The", "dask", "worker", "needs", "2", "replicas,", "500m", "cpu", "and", "1Gi",
                 "memory.", "Set", "`worker/replicas`", "to", "scale:", "ray", "head")
        doc = "\n".join(" ".join(rng.choices(words, k=14)) for _ in range(12_500))

        oracle = peak(lambda: oracle_chunk_document(doc, 5000, 500))
        indexed = peak(lambda: build_index([("guide.md", doc)]))
        assert indexed <= 0.6 * oracle, (indexed, oracle)

    @pytest.mark.parametrize(
        "words",
        [
            ("The", "scheduler", "deployment", "needs", "replicas,", "500m", "resources:", "1Gi."),
            ("Größenordnung", "naïvement", "Übungsaufgabe", "—", "漢字", "réplicas:", "2", "x_y"),
        ],
        ids=["ascii", "not-ascii"],
    )
    def test_peak_is_bounded_by_the_document(self, words):
        """Counting a 5 MB document keeps no list of its pieces, and indexing
        it holds little more than the document's own characters."""
        rng = random.Random(9)
        doc = "\n".join(" ".join(rng.choices(words, k=14)) for _ in range(50_000))
        assert len(doc) >= 5_000_000 and doc.isascii() == (words[0] == "The")

        counted = peak(lambda: count_tokens(doc))
        assert counted < len(doc) / 4, (counted, len(doc))
        # Chunk texts overlap, and a document that is not ASCII holds up to
        # four bytes a character, so the bound is on its size in memory.
        indexed = peak(lambda: build_index([("guide.md", doc)]))
        assert indexed <= 2 * sys.getsizeof(doc), (indexed, sys.getsizeof(doc))


class TestLoadCorpus:
    def test_reads_md_and_txt(self, tmp_path):
        (tmp_path / "dask").mkdir()
        (tmp_path / "dask" / "guide.md").write_text("dask guide", encoding="utf-8")
        (tmp_path / "notes.txt").write_text("cluster notes", encoding="utf-8")
        (tmp_path / "skip.json").write_text("{}", encoding="utf-8")
        docs = load_corpus(tmp_path)
        ids = [doc_id for doc_id, _ in docs]
        assert ids == sorted(ids)
        assert set(ids) == {"dask/guide.md", "notes.txt"}

    @pytest.mark.parametrize("name", ["guide.md", "absent"])
    def test_root_must_be_a_directory(self, tmp_path, name):
        (tmp_path / "guide.md").write_text("dask guide", encoding="utf-8")
        with pytest.raises(InputError, match=f"{name}: not a directory"):
            load_corpus(tmp_path / name)


def oracle_terms(text: str) -> list[str]:
    return re.findall(r"[a-z0-9]+", text.lower())


# Characters whose lower() is hostile to a byte table: the Kelvin sign
# lowers to ASCII "k", "İ" to "i" plus a combining dot, "ß" stays, "Σ"
# lowers by context; then an ideographic space, fullwidth digits and "_".
TERM_ALPHABET = "aZ9 -:.\n\u212aİßΣςσ\u3000０９_\u0307é"


class TestTerms:
    @settings(max_examples=1000, deadline=None)
    @given(text=st.one_of(st.text(alphabet=TERM_ALPHABET, max_size=40), ascii_text, st.text()))
    @example(text="\u212aelvin İstanbul STRAßE ΣΊΣΥΦΟΣ ος\u3000０９ w_1 x_Y")
    @example(text="\ud800abc\udfffDEF")
    def test_equals_one_regex_pass(self, text):
        assert _terms(text) == oracle_terms(text)

    @settings(max_examples=200, deadline=None)
    @given(
        docs=st.lists(
            st.tuples(st.sampled_from(("a", "b")), st.text(alphabet=TERM_ALPHABET, max_size=60)),
            min_size=1, max_size=4,
        ),
        chunk_size=st.integers(1, 8),
    )
    def test_index_holds_the_oracle_term_counts(self, docs, chunk_size):
        """Each chunk's term counts, read back from the postings, are the
        oracle's; and every posting list runs in ascending position order."""
        index = build_index(docs, chunk_size=chunk_size, overlap=0)
        counts = [Counter() for _ in index.chunks]
        for term, postings in index.postings.items():
            positions = [position for position, _ in postings]
            assert positions == sorted(set(positions)), (term, postings)
            for position, freq in postings:
                counts[position][term] = freq
        assert counts == [Counter(oracle_terms(chunk.text)) for chunk in index.chunks]


def oracle_retrieve(index, query: str, k: int) -> list[int]:
    """Positions of the top-k chunks as ranked before posting lists: every
    chunk scored against every query term by ``_score``, then one full sort."""
    chunks = index.chunks
    term_frequencies = [Counter(oracle_terms(chunk.text)) for chunk in chunks]
    document_frequencies = Counter(term for tf in term_frequencies for term in tf)
    lengths = [sum(tf.values()) for tf in term_frequencies]
    n = len(chunks)
    avg = (sum(lengths) / len(lengths) if lengths else 0.0) or 1.0

    def _score(position: int, query_terms: list[str]) -> float:
        tf = term_frequencies[position]
        score = 0.0
        for term in query_terms:
            df = document_frequencies.get(term, 0)
            freq = tf.get(term, 0)
            if df == 0 or freq == 0:
                continue
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            denom = freq + BM25_K1 * (1.0 - BM25_B + BM25_B * lengths[position] / avg)
            score += idf * freq * (BM25_K1 + 1.0) / denom
        return score

    query_terms = sorted(set(oracle_terms(query)))
    ranked = sorted(
        range(n),
        key=lambda i: (-_score(i, query_terms), chunks[i].doc_id, chunks[i].ordinal),
    )
    return ranked[:k]


# A small vocabulary, so that chunks share terms and scores tie often.
WORDS = ("dask", "worker", "Memory", "cpu", "ray", "nodes", "x9", "gpu")
word_runs = st.lists(
    st.sampled_from(WORDS + ("::", "-", "limits.", "\n", "DASK")), max_size=30
).map(" ".join)


class TestRetrieveAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        docs=st.lists(st.tuples(st.sampled_from(("a", "b", "c")), word_runs), min_size=1, max_size=6),
        query=st.lists(st.sampled_from(WORDS + ("absent", "", "::")), max_size=6).map(" ".join),
        chunk_size=st.integers(1, 8),
        overlap_share=st.floats(0.0, 0.99),
        k=st.integers(1, 40),
    )
    # Duplicate documents: every chunk ties with its twin.
    @example(docs=[("a", "dask worker"), ("a", "dask worker")], query="dask",
             chunk_size=1, overlap_share=0.0, k=10)
    # All chunks tie on a term every chunk holds.
    @example(docs=[("b", "ray ray"), ("a", "ray ray"), ("c", "ray ray")], query="ray",
             chunk_size=2, overlap_share=0.0, k=2)
    # No chunk holds a query term: the whole ranking is the zero-score tail.
    @example(docs=[("b", "cpu nodes gpu"), ("a", "x9 dask")], query="absent",
             chunk_size=2, overlap_share=0.5, k=40)
    def test_same_ranking_as_scoring_every_chunk(self, docs, query, chunk_size, overlap_share, k):
        index = build_index(docs, chunk_size=chunk_size, overlap=int(overlap_share * chunk_size))
        got = retrieve(index, query, k=k)
        want = oracle_retrieve(index, query, k)
        assert [id(chunk) for chunk in got] == [id(index.chunks[i]) for i in want]

    def test_document_frequency_is_posting_length(self):
        index = build_index([("a", "dask dask ray"), ("b", "dask gpu")], chunk_size=10, overlap=0)
        assert index.postings["dask"] == [(0, 2), (1, 1)]
        assert index.postings["ray"] == [(0, 1)]
