"""TF-IDF weighted n-gram vectors, the fitted vocabulary, and cosine similarity.

The vocabulary is fitted once over a corpus of token streams and is immutable
afterwards; vectorization and cosine are pure functions, so everything here is
freely parallel across documents.

Weighting: tf is the raw n-gram count in the document, idf is the smoothed
``ln((1 + corpus_size) / (1 + doc_freq)) + 1``, and the resulting vector is
L2-normalized (or exactly zero when no fitted n-gram occurs).
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

VOCAB_MAGIC = "ngram-vocab"
VOCAB_VERSION = 1


class VocabularyFormatError(ValueError):
    """Serialized vocabulary is malformed or has an unsupported version."""


def ngrams(tokens: list[str], n_range) -> list[str]:
    """All contiguous space-joined n-grams for each n, smallest n first.

    Within one n the document order is kept and duplicates are retained; a
    token stream shorter than n contributes no n-grams for that n. Each
    n-gram is built from its (n-1)-gram plus one token.
    """
    sizes = sorted(set(n_range))
    if sizes and sizes[0] < 1:
        raise ValueError(f"n-gram size must be >= 1, got {sizes[0]}")
    out: list[str] = []
    grams = tokens
    for n in range(1, sizes[-1] + 1 if sizes else 1):
        if n > 1:
            grams = [g + " " + t for g, t in zip(grams, tokens[n - 1 :])]
        if n in sizes:
            out.extend(grams)
    return out


@dataclass(frozen=True)
class Vocabulary:
    """Fitted n-gram space: dense column indices plus document frequencies.

    ``idf_table[i]`` is the idf of column ``i``, computed once at construction
    and kept as unboxed doubles (``array('d')``), so a lookup yields a plain
    Python float.
    """

    ngram_to_index: dict[str, int]
    doc_freq: tuple[int, ...]
    corpus_size: int
    n_range: tuple[int, ...]
    idf_table: array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.corpus_size
        # doc_freq takes few distinct values: one log per value, then a lookup.
        idf = {df: math.log((1 + n) / (1 + df)) + 1.0 for df in set(self.doc_freq)}
        table = array("d", map(idf.__getitem__, self.doc_freq))
        object.__setattr__(self, "idf_table", table)

    @property
    def size(self) -> int:
        return len(self.ngram_to_index)


def fit_tfidf(
    token_docs, n_range
) -> tuple[Vocabulary, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Fit a vocabulary over token streams and weight the same streams in it.

    Returns the vocabulary, whose indices are lexicographic by n-gram, and the
    nonzeros ``(row, col, value)`` of the documents' tf-idf design, sorted by
    row and then by column: the entries of row r are
    ``tfidf_vector(token_docs[r], vocab)``, bit for bit. The design itself,
    ``len(token_docs)`` x ``vocab.size``, is never formed.

    Each document's n-grams are built once and mapped to columns once; the
    (row, column) pairs are then counted and weighted with numpy, and a
    column's document frequency is the number of rows it occurs in. A row's
    length is the builtin ``sum`` of its squared weights in ascending column
    order, the primitive and order of :func:`norm`, so the rows match on
    every Python (builtin float ``sum`` is compensated from 3.12, numpy's is
    not).
    """
    import numpy as np

    doc_grams = [ngrams(tokens, n_range) for tokens in token_docs]
    if not doc_grams:
        raise ValueError("cannot fit a vocabulary on an empty corpus")
    n_docs = len(doc_grams)
    lengths = [len(grams) for grams in doc_grams]
    ngram_to_index = {g: i for i, g in enumerate(sorted(set().union(*doc_grams)))}
    size = len(ngram_to_index)
    lookup = ngram_to_index.__getitem__
    cols = np.fromiter(
        chain.from_iterable(map(lookup, grams) for grams in doc_grams),
        dtype=np.int64,
        count=sum(lengths),
    )
    doc_ids = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
    keys, counts = np.unique(doc_ids * size + cols, return_counts=True)
    row, col = np.divmod(keys, size)  # sorted by row, then by column
    vocab = Vocabulary(
        ngram_to_index=ngram_to_index,
        doc_freq=tuple(np.bincount(col, minlength=size).tolist()),
        corpus_size=n_docs,
        n_range=tuple(sorted(set(n_range))),
    )
    weights = counts * np.frombuffer(vocab.idf_table)[col]
    squares = (weights * weights).tolist()
    bounds = np.searchsorted(row, np.arange(n_docs + 1)).tolist()
    norms = np.array([math.sqrt(sum(squares[a:b])) for a, b in zip(bounds, bounds[1:])])
    return vocab, (row, col, weights / norms[row])


def fit_vectors(token_docs, n_range) -> tuple[Vocabulary, list[tuple[tuple[int, float], ...]]]:
    """:func:`fit_tfidf`'s vocabulary and each document's :func:`tfidf_vector`,
    without numpy: each document's n-grams are counted once, into a
    ``Counter``, and the vocabulary is the sorted union of the counters. A
    bank fits here; training keeps :func:`fit_tfidf`, faster on its corpus."""
    n_range = tuple(sorted(set(n_range)))
    counts = [Counter(ngrams(tokens, n_range)) for tokens in token_docs]
    if not counts:
        raise ValueError("cannot fit a vocabulary on an empty corpus")
    doc_freq = Counter(chain.from_iterable(counts))
    grams = sorted(doc_freq)
    vocab = Vocabulary(dict(zip(grams, range(len(grams)))),
                       tuple(map(doc_freq.__getitem__, grams)), len(counts), n_range)
    column, idf = vocab.ngram_to_index.__getitem__, vocab.idf_table
    return vocab, [_unit([(i, n * idf[i]) for i, n in sorted(zip(map(column, c), c.values()))])
                   for c in counts]


def fit_vocab(corpus, n_range) -> Vocabulary:
    """Fit a vocabulary over token streams; indices are lexicographic by n-gram."""
    return fit_vectors(corpus, n_range)[0]


def norm(vec) -> float:
    """Euclidean length of a sparse vector (a tuple of ``(index, weight)``)."""
    return math.sqrt(sum([w * w for _, w in vec]))


def tfidf_vector(tokens: list[str], vocab: Vocabulary) -> tuple[tuple[int, float], ...]:
    """L2-normalized tf-idf vector of ``tokens`` in the fitted space.

    A vector is a tuple of ``(index, weight)`` pairs in ascending index order
    with every weight > 0. N-grams unseen at fit time are ignored; if none are
    known the result is the zero vector ``()``.
    """
    counts: dict[int, int] = {}
    for gram in ngrams(tokens, vocab.n_range):
        index = vocab.ngram_to_index.get(gram)
        if index is not None:
            counts[index] = counts.get(index, 0) + 1
    idf = vocab.idf_table
    return _unit([(i, c * idf[i]) for i, c in sorted(counts.items())])


def _unit(weighted) -> tuple[tuple[int, float], ...]:
    """The sparse vector ``weighted`` over its length; ``()`` if that is zero."""
    length = norm(weighted)
    if length == 0.0:
        return ()
    # Sized from a list, not a generator, so tuple free lists do not creep.
    return tuple([(i, w / length) for i, w in weighted])


def cosine(u, v) -> float:
    """``u.v / (|u||v|)`` of two sparse vectors; zero when either is all-zero.

    Clamped into [-1, 1]: Cauchy-Schwarz guarantees the true value never
    exceeds 1, and round-off must not push an identical pair past a strict
    threshold comparison.
    """
    nu, nv = norm(u), norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    small, big = sorted((u, v), key=len)
    lookup = dict(big)
    dot = sum(w * lookup[i] for i, w in small if i in lookup)
    return max(-1.0, min(1.0, dot / (nu * nv)))


def save_vocab(vocab: Vocabulary) -> bytes:
    """Serialize to the versioned flat text format (see the format reference).

    Line 1 is ``ngram-vocab 1``, followed by ``corpus_size=``, ``n_range=``
    (comma-separated), ``size=``, then one ``index<TAB>doc_freq<TAB>ngram``
    row per column in index order. UTF-8, LF line endings.
    """
    grams = [""] * vocab.size
    for gram, i in vocab.ngram_to_index.items():
        grams[i] = gram
    lines = [
        f"{VOCAB_MAGIC} {VOCAB_VERSION}",
        f"corpus_size={vocab.corpus_size}",
        "n_range=" + ",".join(str(n) for n in vocab.n_range),
        f"size={vocab.size}",
    ]
    lines += [
        f"{i}\t{df}\t{gram}" for i, df, gram in zip(range(vocab.size), vocab.doc_freq, grams)
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def load_vocab(data: bytes) -> Vocabulary:
    """Parse :func:`save_vocab` output; raises VocabularyFormatError when malformed."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise VocabularyFormatError(f"vocabulary is not UTF-8 ({exc})") from None
    if len(lines) < 4:
        raise VocabularyFormatError("vocabulary file too short")
    magic = lines[0].split()
    if len(magic) != 2 or magic[0] != VOCAB_MAGIC:
        raise VocabularyFormatError(f"bad magic line {lines[0]!r}")
    if magic[1] != str(VOCAB_VERSION):
        raise VocabularyFormatError(f"unsupported vocabulary version {magic[1]!r}")
    corpus_size = _natural(_header_value(lines[1], "corpus_size"), lines[1])
    n_range = tuple(_natural(n, lines[2]) for n in _header_value(lines[2], "n_range").split(","))
    size = _natural(_header_value(lines[3], "size"), lines[3])
    if corpus_size < 1:
        raise VocabularyFormatError("corpus_size must be >= 1")
    if min(n_range) < 1 or list(n_range) != sorted(set(n_range)):
        raise VocabularyFormatError(f"n-gram sizes must be >= 1 and ascending, got {n_range}")
    rows = lines[4:]
    if len(rows) != size:
        raise VocabularyFormatError(f"expected {size} rows, found {len(rows)}")
    ngram_to_index: dict[str, int] = {}
    doc_freq = []
    for expected, row in enumerate(rows):
        parts = row.split("\t", 2)
        if len(parts) != 3:
            raise VocabularyFormatError(f"bad row {row!r}")
        index, freq, gram = _natural(parts[0], row), _natural(parts[1], row), parts[2]
        if index != expected or not 1 <= freq <= corpus_size or gram in ngram_to_index:
            raise VocabularyFormatError(f"inconsistent row {row!r}")
        ngram_to_index[gram] = index
        doc_freq.append(freq)
    try:
        return Vocabulary(ngram_to_index, tuple(doc_freq), corpus_size, n_range)
    except OverflowError:
        raise VocabularyFormatError(f"corpus_size {corpus_size} is too large") from None


def _natural(text: str, line: str) -> int:
    """The integer spelt by ASCII digits ``text``, as save_vocab writes it:
    ``int`` alone would take a sign, ``_``, spaces and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        raise VocabularyFormatError(f"bad integer {text!r} in {line!r}")
    try:
        return int(text)
    except ValueError:  # past int's digit limit
        raise VocabularyFormatError(f"integer out of range in {line!r}") from None


def _header_value(line: str, key: str) -> str:
    prefix = key + "="
    if not line.startswith(prefix):
        raise VocabularyFormatError(f"expected {prefix!r} header, found {line!r}")
    return line[len(prefix) :]


def stack_dense(vectors, dim: int) -> np.ndarray:
    """Stack sparse vectors into a (len(vectors), dim) array for the linear head."""
    import numpy as np

    out = np.zeros((len(vectors), dim))
    for row, vec in enumerate(vectors):
        for i, w in vec:
            out[row, i] = w
    return out
