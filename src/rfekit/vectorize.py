"""TF-IDF weighted n-gram vectors, the fitted vocabulary, and cosine similarity.

The vocabulary is fitted once over a corpus of token streams and is immutable
afterwards; vectorization and cosine are pure functions, so everything here is
freely parallel across documents.

Weighting: tf is the raw n-gram count in the document, idf is the smoothed
``ln((1 + corpus_size) / (1 + doc_freq)) + 1``, and the resulting vector is
L2-normalized (or exactly zero when no fitted n-gram occurs).
"""

from __future__ import annotations

import hashlib
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

VOCAB_MAGIC = "ngram-vocab"
VOCAB_VERSION = 1


class VocabularyFormatError(ValueError):
    """Serialized vocabulary is malformed or has an unsupported version."""


def ngrams(tokens: list[str], n_range) -> list[str]:
    """All contiguous space-joined n-grams for each n, smallest n first.

    Within one n the document order is kept and duplicates are retained; a
    token stream shorter than n contributes no n-grams for that n.
    """
    out: list[str] = []
    for n in sorted(set(n_range)):
        if n < 1:
            raise ValueError(f"n-gram size must be >= 1, got {n}")
        out.extend(" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1))
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
        table = array("d", (math.log((1 + n) / (1 + df)) + 1.0 for df in self.doc_freq))
        object.__setattr__(self, "idf_table", table)

    @property
    def size(self) -> int:
        return len(self.ngram_to_index)


def fit_vocab(corpus, n_range) -> Vocabulary:
    """Fit a vocabulary over token streams; indices are lexicographic by n-gram."""
    docs = list(corpus)
    if not docs:
        raise ValueError("cannot fit a vocabulary on an empty corpus")
    df: dict[str, int] = {}
    for tokens in docs:
        for gram in set(ngrams(tokens, n_range)):
            df[gram] = df.get(gram, 0) + 1
    ordered = sorted(df)
    return Vocabulary(
        ngram_to_index={g: i for i, g in enumerate(ordered)},
        doc_freq=tuple(df[g] for g in ordered),
        corpus_size=len(docs),
        n_range=tuple(sorted(set(n_range))),
    )


def norm(vec) -> float:
    """Euclidean length of a sparse vector (a tuple of ``(index, weight)``)."""
    return math.sqrt(sum(w * w for _, w in vec))


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
    weighted = [(i, c * idf[i]) for i, c in sorted(counts.items())]
    length = norm(weighted)
    if length == 0.0:
        return ()
    return tuple((i, w / length) for i, w in weighted)


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
    index_to_ngram = {i: g for g, i in vocab.ngram_to_index.items()}
    lines = [
        f"{VOCAB_MAGIC} {VOCAB_VERSION}",
        f"corpus_size={vocab.corpus_size}",
        "n_range=" + ",".join(str(n) for n in vocab.n_range),
        f"size={vocab.size}",
    ]
    lines.extend(
        f"{i}\t{vocab.doc_freq[i]}\t{index_to_ngram[i]}" for i in range(vocab.size)
    )
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
    try:
        corpus_size = int(_header_value(lines[1], "corpus_size"))
        n_range = tuple(int(n) for n in _header_value(lines[2], "n_range").split(","))
        size = int(_header_value(lines[3], "size"))
    except ValueError as exc:
        raise VocabularyFormatError(str(exc)) from None
    if corpus_size < 1:
        raise VocabularyFormatError("corpus_size must be >= 1")
    if min(n_range) < 1:
        raise VocabularyFormatError(f"n-gram sizes must be >= 1, got {n_range}")
    rows = lines[4:]
    if len(rows) != size:
        raise VocabularyFormatError(f"expected {size} rows, found {len(rows)}")
    ngram_to_index: dict[str, int] = {}
    doc_freq = []
    for expected, row in enumerate(rows):
        parts = row.split("\t", 2)
        if len(parts) != 3:
            raise VocabularyFormatError(f"bad row {row!r}")
        try:
            index, freq, gram = int(parts[0]), int(parts[1]), parts[2]
        except ValueError:
            raise VocabularyFormatError(f"bad row {row!r}") from None
        if index != expected or not 1 <= freq <= corpus_size or gram in ngram_to_index:
            raise VocabularyFormatError(f"inconsistent row {row!r}")
        ngram_to_index[gram] = index
        doc_freq.append(freq)
    try:
        return Vocabulary(ngram_to_index, tuple(doc_freq), corpus_size, n_range)
    except OverflowError:
        raise VocabularyFormatError(f"corpus_size {corpus_size} is too large") from None


def vocab_sha256(vocab: Vocabulary) -> str:
    """Content hash of the canonical serialization; recorded by trained models."""
    return hashlib.sha256(save_vocab(vocab)).hexdigest()


def _header_value(line: str, key: str) -> str:
    prefix = key + "="
    if not line.startswith(prefix):
        raise VocabularyFormatError(f"expected {prefix!r} header, found {line!r}")
    return line[len(prefix) :]


def stack_dense(vectors, dim: int) -> np.ndarray:
    """Stack sparse vectors into a (len(vectors), dim) array for the linear head."""
    out = np.zeros((len(vectors), dim))
    for row, vec in enumerate(vectors):
        for i, w in vec:
            out[row, i] = w
    return out
