"""Detect RFE attack types by sentence similarity against an example bank.

The bank is a labeled set of historical sentences, one attack type per
sentence. Detection vectorizes both the bank and the incoming RFE's sentences
as TF-IDF weighted 1/2/3-grams *in the bank's space* (so a document's own
statistics never influence its result), computes the full pairwise cosine
matrix, and flags an attack whenever any pair strictly exceeds the threshold.

Nothing here imports numpy: a detect or a draft runs in plain Python, and the
matrix is rows of Python floats that ``np.asarray`` still converts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

from .ioutil import read_records
from .text import clean_tokens, load_stopwords, normalize, split_sentences, tokenize
from .vectorize import Vocabulary, fit_vectors, norm, tfidf_vector

DEFAULT_TAU = 0.6
BANK_N_RANGE = (1, 2, 3)


class BankFormatError(ValueError):
    """Malformed or unusable example-bank file."""


@dataclass(frozen=True)
class AttackType:
    """One category of evidence demand, e.g. specialty-occupation."""

    attack_id: str
    description: str


class Evidence(NamedTuple):
    sentence_index: int
    example_index: int
    similarity: float


@dataclass(frozen=True)
class ExampleBank:
    """Fitted detection state: cleaned example sentences and the bank side of
    every similarity, computed once by :func:`load_bank`.

    ``attacks`` keeps declaration order (first appearance in the bank file);
    downstream template selection relies on that order being stable.
    ``norms[j]`` is the norm of example ``j``'s TF-IDF vector, and
    ``postings`` maps a column index to the ``(example_index, weight)`` pairs
    of the examples that use it. ``stopwords`` is the list the examples were
    cleaned with; :func:`detect_rfes` cleans an RFE with the same list.
    """

    attacks: tuple[AttackType, ...]
    examples: tuple[tuple[tuple[str, ...], str], ...]
    vocab: Vocabulary
    norms: tuple[float, ...]
    postings: dict[int, list[tuple[int, float]]]
    stopwords: frozenset[str]

    @property
    def attack_ids(self) -> tuple[str, ...]:
        return tuple(a.attack_id for a in self.attacks)

    def attack_of(self, example_index: int) -> str:
        return self.examples[example_index][1]


@dataclass(frozen=True)
class AttackReport:
    """Detected attack ids (bank order) plus every qualifying evidence pair."""

    detected: tuple[str, ...]
    evidence: tuple[Evidence, ...]
    threshold: float

    def as_record(self) -> dict:
        return {
            "detected": list(self.detected),
            "threshold": self.threshold,
            "evidence": [e._asdict() for e in self.evidence],
        }


def load_bank(source, stopwords=None) -> ExampleBank:
    """Build an :class:`ExampleBank` from a bank file.

    ``source`` is a path to (or iterable of) JSON lines with keys
    ``attack_id``, ``description``, ``sentence``. Sentences are preprocessed
    with the detection pipeline (lowercase, a-z filter, removal of
    ``stopwords``, by default the shipped list, which the bank keeps); a
    sentence that cleans to nothing is dropped with a warning, and an attack
    type whose sentences all vanish is an error. The same attack_id must carry
    the same description everywhere.
    """
    stopwords = load_stopwords() if stopwords is None else frozenset(stopwords)
    records = read_records(
        source, ("attack_id", "description", "sentence"), BankFormatError, "bank"
    )
    if not records:
        raise BankFormatError("example bank is empty")

    descriptions: dict[str, str] = {}  # first-seen order is declaration order
    examples: list[tuple[tuple[str, ...], str]] = []
    for position, rec in enumerate(records):
        attack_id, description, sentence = rec
        if descriptions.setdefault(attack_id, description) != description:
            raise BankFormatError(
                f"attack id {attack_id!r} declared twice with different descriptions")
        tokens = clean_tokens(tokenize(normalize(sentence)), stopwords)
        if not tokens:
            warnings.warn(
                f"bank record {position} ({attack_id}): sentence cleaned to "
                f"zero tokens, dropped",
                stacklevel=2,
            )
            continue
        examples.append((tuple(tokens), attack_id))

    surviving = {attack_id for _, attack_id in examples}
    orphaned = [attack_id for attack_id in descriptions if attack_id not in surviving]
    if orphaned:
        raise BankFormatError(f"attack types with no surviving example sentences: {orphaned}")
    vocab, vectors = fit_vectors([tokens for tokens, _ in examples], BANK_N_RANGE)
    postings: dict[int, list[tuple[int, float]]] = {}
    for j, vec in enumerate(vectors):
        for index, weight in vec:
            postings.setdefault(index, []).append((j, weight))
    return ExampleBank(
        attacks=tuple([AttackType(*item) for item in descriptions.items()]),
        examples=tuple(examples), vocab=vocab, norms=tuple([norm(v) for v in vectors]),
        postings=postings, stopwords=stopwords,
    )


class SimilarityMatrix:
    """A read-only (n_sentences, n_examples) matrix held as rows of Python
    floats: ``m[i]`` is row ``i`` (a tuple), ``m[i, j]`` one entry, iteration
    yields the rows, and ``np.asarray(m)`` is the float64 array."""

    __slots__ = ("_rows", "_n_columns")

    def __init__(self, rows: tuple[tuple[float, ...], ...], n_columns: int):
        self._rows = rows
        self._n_columns = n_columns

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self._rows), self._n_columns)

    @property
    def size(self) -> int:
        return len(self._rows) * self._n_columns

    def __iter__(self):
        return iter(self._rows)

    def __getitem__(self, key):
        if isinstance(key, tuple):
            i, j = key
            return self._rows[i][j]
        return self._rows[key]

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a SimilarityMatrix converts to an array only by copying")
        import numpy as np

        return np.array(self._rows, dtype=np.float64 if dtype is None else dtype).reshape(
            self.shape
        )


def similarity_matrix(rfe_sentences, bank: ExampleBank) -> SimilarityMatrix:
    """Cosine similarity of every RFE sentence against every bank example.

    RFE sentences are token sequences, vectorized in the bank's fitted space;
    the result has shape (n_sentences, n_examples), entries in [0, 1].

    Every entry equals :func:`~rfekit.vectorize.cosine` of the pair bit for
    bit: each sentence vector and its norm are built once, the bank side
    comes precomputed, and each pair's dot product is the builtin ``sum`` of
    the same products in the same ascending index order, then the same
    divide and clamp. A different summation (BLAS, ``np.dot``) rounds
    differently and can reorder exact 1.0 ties in the evidence.
    """
    n_examples = len(bank.examples)
    zeros = (0.0,) * n_examples
    postings, example_norms = bank.postings, bank.norms
    rows = []
    for tokens in rfe_sentences:
        vec = tfidf_vector(list(tokens), bank.vocab)
        vec_norm = norm(vec)
        if vec_norm == 0.0:
            rows.append(zeros)
            continue
        products: dict[int, list[float]] = {}
        for index, weight in vec:
            for j, example_weight in postings.get(index, ()):
                products.setdefault(j, []).append(weight * example_weight)
        row = list(zeros)
        for j, terms in products.items():
            row[j] = max(-1.0, min(1.0, sum(terms) / (vec_norm * example_norms[j])))
        rows.append(tuple(row))
    return SimilarityMatrix(tuple(rows), n_examples)


def _check_tau(tau: float) -> None:
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")


def _float_rows(matrix, n_columns: int) -> tuple[tuple[float, ...], ...]:
    """The rows of a 2-D array-like with ``n_columns`` columns, as floats."""
    shape = getattr(matrix, "shape", None)
    if shape is not None and (len(shape) != 2 or shape[1] != n_columns):
        raise ValueError(
            f"matrix of shape {shape} is not 2-D with {n_columns} columns, one per "
            f"bank example"
        )
    if isinstance(matrix, SimilarityMatrix):
        return matrix._rows
    try:
        rows = tuple(tuple(map(float, row)) for row in matrix)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"matrix is not a 2-D array of numbers ({exc})") from None
    for i, row in enumerate(rows):
        if len(row) != n_columns:
            raise ValueError(
                f"matrix row {i} has {len(row)} entries, not {n_columns} columns, one "
                f"per bank example"
            )
    return rows


def detect_attacks(matrix, bank: ExampleBank, tau: float = DEFAULT_TAU) -> AttackReport:
    """Flag every attack with at least one similarity strictly above ``tau``.

    Evidence keeps all qualifying (sentence, example, similarity) pairs sorted
    by similarity descending (index order breaks exact ties), not just the
    best one: reviewers and the drafting stage want every trigger.
    ``matrix`` is a :class:`SimilarityMatrix` or any 2-D array-like of
    numbers (an ndarray, nested lists) with one column per bank example.
    """
    _check_tau(tau)
    hits = [
        Evidence(i, j, v)
        for i, row in enumerate(_float_rows(matrix, len(bank.examples)))
        for j, v in enumerate(row)
        if v > tau
    ]
    flagged = {bank.attack_of(e.example_index) for e in hits}
    hits.sort(key=lambda e: (-e.similarity, e.sentence_index, e.example_index))
    detected = tuple(a for a in bank.attack_ids if a in flagged)
    return AttackReport(detected=detected, evidence=tuple(hits), threshold=tau)


def detect_rfes(rfe_texts, bank: ExampleBank, tau: float = DEFAULT_TAU) -> list[AttackReport]:
    """One :class:`AttackReport` per raw RFE text of the iterable
    ``rfe_texts``, in order, each RFE split into sentences cleaned with the
    bank's own stopword list.

    The one detection path: the CLI, the evaluation harness and, through
    :func:`detect_rfe`, drafting call it. RFEs share most of their
    boilerplate sentences, so each distinct cleaned sentence of the batch is
    scored once, in one :func:`similarity_matrix` call, and each RFE keeps
    only the row indices of its sentences. The index lives for this call
    only. Every row is the same sums as in a per-RFE matrix, so each report
    is identical to
    ``detect_attacks(similarity_matrix(sentences, bank), bank, tau)``.
    """
    _check_tau(tau)
    index: dict[tuple[str, ...], int] = {}
    rfe_rows = [
        [index.setdefault(tuple(tokens), len(index))
         for tokens in split_sentences(text, bank.stopwords)]
        for text in rfe_texts
    ]
    rows = similarity_matrix(list(index), bank)._rows
    n_examples = len(bank.examples)
    return [
        detect_attacks(SimilarityMatrix(tuple(map(rows.__getitem__, r)), n_examples), bank, tau)
        for r in rfe_rows
    ]


def detect_rfe(rfe_text: str, bank: ExampleBank, tau: float = DEFAULT_TAU) -> AttackReport:
    """The report of one raw RFE text: ``detect_rfes([rfe_text], bank, tau)[0]``."""
    return detect_rfes([rfe_text], bank, tau)[0]
