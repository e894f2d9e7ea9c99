"""Detect RFE attack types by sentence similarity against an example bank.

The bank is a labeled set of historical sentences, one attack type per
sentence. Detection vectorizes both the bank and the incoming RFE's sentences
as TF-IDF weighted 1/2/3-grams *in the bank's space* (so a document's own
statistics never influence its result), computes the full pairwise cosine
matrix, and flags an attack whenever any pair strictly exceeds the threshold.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ioutil import read_records
from .text import clean_tokens, load_stopwords, normalize, split_sentences, tokenize
from .vectorize import Vocabulary, fit_vocab, norm, tfidf_vector

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
    of the examples that use it.
    """

    attacks: tuple[AttackType, ...]
    examples: tuple[tuple[tuple[str, ...], str], ...]
    vocab: Vocabulary
    norms: tuple[float, ...]
    postings: dict[int, list[tuple[int, float]]]

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
    with the detection pipeline (lowercase, a-z filter, stopword removal);
    a sentence that cleans to nothing is dropped with a warning, and an attack
    type whose sentences all vanish is an error. The same attack_id must carry
    the same description everywhere.
    """
    stopwords = load_stopwords() if stopwords is None else stopwords
    records = read_records(
        source, ("attack_id", "description", "sentence"), BankFormatError, "bank"
    )
    if not records:
        raise BankFormatError("example bank is empty")

    attacks: list[AttackType] = []
    descriptions: dict[str, str] = {}
    examples: list[tuple[tuple[str, ...], str]] = []
    for position, rec in enumerate(records):
        attack_id, description, sentence = rec
        if attack_id in descriptions:
            if descriptions[attack_id] != description:
                raise BankFormatError(
                    f"attack id {attack_id!r} declared twice with different "
                    f"descriptions"
                )
        else:
            descriptions[attack_id] = description
            attacks.append(AttackType(attack_id, description))
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
    orphaned = [a.attack_id for a in attacks if a.attack_id not in surviving]
    if orphaned:
        raise BankFormatError(
            f"attack types with no surviving example sentences: {orphaned}"
        )
    vocab = fit_vocab([list(tokens) for tokens, _ in examples], BANK_N_RANGE)
    norms = []
    postings: dict[int, list[tuple[int, float]]] = {}
    for j, (tokens, _) in enumerate(examples):
        vec = tfidf_vector(list(tokens), vocab)
        norms.append(norm(vec))
        for index, weight in vec:
            postings.setdefault(index, []).append((j, weight))
    return ExampleBank(
        attacks=tuple(attacks),
        examples=tuple(examples),
        vocab=vocab,
        norms=tuple(norms),
        postings=postings,
    )


def similarity_matrix(rfe_sentences, bank: ExampleBank) -> np.ndarray:
    """Cosine similarity of every RFE sentence against every bank example.

    RFE sentences are token lists, vectorized in the bank's fitted space;
    the result is shape (n_sentences, n_examples) with entries in [0, 1].

    Every entry equals :func:`~rfekit.vectorize.cosine` of the pair bit for
    bit: each sentence vector and its norm are built once, the bank side
    comes precomputed, and each pair's dot product is the builtin ``sum`` of
    the same products in the same ascending index order, then the same
    divide and clamp. A different summation (BLAS, ``np.dot``) rounds
    differently and can reorder exact 1.0 ties in the evidence.
    """
    matrix = np.zeros((len(rfe_sentences), len(bank.examples)))
    postings, example_norms = bank.postings, bank.norms
    for i, tokens in enumerate(rfe_sentences):
        vec = tfidf_vector(list(tokens), bank.vocab)
        vec_norm = norm(vec)
        if vec_norm == 0.0:
            continue
        products: dict[int, list[float]] = {}
        for index, weight in vec:
            for j, example_weight in postings.get(index, ()):
                products.setdefault(j, []).append(weight * example_weight)
        row = matrix[i]
        for j, terms in products.items():
            row[j] = max(-1.0, min(1.0, sum(terms) / (vec_norm * example_norms[j])))
    return matrix


def detect_attacks(matrix: np.ndarray, bank: ExampleBank, tau: float = DEFAULT_TAU) -> AttackReport:
    """Flag every attack with at least one similarity strictly above ``tau``.

    Evidence keeps all qualifying (sentence, example, similarity) pairs sorted
    by similarity descending (index order breaks exact ties), not just the
    best one: reviewers and the drafting stage want every trigger.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.size and matrix.shape[1] != len(bank.examples):
        raise ValueError(
            f"matrix has {matrix.shape[1]} columns but bank has "
            f"{len(bank.examples)} examples"
        )
    rows, cols = np.nonzero(matrix > tau)
    hits = list(map(Evidence, rows.tolist(), cols.tolist(), matrix[rows, cols].tolist()))
    flagged = {bank.attack_of(e.example_index) for e in hits}
    hits.sort(key=lambda e: (-e.similarity, e.sentence_index, e.example_index))
    detected = tuple(a for a in bank.attack_ids if a in flagged)
    return AttackReport(detected=detected, evidence=tuple(hits), threshold=tau)


def detect_rfe(rfe_text: str, bank: ExampleBank, tau: float = DEFAULT_TAU,
               stopwords=None) -> AttackReport:
    """Split raw RFE text into cleaned sentences and detect against ``bank``.

    The one detection path: the CLI, the evaluation harness and drafting all
    call it. Pass ``stopwords`` to reuse one loaded list across many RFEs.
    """
    stopwords = load_stopwords() if stopwords is None else stopwords
    sentences = split_sentences(rfe_text, stopwords)
    return detect_attacks(similarity_matrix(sentences, bank), bank, tau)
