"""Metric arithmetic and the experiment harness over ground-truthed corpora.

Covers two evaluations: per-class document classification accuracy (count /
correct / accuracy tables) and binary confusion metrics for one target attack
type across a set of RFEs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .attacks import DEFAULT_TAU, ExampleBank, detect_rfe
from .text import load_stopwords


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float

    def as_record(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


def metrics(counts: ConfusionCounts) -> Metrics:
    """Accuracy, precision, recall, F1 with zero-denominator conventions.

    Precision/recall are 0 when their denominator is 0, and F1 is 0 when
    precision + recall is 0; all-zero counts are an error.
    """
    if counts.total == 0:
        raise ValueError("cannot compute metrics from all-zero counts")
    accuracy = (counts.tp + counts.tn) / counts.total
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return Metrics(accuracy=accuracy, precision=precision, recall=recall, f1=f1)


def accuracy_percent_str(correct: int, count: int) -> str:
    """Percentage at two decimals with trailing zeros trimmed (100, 98.08)."""
    return f"{100.0 * correct / count:.2f}".rstrip("0").rstrip(".")


@dataclass(frozen=True)
class ClassRow:
    label: str
    count: int
    correct: int

    @property
    def accuracy_str(self) -> str:
        return accuracy_percent_str(self.correct, self.count)


@dataclass(frozen=True)
class ClassificationReport:
    """Per-class accuracy table plus the raw predictions behind it."""

    rows: tuple[ClassRow, ...]
    predictions: tuple[tuple[str, str, str], ...]  # (doc id, truth, predicted)

    @property
    def overall(self) -> ClassRow:
        return ClassRow(
            label="all",
            count=sum(r.count for r in self.rows),
            correct=sum(r.correct for r in self.rows),
        )

    def table(self) -> str:
        """Aligned plain-text table: overall row first, then per class."""
        rows = [self.overall, *self.rows]
        header = ("Document type", "Count", "Correct", "Accuracy (%)")
        label_w = max(len(header[0]), *(len(r.label) for r in rows))
        lines = [
            f"{header[0]:<{label_w}}  {header[1]:>6}  {header[2]:>8}  {header[3]:>12}"
        ]
        for r in rows:
            lines.append(
                f"{r.label:<{label_w}}  {r.count:>6}  {r.correct:>8}  "
                f"{r.accuracy_str:>12}"
            )
        return "\n".join(lines)

    def as_records(self) -> list[dict]:
        rows = [self.overall, *self.rows]
        return [
            {
                "label": r.label,
                "count": r.count,
                "correct": r.correct,
                "accuracy": r.correct / r.count if r.count else 0.0,
                "accuracy_str": r.accuracy_str,
            }
            for r in rows
        ]


def classification_report(outcomes) -> ClassificationReport:
    """Build the table from (doc_id, truth, predicted) triples."""
    outcomes = tuple(outcomes)
    labels: list[str] = []
    for _, truth, _ in outcomes:
        if truth not in labels:
            labels.append(truth)
    rows = tuple(
        ClassRow(
            label=label,
            count=sum(1 for _, t, _ in outcomes if t == label),
            correct=sum(1 for _, t, p in outcomes if t == label and t == p),
        )
        for label in labels
    )
    return ClassificationReport(rows=rows, predictions=outcomes)


def evaluate_documents(model, docs, labels, doc_ids=None) -> ClassificationReport:
    """Classify ``docs`` with a fitted ensemble and tabulate per-class accuracy.

    Every ground-truth label must be in the model's class set.
    """
    docs, labels = list(docs), list(labels)
    if len(docs) != len(labels):
        raise ValueError(f"{len(docs)} documents but {len(labels)} labels")
    unknown = sorted(set(labels) - set(model.classes_))
    if unknown:
        raise ValueError(f"manifest labels missing from the model: {unknown}")
    doc_ids = doc_ids or [d.doc_id for d in docs]
    outcomes = [
        (doc_id, truth, model.classify(doc).predicted)
        for doc_id, doc, truth in zip(doc_ids, docs, labels)
    ]
    return classification_report(outcomes)


def evaluate_attacks(
    bank: ExampleBank,
    rfes,
    target_attack: str,
    tau: float = DEFAULT_TAU,
) -> tuple[ConfusionCounts, Metrics]:
    """Binary presence/absence confusion for one attack over (text, truth) pairs.

    ``rfes`` yields (rfe_text, ground_truth_attack_ids); the target must be an
    attack type the bank knows about.
    """
    if target_attack not in bank.attack_ids:
        raise ValueError(f"unknown attack id {target_attack!r}")
    stopwords = load_stopwords()
    tp = fp = fn = tn = 0
    for text, truth_attacks in rfes:
        flagged = target_attack in detect_rfe(text, bank, tau, stopwords).detected
        present = target_attack in set(truth_attacks)
        if flagged and present:
            tp += 1
        elif flagged and not present:
            fp += 1
        elif not flagged and present:
            fn += 1
        else:
            tn += 1
    counts = ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)
    return counts, metrics(counts)
