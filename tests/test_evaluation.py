import json
from pathlib import Path

import pytest

from rfekit.attacks import DEFAULT_TAU, detect_rfes, load_bank
from rfekit.evaluation import (
    ConfusionCounts,
    accuracy_percent_str,
    classification_report,
    evaluate_attacks,
    metrics,
)


def brute_force_confusion_search(total, accuracy, precision, recall, tol=5e-5):
    """All non-negative integer (tp, fp, fn, tn) with the given total whose
    accuracy/precision/recall round to the reported values."""
    hits = []
    for tp in range(total + 1):
        for fp in range(total + 1 - tp):
            for fn in range(total + 1 - tp - fp):
                tn = total - tp - fp - fn
                acc = (tp + tn) / total
                p = tp / (tp + fp) if tp + fp else 0.0
                r = tp / (tp + fn) if tp + fn else 0.0
                if (
                    abs(acc - accuracy) < tol
                    and abs(p - precision) < tol
                    and abs(r - recall) < tol
                ):
                    hits.append((tp, fp, fn, tn))
    return hits


def test_reported_metrics_have_unique_integer_counts():
    hits = brute_force_confusion_search(49, 0.7347, 0.7097, 0.8462)
    assert hits == [(22, 9, 4, 14)]


def test_metrics_reproduce_reported_values():
    m = metrics(ConfusionCounts(tp=22, fp=9, fn=4, tn=14))
    assert m.accuracy == pytest.approx(0.7347, abs=1e-4)
    assert m.precision == pytest.approx(0.7097, abs=1e-4)
    assert m.recall == pytest.approx(0.8462, abs=1e-4)
    assert m.f1 == pytest.approx(0.7719, abs=1e-4)


def test_accuracy_102_of_104():
    m = metrics(ConfusionCounts(tp=102, fp=2, fn=0, tn=0))
    assert m.accuracy == pytest.approx(0.9808, abs=1e-4)


def test_zero_denominator_conventions():
    m = metrics(ConfusionCounts(tp=0, fp=0, fn=5, tn=5))
    assert m.precision == 0.0
    assert m.recall == 0.0
    assert m.f1 == 0.0
    assert m.accuracy == 0.5


def test_all_zero_counts_is_error():
    with pytest.raises(ValueError):
        metrics(ConfusionCounts(0, 0, 0, 0))


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        ConfusionCounts(tp=-1, fp=0, fn=0, tn=1)


def test_metrics_scale_free():
    base = metrics(ConfusionCounts(3, 1, 2, 4))
    scaled = metrics(ConfusionCounts(9, 3, 6, 12))
    assert scaled == base


def test_accuracy_matches_rational_arithmetic():
    from fractions import Fraction

    for counts in [(3, 1, 2, 4), (22, 9, 4, 14), (1, 0, 0, 0)]:
        c = ConfusionCounts(*counts)
        exact = Fraction(c.tp + c.tn, c.total)
        assert abs(metrics(c).accuracy - float(exact)) < 1e-12


def test_percent_formatting():
    assert accuracy_percent_str(102, 104) == "98.08"
    assert accuracy_percent_str(33, 33) == "100"
    assert accuracy_percent_str(69, 71) == "97.18"


def test_classification_report_rows_and_overall():
    outcomes = []
    outcomes += [(f"a{i}", "approval", "approval") for i in range(33)]
    outcomes += [(f"r{i}", "receipt", "receipt") for i in range(69)]
    outcomes += [("r69", "receipt", "approval"), ("r70", "receipt", "approval")]
    report = classification_report(outcomes)
    table = {r.label: r for r in report.rows}
    assert (table["approval"].count, table["approval"].correct) == (33, 33)
    assert (table["receipt"].count, table["receipt"].correct) == (71, 69)
    overall = report.overall
    assert (overall.count, overall.correct) == (104, 102)
    assert overall.accuracy_str == "98.08"
    assert table["approval"].accuracy_str == "100"
    assert table["receipt"].accuracy_str == "97.18"


def test_per_class_counts_sum_to_overall():
    outcomes = [("1", "a", "a"), ("2", "b", "a"), ("3", "b", "b"), ("4", "c", "c")]
    report = classification_report(outcomes)
    assert sum(r.count for r in report.rows) == report.overall.count
    assert sum(r.correct for r in report.rows) == report.overall.correct


def test_report_table_renders_aligned_text():
    report = classification_report(
        [("1", "approval-notice", "approval-notice"), ("2", "receipt-notice", "approval-notice")]
    )
    text = report.table()
    lines = text.splitlines()
    assert lines[0].startswith("Document type")
    assert any("all" in line for line in lines)
    assert len(lines) == 4  # header + all + 2 classes


def test_report_records_json_ready():
    report = classification_report([("1", "a", "a")])
    records = report.as_records()
    assert records[0]["label"] == "all"
    assert records[0]["accuracy"] == 1.0
    json.dumps(records)  # must serialize


BANK = [
    json.dumps(
        {"attack_id": "specialty-occupation", "description": "so",
         "sentence": "position requires specialized degree knowledge in the specialty"}
    ),
    json.dumps(
        {"attack_id": "other-attack", "description": "other",
         "sentence": "completely different requirement about contracts and control"}
    ),
]


def test_evaluate_attacks_perfect_detector():
    bank = load_bank(BANK)
    rfes = [
        ("position requires specialized degree knowledge in the specialty\n", ["specialty-occupation"]),
        ("nothing remotely similar appears in this text\n", []),
    ]
    counts, m = evaluate_attacks(bank, rfes, "specialty-occupation", 0.6)
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 0, 0, 1)
    assert m.accuracy == 1.0


def test_evaluate_attacks_tau_one_flags_nothing():
    bank = load_bank(BANK)
    rfes = [
        ("position requires specialized degree knowledge in the specialty\n", ["specialty-occupation"]),
        ("unrelated words\n", []),
    ]
    counts, _ = evaluate_attacks(bank, rfes, "specialty-occupation", 1.0)
    assert counts.tp == 0 and counts.fp == 0
    assert counts.fn == 1 and counts.tn == 1


# data/near-miss-rfes.json: RFEs whose sentences quote the default bank's
# wording without demanding the evidence, for example "this office does not
# dispute that the proffered position qualifies as a specialty occupation",
# next to plain demands and one paraphrased demand. On the generated corpus
# no absent attack scores above 0.26, so the false-positive side of the
# strict > tau rule never runs there.
NEAR_MISS_RFES = Path(__file__).parent / "data" / "near-miss-rfes.json"
# Per attack, against the seed-42 bank at DEFAULT_TAU: (tp, fp, fn, tn), and
# the highest similarity of the attack in an RFE that does not demand it.
NEAR_MISS_PINS = {
    "specialty-occupation": ((1, 1, 1, 4), 0.801702),
    "beneficiary-qualification": ((1, 1, 0, 5), 0.770654),
    "employer-employee-relationship": ((1, 0, 0, 6), 0.586572),
}


def test_near_miss_rfes_pin_each_attacks_counts_and_highest_absent_score(rfe_corpus_42):
    """Quoted bank wording is a false positive above tau and a true negative
    just below it; an absent attack between 0.4 and tau means that scaling
    every similarity by 1.5 flips a decision and moves a pinned count."""
    root, manifest = rfe_corpus_42
    bank = load_bank(root / manifest["paths"]["bank"])
    rfes = [("\n".join(r["lines"]) + "\n", r["attacks"])
            for r in json.loads(NEAR_MISS_RFES.read_text("utf-8"))["rfes"]]
    reports = detect_rfes([text for text, _ in rfes], bank, 0.0)
    found, near_misses = {}, []
    for attack in bank.attack_ids:
        counts, _ = evaluate_attacks(bank, rfes, attack, DEFAULT_TAU)
        absent = [
            max([e.similarity for e in report.evidence
                 if bank.attack_of(e.example_index) == attack], default=0.0)
            for (_, truth), report in zip(rfes, reports) if attack not in truth
        ]
        found[attack] = ((counts.tp, counts.fp, counts.fn, counts.tn), max(absent))
        near_misses += [score for score in absent if DEFAULT_TAU / 1.5 < score <= DEFAULT_TAU]
    assert found == {attack: (counts, pytest.approx(score, abs=1e-6))
                     for attack, (counts, score) in NEAR_MISS_PINS.items()}
    assert len(near_misses) == 7


def test_evaluate_attacks_unknown_target():
    bank = load_bank(BANK)
    with pytest.raises(ValueError, match="unknown attack"):
        evaluate_attacks(bank, [], "never-heard-of-it", 0.6)


def bright_dim_model():
    """Four documents of two classes and an ensemble fitted to them."""
    import numpy as np

    from rfekit.ensemble import Document, EnsembleDocumentClassifier
    from rfekit.image import PageImage

    def doc(i, fill, word):
        page = PageImage(width=4, height=4, pixels=np.full((4, 4), fill, dtype=np.int64))
        return Document(doc_id=f"d{i}", pages=(page,), text=f"{word} words here")

    docs = [doc(0, 250, "light"), doc(1, 5, "dark")] * 2
    labels = ["bright", "dim", "bright", "dim"]
    return docs, labels, EnsembleDocumentClassifier(n_range=(1,), max_iters=50).fit(docs, labels)


def test_evaluate_documents_label_outside_model_classes():
    from rfekit.evaluation import evaluate_documents

    docs, _, model = bright_dim_model()
    with pytest.raises(ValueError, match="missing from the model"):
        evaluate_documents(model, docs, ["bright", "dim", "bright", "unknown-class"])


@pytest.mark.parametrize("n_ids", [0, 3, 5])
def test_evaluate_documents_refuses_doc_ids_of_another_length(n_ids):
    """One id per document, or ValueError: zip would cut the report short."""
    from rfekit.evaluation import evaluate_documents

    docs, labels, model = bright_dim_model()
    ids = [f"id{i}" for i in range(n_ids)]
    with pytest.raises(ValueError, match=f"^4 documents but {n_ids} doc_ids$"):
        evaluate_documents(model, docs, labels, ids)


@pytest.mark.parametrize("n_labels", [3, 5])
def test_evaluate_documents_refuses_labels_of_another_length(n_labels):
    from rfekit.evaluation import evaluate_documents

    docs, labels, model = bright_dim_model()
    with pytest.raises(ValueError, match=f"^4 documents but {n_labels} labels$"):
        evaluate_documents(model, docs, (labels * 2)[:n_labels])


def test_evaluate_documents_reports_under_the_given_doc_ids():
    from rfekit.evaluation import evaluate_documents

    docs, labels, model = bright_dim_model()
    report = evaluate_documents(model, docs, labels, ["w", "x", "y", "z"])
    assert [doc_id for doc_id, _, _ in report.predictions] == ["w", "x", "y", "z"]
    assert report.overall.count == 4
    default = evaluate_documents(model, docs, labels)
    assert [doc_id for doc_id, _, _ in default.predictions] == ["d0", "d1", "d0", "d1"]
