"""Every record rfekit writes serializes from its class's own field list
(``dataclasses.asdict`` or ``NamedTuple._asdict``). The reference functions
below are the hand-written dict builders those replaced; each record must
serialize to the same JSON as its reference."""

import json
from dataclasses import asdict
from datetime import date

import pytest

from rfekit.attacks import AttackReport, Evidence, detect_rfe, load_bank
from rfekit.corpus import AttackMix, ClassSpec, CorpusConfig, config_sha256
from rfekit.drafting import (
    BENEFICIARY_FIELD_NAMES,
    PLACEHOLDER_NAMESPACE,
    RFE_FIELD_NAMES,
    BeneficiaryRecord,
    BeneficiaryStore,
    DraftingError,
    DraftManifest,
    RfeFields,
    draft_response,
    extract_fields,
    load_template_library,
)
from rfekit.evaluation import ConfusionCounts, Metrics, metrics


def as_json(obj) -> str:
    """The bytes every rfekit writer produces: sorted keys, 2-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2)


def reference_draft_manifest(m) -> dict:
    return {
        "status": m.status,
        "missing_fields": list(m.missing_fields),
        "template_ids": list(m.template_ids),
        "detected": list(m.detected),
        "threshold": m.threshold,
        "evidence": [list(e) for e in m.evidence],
        "case_number": m.case_number,
    }


def reference_attack_report(r) -> dict:
    return {
        "detected": list(r.detected),
        "threshold": r.threshold,
        "evidence": [
            {
                "sentence_index": e.sentence_index,
                "example_index": e.example_index,
                "similarity": e.similarity,
            }
            for e in r.evidence
        ],
    }


def reference_metrics(m) -> dict:
    return {"accuracy": m.accuracy, "precision": m.precision, "recall": m.recall, "f1": m.f1}


def reference_counts(c) -> dict:
    return {"tp": c.tp, "fp": c.fp, "fn": c.fn, "tn": c.tn}


def reference_corpus_config(c) -> dict:
    return {
        "seed": c.seed,
        "docs_per_class": c.docs_per_class,
        "classes": [
            {"name": s.name, "layout": s.layout, "type_line": s.type_line,
             "phrases": list(s.phrases)}
            for s in c.classes
        ],
        "n_rfes": c.n_rfes,
        "attack_mix": [
            {"attacks": list(m.attacks), "proportion": m.proportion} for m in c.attack_mix
        ],
        "ocr_noise_rate": c.ocr_noise_rate,
        "train_fraction": c.train_fraction,
    }


REFERENCE_RFE_FIELD_NAMES = (
    "case_number", "employee_name", "employer_name", "attorney_name", "rfe_date",
    "response_due_date",
)
REFERENCE_BENEFICIARY_FIELD_NAMES = (
    "case_number", "soc_code", "field_of_study", "degree", "institution",
)


def reference_rfe_values(f) -> dict:
    out = {}
    for name in REFERENCE_RFE_FIELD_NAMES:
        value = getattr(f, name)
        if value is not None:
            out[name] = value.isoformat() if isinstance(value, date) else value
    return out


def test_field_name_tuples_come_from_the_classes_unchanged():
    assert RFE_FIELD_NAMES == REFERENCE_RFE_FIELD_NAMES
    assert BENEFICIARY_FIELD_NAMES == REFERENCE_BENEFICIARY_FIELD_NAMES
    assert PLACEHOLDER_NAMESPACE == frozenset(
        REFERENCE_RFE_FIELD_NAMES + REFERENCE_BENEFICIARY_FIELD_NAMES + ("today",)
    )


@pytest.fixture(scope="module")
def seed42_reports(rfe_corpus_42):
    """(text, report, bank, store, library) for each of the 49 seed-42 RFEs."""
    root, manifest = rfe_corpus_42
    paths = manifest["paths"]
    bank = load_bank(root / paths["bank"])
    store = BeneficiaryStore.load(root / paths["store"])
    library = load_template_library(root / paths["templates"])
    out = []
    for rec in manifest["rfes"]:
        text = (root / rec["file"]).read_text("utf-8")
        out.append((text, detect_rfe(text, bank, 0.6), bank, store, library))
    return out


def test_draft_manifest_serializes_as_before_on_every_seed42_rfe(seed42_reports):
    """Each seed-42 draft's sidecar, and for an RFE the drafter refuses (no
    attack detected) the manifest of its empty detection."""
    statuses = set()
    for text, report, bank, store, library in seed42_reports:
        try:
            manifest = draft_response(text, bank, store, library, today=date(2021, 1, 1)).manifest
        except DraftingError:
            assert report.detected == ()
            manifest = DraftManifest(
                status="complete", missing_fields=(), template_ids=(),
                detected=report.detected, threshold=report.threshold,
                evidence=report.evidence, case_number=extract_fields(text).case_number,
            )
            statuses.add("refused")
        statuses.add(manifest.status)
        assert as_json(asdict(manifest)) == as_json(reference_draft_manifest(manifest))
    assert statuses == {"complete", "refused"}


def test_draft_manifest_with_missing_fields_and_no_case_number():
    manifest = DraftManifest(
        status="incomplete", missing_fields=("case_number", "degree"),
        template_ids=("t/any",), detected=("t",), threshold=0.5,
        evidence=(Evidence(2, 0, 1.0), Evidence(0, 3, 0.75)), case_number=None,
    )
    assert as_json(asdict(manifest)) == as_json(reference_draft_manifest(manifest))


def test_attack_report_record_as_before(seed42_reports):
    for _, report, *_ in seed42_reports:
        assert report.as_record() == reference_attack_report(report)
    empty = AttackReport(detected=(), evidence=(), threshold=1.0)
    assert empty.as_record() == reference_attack_report(empty)


@pytest.mark.parametrize(
    "counts", [ConfusionCounts(30, 2, 3, 14), ConfusionCounts(0, 0, 0, 5),
               ConfusionCounts(1, 0, 0, 0)],
)
def test_metrics_and_counts_records_as_before(counts):
    scores = metrics(counts)
    assert asdict(scores) == reference_metrics(scores)
    assert asdict(counts) == reference_counts(counts)
    assert list(asdict(Metrics(0.5, 0.25, 1.0, 0.4))) == ["accuracy", "precision", "recall", "f1"]


CUSTOM_CONFIG = CorpusConfig(
    seed=7, docs_per_class=3, n_rfes=4, ocr_noise_rate=0.0, train_fraction=0.5,
    classes=(ClassSpec("a", "approval-layout", "Type A", ("one", "two")),
             ClassSpec("b", "receipt-layout", "Type B", ())),
    attack_mix=(AttackMix(("specialty-occupation",), 0.75), AttackMix((), 0.25)),
)


@pytest.mark.parametrize("config", [CorpusConfig(), CUSTOM_CONFIG], ids=["default", "custom"])
def test_corpus_config_dict_as_before(config):
    assert as_json(config.as_dict()) == as_json(reference_corpus_config(config))
    assert CorpusConfig.from_dict(config.as_dict()) == config


def test_default_config_hash_unchanged():
    """The seed-42 manifest records this hash of the default config."""
    assert config_sha256(CorpusConfig()) == (
        "52c280f5ec182e2a15903b49d2eb9289f47c2d278c0b808172fbb03001bdc769"
    )


@pytest.mark.parametrize(
    "fields",
    [
        RfeFields(),
        RfeFields(case_number="X-1", attorney_name="J. Marsh"),
        RfeFields("X-1", "Asha Rao", "Initech", "J. Marsh", date(2021, 3, 3), date(2021, 6, 1)),
        RfeFields(employee_name="", rfe_date=date(2021, 12, 31)),
    ],
    ids=["empty", "missing-some", "all", "empty-string-and-date"],
)
def test_rfe_field_values_as_before(fields):
    assert fields.as_values() == reference_rfe_values(fields)
    assert list(fields.as_values()) == list(reference_rfe_values(fields))


def test_beneficiary_record_values_as_before():
    record = BeneficiaryRecord("X-1", "15-1211", "Computer Science", "BS", "U")
    assert record.as_values() == dict(zip(REFERENCE_BENEFICIARY_FIELD_NAMES, record))
    assert json.dumps(record._asdict()) == json.dumps(
        dict(zip(REFERENCE_BENEFICIARY_FIELD_NAMES, record))
    )
