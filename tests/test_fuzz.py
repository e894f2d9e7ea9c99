"""Seeded mutation fuzz of the file loaders over seed-42 artifacts.

Each mutant is a valid file with one to three byte-level edits. Only the
format's own error may escape a loader; the beneficiary store must also give
exactly the records, or exactly the error, of the loader it replaced.
"""

import json
import random
import warnings
from dataclasses import dataclass

import pytest

from rfekit.attacks import BankFormatError, ExampleBank, load_bank
from rfekit.classify import ModelFormatError, SoftmaxClassifier, load_model
from rfekit.corpus import CorpusConfig, generate_corpus, load_document
from rfekit.drafting import (
    BENEFICIARY_FIELD_NAMES,
    BeneficiaryRecord,
    BeneficiaryStore,
    PatternFormatError,
    StoreFormatError,
    TemplateFormatError,
    load_field_patterns,
    load_template_library,
)
from rfekit.ensemble import EnsembleDocumentClassifier
from rfekit.image import PageImage, PgmError, decode_pgm
from rfekit.vectorize import Vocabulary, VocabularyFormatError, load_vocab

MUTANTS = 400
FRAGMENTS = [
    b"{", b"}", b"[", b"]", b'"', b":", b",", b"\\", b" ", b"\n", b"\r", b"0",
    b"9", b"-", b"x", b"null", b"true", b"1e999", b"\xc3\xa9", b"\xff", b"\xe2\x82",
    b'"case_number": "A"', b'"soc_code": "1-2"', b'"sentence": ""',
]


def mutate(data: bytes, rng: random.Random) -> bytes:
    for _ in range(rng.randint(1, 3)):
        lines = data.split(b"\n")
        op = rng.randrange(7)
        pos = rng.randrange(len(data) + 1)
        if op == 0:
            data = data[:pos] + rng.choice(FRAGMENTS) + data[pos:]
        elif op == 1:
            data = data[:pos] + data[pos + rng.randint(1, 8):]
        elif op == 2 and data:
            data = data[:pos] + bytes([rng.randrange(256)]) + data[pos + 1:]
        elif op == 3:
            data = data[:pos]
        elif op == 4:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
            data = b"\n".join(lines)
        elif op == 5:
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
            data = b"\n".join(lines)
        else:
            data = data.replace(b"\n", b"", 1)
    return data


@dataclass(frozen=True)
class _FrozenRecord:
    case_number: str
    soc_code: str
    field_of_study: str
    degree: str
    institution: str


def reference_store_load(path):
    """``BeneficiaryStore.load`` as it was with frozen-dataclass records."""
    lines = path.read_text("utf-8").splitlines()
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            records.append(
                _FrozenRecord(**{k: str(obj[k]) for k in BENEFICIARY_FIELD_NAMES})
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise StoreFormatError(f"store line {lineno}: {exc}") from None
    return BeneficiaryStore(records)


def store_outcome(load, path):
    """("ok", every record's fields in store order) or ("error", the message)."""
    try:
        store = load(path)
    except StoreFormatError as exc:
        return "error", str(exc)
    return "ok", [tuple(getattr(r, k) for k in BENEFICIARY_FIELD_NAMES)
                  for r in store._records.values()]


def test_store_load_mutants_match_reference(rfe_corpus_42, tmp_path):
    root, manifest = rfe_corpus_42
    original = (root / manifest["paths"]["store"]).read_bytes()
    rng = random.Random(4242)
    path = tmp_path / "store.jsonl"
    outcomes = set()
    for _ in range(MUTANTS):
        path.write_bytes(mutate(original, rng))
        try:
            expected = store_outcome(reference_store_load, path)
        except UnicodeDecodeError:
            with pytest.raises(StoreFormatError, match="not UTF-8"):
                BeneficiaryStore.load(path)
            outcomes.add("utf-8")
            continue
        assert store_outcome(BeneficiaryStore.load, path) == expected
        outcomes.add(expected[0])
    assert outcomes == {"ok", "error", "utf-8"}


def test_bank_load_mutants_raise_only_bank_format_error(rfe_corpus_42, tmp_path):
    root, manifest = rfe_corpus_42
    original = (root / manifest["paths"]["bank"]).read_bytes()
    rng = random.Random(2424)
    path = tmp_path / "bank.jsonl"
    outcomes = set()
    for _ in range(MUTANTS):
        path.write_bytes(mutate(original, rng))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                bank = load_bank(path)
            except BankFormatError:
                outcomes.add("error")
                continue
        assert isinstance(bank, ExampleBank) and bank.examples
        outcomes.add("ok")
    assert outcomes == {"ok", "error"}


@pytest.fixture(scope="module")
def doc_artifacts_42(tmp_path_factory):
    """A seed-42 PGM page, and the vocabulary and text model of a bundle
    trained on the seed-42 documents."""
    root = tmp_path_factory.mktemp("doc-corpus-42")
    manifest = generate_corpus(CorpusConfig(seed=42, docs_per_class=1, n_rfes=0), root)
    records = manifest["documents"]
    docs = [load_document(root, rec) for rec in records]
    bundle = root / "bundle"
    EnsembleDocumentClassifier(max_iters=20).fit(
        docs, [rec["label"] for rec in records]
    ).save(bundle)
    return {
        "page": (root / records[0]["dir"] / records[0]["pages"][0]).read_bytes(),
        "vocab": (bundle / "vocab.txt").read_bytes(),
        "model": (bundle / "text-model.json").read_bytes(),
    }


def fuzz_outcomes(load, original, error, seed):
    """Load MUTANTS mutants of ``original``; any exception but ``error`` fails.

    Warnings are ignored: a mutated regex makes ``re.compile`` warn.
    """
    rng = random.Random(seed)
    outcomes = []
    for _ in range(MUTANTS):
        data = mutate(original, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                outcomes.append(load(data))
            except error:
                outcomes.append(error)
    return outcomes


@pytest.mark.parametrize(
    "artifact, load, error, kind",
    [
        ("page", decode_pgm, PgmError, PageImage),
        ("vocab", load_vocab, VocabularyFormatError, Vocabulary),
        ("model", load_model, ModelFormatError, SoftmaxClassifier),
    ],
)
def test_document_artifact_mutants_raise_only_format_error(
    doc_artifacts_42, artifact, load, error, kind
):
    outcomes = fuzz_outcomes(load, doc_artifacts_42[artifact], error, seed=len(artifact))
    assert error in outcomes
    assert any(isinstance(o, kind) for o in outcomes)
    assert all(o is error or isinstance(o, kind) for o in outcomes)


def test_pattern_mutants_raise_only_pattern_format_error(rfe_corpus_42):
    root, manifest = rfe_corpus_42
    original = (root / manifest["paths"]["patterns"]).read_bytes()
    outcomes = fuzz_outcomes(load_field_patterns, original, PatternFormatError, seed=7)
    assert PatternFormatError in outcomes
    assert any(isinstance(o, dict) for o in outcomes)


def test_template_manifest_mutants_raise_only_template_format_error(
    rfe_corpus_42, tmp_path
):
    root, manifest = rfe_corpus_42
    library = tmp_path / "templates"
    library.mkdir()
    for body in (root / manifest["paths"]["templates"]).iterdir():
        (library / body.name).write_bytes(body.read_bytes())
    original = (library / "templates.json").read_bytes()

    def load(data):
        (library / "templates.json").write_bytes(data)
        return load_template_library(library)

    outcomes = fuzz_outcomes(load, original, TemplateFormatError, seed=11)
    assert TemplateFormatError in outcomes
    assert any(isinstance(o, tuple) and o for o in outcomes)


def test_store_records_are_immutable_named_tuples(rfe_corpus_42):
    root, manifest = rfe_corpus_42
    store = BeneficiaryStore.load(root / manifest["paths"]["store"])
    record = store.lookup(manifest["rfes"][0]["case_number"])
    assert isinstance(record, BeneficiaryRecord)
    assert record._fields == BENEFICIARY_FIELD_NAMES
    assert record.as_values() == {k: getattr(record, k) for k in BENEFICIARY_FIELD_NAMES}
    with pytest.raises(AttributeError):
        record.soc_code = "00-0000"


@pytest.mark.parametrize(
    "line",
    ['{"case_number": 1' + "0" * 5000 + "}", "[" * 100_000],
    ids=["5000-digit-int", "deep-nesting"],
)
def test_decoder_limits_raise_format_errors(line):
    with pytest.raises(StoreFormatError, match="store line 2"):
        BeneficiaryStore.load(["", line])
    with pytest.raises(BankFormatError, match="bank line 1"):
        load_bank([line])
    with pytest.raises(ModelFormatError, match="unreadable"):
        load_model(line.encode())
