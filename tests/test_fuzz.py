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
from rfekit.corpus import (
    CorpusConfig,
    CorpusFormatError,
    generate_corpus,
    load_document,
    load_document_dir,
    load_manifest,
)
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

from conftest import V1_FIXTURE

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


def test_store_load_for_a_case_matches_the_whole_store_load_on_mutants(rfe_corpus_42, tmp_path):
    """Whenever the whole store loads, loading it for any of its case numbers
    finds the same record."""
    root, manifest = rfe_corpus_42
    original = (root / manifest["paths"]["store"]).read_bytes()
    rng = random.Random(4242)
    path = tmp_path / "store.jsonl"
    loaded = 0
    for _ in range(MUTANTS):
        path.write_bytes(mutate(original, rng))
        try:
            whole = BeneficiaryStore.load(path)
        except StoreFormatError:
            continue
        loaded += 1
        for case_number, record in whole._records.items():
            assert BeneficiaryStore.load(path, case_number).lookup(case_number) == record
    assert loaded > 20


def scan_and_loop(path, case_number, lines):
    """The outcomes of loading the store for ``case_number`` from the file at
    ``path`` (the scan of its text) and from its ``lines`` (the loop over
    them); with ``lines`` None (the file is not UTF-8) the scan must refuse."""
    scan = store_outcome(lambda p: BeneficiaryStore.load(p, case_number), path)
    if lines is None:
        assert scan[0] == "error" and "not UTF-8" in scan[1]
        return scan, scan
    return scan, store_outcome(lambda _: BeneficiaryStore.load(lines, case_number), path)


def file_lines(path):
    try:
        return path.read_text("utf-8").splitlines()
    except UnicodeDecodeError:
        return None


def test_store_scan_for_a_case_equals_the_line_loop_on_mutants(rfe_corpus_42, tmp_path):
    """For every mutant and every case number of the original store, the
    lookup that scans the file's text gives the records, or the error
    message, of the loop over the file's lines."""
    root, manifest = rfe_corpus_42
    original = (root / manifest["paths"]["store"]).read_bytes()
    cases = [json.loads(line)["case_number"] for line in original.decode().splitlines()]
    rng = random.Random(4343)
    path = tmp_path / "store.jsonl"
    outcomes = set()
    for _ in range(MUTANTS):
        path.write_bytes(mutate(original, rng))
        lines = file_lines(path)
        for case_number in cases:
            scan, loop = scan_and_loop(path, case_number, lines)
            assert scan == loop, case_number
            outcomes.add(scan[0] if lines is not None else "utf-8")
    assert outcomes == {"ok", "error", "utf-8"}


def store_text(*records, sep="\n"):
    """The JSON lines of ``records``, joined by ``sep``: each a case number, a
    (case number, institution) pair, the institution put in unescaped, or a
    raw line (empty or starting with ``{``)."""
    lines = []
    for record in records:
        if not record or record[0] == "{":
            lines.append(record)
            continue
        case, institution = record if isinstance(record, tuple) else (record, "U")
        lines.append(json.dumps({
            "case_number": case, "soc_code": "15-1252", "field_of_study": "CS",
            "degree": "BS", "institution": "@",
        }).replace('"@"', f'"{institution}"'))
    return sep.join(lines)


FAR = ["F-%d" % i for i in range(40)]  # records that never hold X-1


@pytest.mark.parametrize("data, case_number, expected", [
    (store_text("X-1", *FAR) + "\n", "X-1", ("ok", ["X-1"])),
    (store_text(*FAR, "X-1"), "X-1", ("ok", ["X-1"])),
    (store_text("X-0", "", "X-1", sep="\r\n") + "\r\n", "X-1", ("ok", ["X-1"])),
    (store_text("X-0", "", "{bad X-1", sep="\r\n"), "X-1", ("error", "store line 3")),
    (store_text("X-0", "X-1", "X-2", sep="\r"), "X-1", ("ok", ["X-1"])),
    (store_text("X-0", "", "{bad X-1", sep="\r"), "X-1", ("error", "store line 3")),
    (store_text(("X-1", "U\u2028V")) + "\n", "X-1", ("error", "store line 1")),
    (store_text(("X-0", "U\u2028V"), "{bad X-1"), "X-1", ("error", "store line 3")),
    (store_text(("X-1", "U\x0bV")) + "\n", "X-1", ("error", "store line 1")),
    (store_text(("X-0", "U\x0bV"), "", "{bad X-1"), "X-1", ("error", "store line 4")),
    (store_text("X-0", "X-2", "{bad X-1", sep="\x0b"), "X-1", ("error", "store line 3")),
    (store_text(*FAR[:3], "X-1", *FAR[3:], ("X-1", "V")), "X-1",
     ("error", "duplicate case number 'X-1'")),
    (store_text("X-0", '{"case_number": "\\u0058-1", "soc_code": "15-1252", '
                '"field_of_study": "CS", "degree": "BS", "institution": "U"}'),
     "X-1", ("ok", ["X-1"])),
    (store_text("X-0", "{not json", *FAR, "X-1"), "X-1", ("ok", ["X-1"])),
    (store_text("X-0", "{not json", *FAR, "X-1", "{bad X-1 \\ too"), "X-1",
     ("error", "store line 44")),
    (store_text("X-0", "X-1", "X-2"), "", ("ok", ["X-0", "X-1", "X-2"])),
    ("", "X-1", ("ok", [])),
], ids=["first-line", "last-line-no-newline", "crlf", "crlf-line-number", "lone-cr",
        "lone-cr-line-number", "u2028-in-match", "u2028-line-number", "vt-in-match",
        "vt-line-number", "vt-line-ends", "duplicate", "escaped", "malformed-elsewhere",
        "malformed-match-far-down", "empty-case-number", "empty-file"])
def test_store_scan_for_a_case_equals_the_line_loop(tmp_path, data, case_number, expected):
    path = tmp_path / "store.jsonl"
    path.write_bytes(data.encode("utf-8"))
    scan, loop = scan_and_loop(path, case_number, file_lines(path))
    assert scan == loop
    kind, detail = expected
    assert scan[0] == kind
    if kind == "ok":
        assert [fields[0] for fields in scan[1]] == detail
    else:
        assert scan[1].startswith(detail)


def test_store_scan_for_a_case_refuses_a_non_utf8_byte_far_from_the_match(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_bytes(store_text("X-1", *FAR).encode("utf-8") + b"\n" + b'{"f": "\xff"}\n')
    assert file_lines(path) is None
    scan, _ = scan_and_loop(path, "X-1", None)
    assert scan[1].startswith(f"cannot read store {path}: not UTF-8")


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
    """A seed-42 PGM page, the vocabulary, text model and every file of a
    bundle trained on the seed-42 documents, and the committed v1 model."""
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
        "model-v1": V1_FIXTURE.read_bytes(),
        "bundle": {p.name: p.read_bytes() for p in bundle.iterdir()},
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
        ("model-v1", load_model, ModelFormatError, SoftmaxClassifier),
    ],
)
def test_document_artifact_mutants_raise_only_format_error(
    doc_artifacts_42, artifact, load, error, kind
):
    outcomes = fuzz_outcomes(load, doc_artifacts_42[artifact], error, seed=len(artifact))
    assert error in outcomes
    assert any(isinstance(o, kind) for o in outcomes)
    assert all(o is error or isinstance(o, kind) for o in outcomes)


def test_bundle_manifest_mutants_raise_only_value_error_naming_bundle(
    doc_artifacts_42, tmp_path
):
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    for name, data in doc_artifacts_42["bundle"].items():
        (bundle / name).write_bytes(data)
    original = (bundle / "bundle.json").read_bytes()

    def load(data):
        (bundle / "bundle.json").write_bytes(data)
        try:
            return EnsembleDocumentClassifier.load(bundle)
        except ValueError as exc:
            assert str(exc).startswith(f"bundle {bundle}: ")
            raise

    outcomes = fuzz_outcomes(load, original, ValueError, seed=13)
    assert ValueError in outcomes
    assert any(isinstance(o, EnsembleDocumentClassifier) for o in outcomes)
    assert all(o is ValueError or isinstance(o, EnsembleDocumentClassifier)
               for o in outcomes)


def test_pattern_mutants_raise_only_pattern_format_error(rfe_corpus_42, tmp_path):
    root, manifest = rfe_corpus_42
    original = (root / manifest["paths"]["patterns"]).read_bytes()
    path = tmp_path / "patterns.json"

    def load(data):
        path.write_bytes(data)
        return load_field_patterns(path)

    outcomes = fuzz_outcomes(load, original, PatternFormatError, seed=7)
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

    # Point one entry at a readable copy of its body outside the library, in
    # a subdirectory, or by a relative path: the name rule alone rejects it.
    outside = tmp_path / "outside"
    (library / "sub").mkdir()
    outside.mkdir()
    for body in list(library.iterdir()):
        if body.is_file():
            (outside / body.name).write_bytes(body.read_bytes())
            (library / "sub" / body.name).write_bytes(body.read_bytes())
    rng = random.Random(12)
    for _ in range(MUTANTS // 10):
        mutant = json.loads(original)
        entry = rng.choice(mutant["templates"])
        entry["file"] = rng.choice([
            "../outside/" + entry["file"], str(outside / entry["file"]),
            "sub/" + entry["file"], "./" + entry["file"], "..", ".",
        ])
        with pytest.raises(TemplateFormatError, match="not a file name"):
            load(json.dumps(mutant).encode("utf-8"))


def test_corpus_manifest_mutants_raise_only_corpus_format_error(corpus_42, tmp_path):
    """Mutants of the seed-42 manifest.json; each document record a mutant
    changed is loaded from the corpus on both channels. Only
    CorpusFormatError escapes, or PgmError for a page that names a file that
    is not a PGM image."""
    root, _ = corpus_42
    original = (root / "manifest.json").read_bytes()
    unchanged = {json.dumps(r, sort_keys=True) for r in json.loads(original)["documents"]}
    rng = random.Random(31)
    outcomes = set()
    for _ in range(MUTANTS):
        (tmp_path / "manifest.json").write_bytes(mutate(original, rng))
        try:
            manifest = load_manifest(tmp_path)
            for record in manifest["documents"]:
                if json.dumps(record, sort_keys=True) not in unchanged:
                    outcomes.add("changed")
                    for channel in ("ocr", "clean"):
                        load_document(root, record, channel)
        except (CorpusFormatError, PgmError) as exc:
            outcomes.add(type(exc))
            continue
        outcomes.add("ok")
    assert {"ok", "changed", CorpusFormatError} <= outcomes


def test_doc_json_mutants_raise_only_corpus_format_error(corpus_42, tmp_path):
    root, manifest = corpus_42
    source = root / manifest["documents"][0]["dir"]
    for path in source.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    original = (source / "doc.json").read_bytes()
    rng = random.Random(37)
    outcomes = set()
    for _ in range(MUTANTS):
        (tmp_path / "doc.json").write_bytes(mutate(original, rng))
        try:
            for channel in ("ocr", "clean"):
                load_document_dir(tmp_path, channel)
        except (CorpusFormatError, PgmError) as exc:
            outcomes.add(type(exc))
            continue
        outcomes.add("ok")
    assert {"ok", CorpusFormatError} <= outcomes


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
