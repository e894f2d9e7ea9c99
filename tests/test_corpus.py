import hashlib
import json
import re
from pathlib import Path

import pytest

from rfekit.cli import run
from rfekit.corpus import (
    BANK_SENTENCES,
    AttackMix,
    ClassSpec,
    CorpusConfig,
    CorpusFormatError,
    SeededRng,
    corrupt_text,
    generate_corpus,
    load_document,
    load_document_dir,
    load_manifest,
    paraphrase_sentence,
    token_overlap,
)


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def small_config(**overrides):
    base = dict(seed=7, docs_per_class=4, n_rfes=8, ocr_noise_rate=0.1)
    base.update(overrides)
    return CorpusConfig(**base)


def test_rng_is_reproducible():
    a = SeededRng("x")
    b = SeededRng("x")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_rng_children_are_independent_of_call_order():
    root = SeededRng("root")
    child_first = root.child("a")
    value = child_first.random()
    root.random()  # advancing the parent must not affect children
    assert root.child("a").random() == value


def test_rng_randbelow_bounds():
    rng = SeededRng(3)
    values = [rng.randbelow(7) for _ in range(500)]
    assert min(values) >= 0 and max(values) < 7
    assert set(values) == set(range(7))


def test_rng_shuffle_permutation():
    rng = SeededRng("s")
    items = list(range(20))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items


def test_same_seed_gives_byte_identical_trees(tmp_path):
    generate_corpus(small_config(), tmp_path / "one")
    generate_corpus(small_config(), tmp_path / "two")
    assert tree_digest(tmp_path / "one") == tree_digest(tmp_path / "two")


@pytest.mark.parametrize(
    "options, digest",
    [
        ([], "931503794295f8ec6477189b95c1041ab0b6764bef76623b535f27aeebbe378a"),
        (["--docs-per-class", "0", "--rfes", "0"],
         "b5aa94ec0bbe99efd13639a9af229d4bedfa233a79fa364a754719b81847f48e"),
    ],
    ids=["default", "empty"],
)
def test_seed42_corpus_tree_is_pinned(tmp_path, options, digest):
    """One byte tree per seed, across Python and numpy versions and across
    commits: ``gen-corpus --seed 42`` writes exactly this tree."""
    assert run(["gen-corpus", "--out", str(tmp_path / "c"), "--seed", "42", *options]) == 0
    assert tree_digest(tmp_path / "c") == digest


def test_different_seed_changes_tree(tmp_path):
    generate_corpus(small_config(), tmp_path / "one")
    generate_corpus(small_config(seed=8), tmp_path / "two")
    assert tree_digest(tmp_path / "one") != tree_digest(tmp_path / "two")


def test_doc_count_mirrors_config(tmp_path):
    manifest = generate_corpus(small_config(docs_per_class=52, n_rfes=0), tmp_path)
    assert len(manifest["documents"]) == 104


def test_zero_noise_channels_identical(tmp_path):
    manifest = generate_corpus(small_config(ocr_noise_rate=0.0), tmp_path)
    for rec in manifest["documents"]:
        doc_dir = tmp_path / rec["dir"]
        clean = (doc_dir / rec["clean_text"]).read_text("utf-8")
        ocr = (doc_dir / rec["ocr_text"]).read_text("utf-8")
        assert clean == ocr


def test_noise_preserves_length_and_newlines():
    rng = SeededRng("n")
    text = "line one\nline two\nline three"
    noisy = corrupt_text(text, 0.5, rng)
    assert len(noisy) == len(text)
    assert noisy.count("\n") == text.count("\n")


def test_ground_truth_complete(tmp_path):
    manifest = generate_corpus(small_config(), tmp_path)
    for rec in manifest["documents"]:
        assert rec["label"]
        assert rec["split"] in ("train", "test")
        assert (tmp_path / rec["dir"] / "doc.json").exists()
        for page in rec["pages"]:
            assert (tmp_path / rec["dir"] / page).exists()
    for rec in manifest["rfes"]:
        assert (tmp_path / rec["file"]).exists()
        assert set(rec["fields"]) == {
            "case_number",
            "employee_name",
            "employer_name",
            "attorney_name",
            "rfe_date",
            "response_due_date",
        }


def test_attack_mix_counts_exact(tmp_path):
    manifest = generate_corpus(small_config(n_rfes=49), tmp_path)
    config = CorpusConfig.from_dict(manifest["config"])
    profile_counts = {}
    for rec in manifest["rfes"]:
        key = tuple(sorted(rec["attacks"]))
        profile_counts[key] = profile_counts.get(key, 0) + 1
    expected_total = 0
    for mix in config.attack_mix:
        expected = mix.proportion * 49
        key = tuple(sorted(mix.attacks))
        count = profile_counts.get(key, 0)
        assert abs(count - expected) < 1.0  # largest-remainder: floor or ceil
        expected_total += count
    assert expected_total == 49


def test_split_fractions(tmp_path):
    manifest = generate_corpus(
        small_config(docs_per_class=10, train_fraction=0.8, n_rfes=0), tmp_path
    )
    for label in ("approval-notice", "receipt-notice"):
        train = [
            r
            for r in manifest["documents"]
            if r["label"] == label and r["split"] == "train"
        ]
        assert len(train) == 8


def test_beneficiary_store_covers_every_rfe(tmp_path):
    manifest = generate_corpus(small_config(), tmp_path)
    store_lines = (tmp_path / "beneficiaries.jsonl").read_text("utf-8").splitlines()
    known = {json.loads(line)["case_number"] for line in store_lines}
    for rec in manifest["rfes"]:
        assert rec["case_number"] in known


def test_extracted_fields_match_ground_truth(tmp_path):
    from rfekit.drafting import extract_fields

    manifest = generate_corpus(small_config(n_rfes=12), tmp_path)
    for rec in manifest["rfes"]:
        fields = extract_fields((tmp_path / rec["file"]).read_text("utf-8"))
        truth = rec["fields"]
        assert fields.case_number == truth["case_number"]
        assert fields.employee_name == truth["employee_name"]
        assert fields.employer_name == truth["employer_name"]
        assert fields.attorney_name == truth["attorney_name"]
        assert fields.rfe_date.isoformat() == truth["rfe_date"]
        assert fields.response_due_date.isoformat() == truth["response_due_date"]


def test_paraphrase_overlap_guarantee():
    for attack_id, sentences in BANK_SENTENCES.items():
        for s_i, sentence in enumerate(sentences):
            tokens = sentence.split()
            for trial in range(50):
                rng = SeededRng(f"test/{attack_id}/{s_i}/{trial}")
                out = paraphrase_sentence(tokens, rng)
                assert token_overlap(tokens, out) >= 0.6


def test_paraphrase_can_be_identity():
    tokens = "provide evidence that the position requires a degree".split()
    seen_identity = False
    for trial in range(100):
        out = paraphrase_sentence(tokens, SeededRng(f"id/{trial}"))
        if out == tokens:
            seen_identity = True
            break
    assert seen_identity


def test_paraphrase_single_drop_overlap():
    # 5 tokens with one drop -> 4 tokens, overlap 0.8
    tokens = ["alpha", "beta", "gamma", "delta", "epsilon"]
    for trial in range(200):
        out = paraphrase_sentence(tokens, SeededRng(f"d/{trial}"))
        if len(out) == 4 and all(t in tokens for t in out):
            assert token_overlap(tokens, out) == pytest.approx(0.8)
            return
    pytest.fail("drop edit never drawn")


def test_paraphrase_rejects_too_short():
    with pytest.raises(ValueError):
        paraphrase_sentence(["a", "b"], SeededRng(1))


def test_config_validation():
    with pytest.raises(ValueError, match="ocr_noise_rate"):
        CorpusConfig(ocr_noise_rate=1.0).validate()
    with pytest.raises(ValueError, match="sum"):
        from rfekit.corpus import AttackMix

        CorpusConfig(attack_mix=(AttackMix(("specialty-occupation",), 0.5),)).validate()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CorpusConfig(docs_per_class=-1).validate(), "docs_per_class and n_rfes"),
        (lambda: CorpusConfig(n_rfes=-1).validate(), "docs_per_class and n_rfes"),
        (lambda: CorpusConfig(train_fraction=1.5).validate(), r"train_fraction must be in"),
        (lambda: CorpusConfig(classes=()).validate(), "no classes configured"),
        (lambda: CorpusConfig(classes=(ClassSpec("a", "no-layout", "A", ("x",)),)).validate(),
         "unknown layout style 'no-layout'"),
        (lambda: CorpusConfig(attack_mix=(AttackMix(("no-attack",), 1.0),)).validate(),
         r"unknown attacks \['no-attack'\]"),
        (lambda: SeededRng(1).randbelow(0), "randbelow needs n >= 1, got 0"),
        (lambda: SeededRng(1).sample([1, 2], 3), "cannot sample 3 from 2 items"),
    ],
    ids=["negative-docs", "negative-rfes", "train-fraction", "no-classes", "unknown-layout",
         "unknown-attack", "randbelow-0", "sample-too-many"],
)
def test_invalid_config_or_rng_request_is_refused_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_config_roundtrip_through_dict():
    config = small_config()
    assert CorpusConfig.from_dict(config.as_dict()) == config


def test_manifest_loads_and_documents_materialize(tmp_path):
    generate_corpus(small_config(), tmp_path)
    manifest = load_manifest(tmp_path)
    doc = load_document(tmp_path, manifest["documents"][0], channel="clean")
    assert doc.pages[0].width > 0
    assert doc.text
    noisy = load_document(tmp_path, manifest["documents"][0], channel="ocr")
    assert noisy.doc_id == doc.doc_id


@pytest.mark.parametrize("channel", ["ocr", "clean"])
def test_document_dir_matches_manifest_document(tmp_path, channel):
    generate_corpus(small_config(), tmp_path)
    record = load_manifest(tmp_path)["documents"][0]
    from_manifest = load_document(tmp_path, record, channel)
    from_dir = load_document_dir(tmp_path / record["dir"], channel)
    assert from_dir.doc_id == from_manifest.doc_id
    assert from_dir.text == from_manifest.text
    assert [p.pixels.tolist() for p in from_dir.pages] == [
        p.pixels.tolist() for p in from_manifest.pages
    ]


def test_document_loaders_reject_unknown_channel(tmp_path):
    generate_corpus(small_config(), tmp_path)
    record = load_manifest(tmp_path)["documents"][0]
    with pytest.raises(ValueError, match="unknown text channel"):
        load_document(tmp_path, record, "bogus")
    with pytest.raises(ValueError, match="unknown text channel"):
        load_document_dir(tmp_path / record["dir"], "bogus")


def _edit_json(path, edit):
    data = json.loads(path.read_text("utf-8"))
    edit(data)
    path.write_text(json.dumps(data), "utf-8")


def _set(key, value, record=None):
    def edit(data):
        (data if record is None else data[record][0])[key] = value

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m.pop("paths"),
        lambda m: m["paths"].pop("bank"),
        _set("paths", ["bank.jsonl"]),
        lambda m: m["paths"].update(bank="/etc/hostname"),
        lambda m: m["paths"].update(templates="../templates"),
        _set("documents", {}),
        lambda m: m.pop("rfes"),
        lambda m: m["documents"].append("docs/doc-0000"),
        lambda m: m["documents"][0].pop("dir"),
        _set("dir", "../other/docs/doc-0000", "documents"),
        _set("dir", "docs/../../doc-0000", "documents"),
        _set("dir", "/tmp", "documents"),
        _set("dir", "", "documents"),
        _set("dir", "docs/doc\u0000", "documents"),
        _set("pages", "page-0.pgm", "documents"),
        _set("pages", ["page-0.pgm", None], "documents"),
        _set("pages", ["../doc-0001/page-0.pgm"], "documents"),
        _set("ocr_text", "/etc/hostname", "documents"),
        _set("label", 1, "documents"),
        lambda m: m["documents"][0].pop("split"),
        _set("file", "/etc/hostname", "rfes"),
        _set("file", "rfes/../../outside.txt", "rfes"),
        _set("attacks", "specialty-occupation", "rfes"),
        _set("id", None, "rfes"),
        _set("version", 2),
        _set("format", "other"),
    ],
    ids=[
        "no-paths", "no-bank", "paths-list", "bank-absolute", "templates-dotdot",
        "documents-object", "no-rfes", "document-string", "no-dir", "dir-dotdot",
        "dir-inner-dotdot", "dir-absolute", "dir-empty", "dir-nul", "pages-string",
        "page-null", "page-dotdot", "ocr-absolute", "label-int", "no-split",
        "rfe-absolute", "rfe-dotdot", "attacks-string", "rfe-id-null", "version",
        "format",
    ],
)
def test_malformed_manifest_raises_corpus_format_error(tmp_path, edit):
    generate_corpus(small_config(), tmp_path)
    _edit_json(tmp_path / "manifest.json", edit)
    with pytest.raises(CorpusFormatError, match=re.escape(str(tmp_path / "manifest.json"))):
        load_manifest(tmp_path)


@pytest.mark.parametrize(
    "data",
    [b"\xff\xfe{}", b"{not json", b"[]", b"[" * 100_000, b"1" + b"0" * 5000],
    ids=["not-utf-8", "not-json", "list", "deep", "5000-digit-int"],
)
def test_unreadable_manifest_and_doc_json_raise_corpus_format_error(tmp_path, data):
    manifest = generate_corpus(small_config(), tmp_path)
    doc_dir = tmp_path / manifest["documents"][0]["dir"]
    (tmp_path / "manifest.json").write_bytes(data)
    (doc_dir / "doc.json").write_bytes(data)
    with pytest.raises(CorpusFormatError, match="manifest.json"):
        load_manifest(tmp_path)
    with pytest.raises(CorpusFormatError, match="doc.json"):
        load_document_dir(doc_dir)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.pop("pages"),
        _set("pages", ["page-0.pgm", 0]),
        _set("pages", ["/etc/hostname"]),
        _set("text", "../doc-0001/ocr.txt"),
        _set("clean_text", None),
        _set("id", 7),
    ],
    ids=["no-pages", "page-int", "page-absolute", "text-dotdot", "clean-null", "id-int"],
)
def test_malformed_doc_json_raises_corpus_format_error(tmp_path, edit):
    manifest = generate_corpus(small_config(), tmp_path)
    doc_dir = tmp_path / manifest["documents"][0]["dir"]
    _edit_json(doc_dir / "doc.json", edit)
    with pytest.raises(CorpusFormatError, match=re.escape(str(doc_dir / "doc.json"))):
        load_document_dir(doc_dir)


@pytest.mark.parametrize(
    "damage", ["missing-page", "unencodable-page-name", "text-not-utf-8", "text-is-dir"]
)
def test_unreadable_named_file_raises_corpus_format_error_naming_it(tmp_path, damage):
    manifest = generate_corpus(small_config(), tmp_path)
    record = manifest["documents"][0]
    doc_dir = tmp_path / record["dir"]
    what = "page"
    if damage == "missing-page":
        broken = doc_dir / record["pages"][0]
        broken.unlink()
    elif damage == "unencodable-page-name":
        broken = doc_dir / "page-\ud800.pgm"
        for path, key in ((tmp_path / "manifest.json", "documents"), (doc_dir / "doc.json", None)):
            _edit_json(path, _set("pages", [broken.name], key))
    else:
        what = "document text"
        broken = doc_dir / record["ocr_text"]
        broken.unlink()
        if damage == "text-is-dir":
            broken.mkdir()
        else:
            broken.write_bytes(b"\xff\xfe")
    match = f"^cannot read {what} {re.escape(str(broken))}: "
    with pytest.raises(CorpusFormatError, match=match):
        load_document(tmp_path, load_manifest(tmp_path)["documents"][0])
    with pytest.raises(CorpusFormatError, match=match):
        load_document_dir(doc_dir)
