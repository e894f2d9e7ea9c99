import ast
import json
import os
import re
import shutil
import stat
from pathlib import Path

import numpy as np
import pytest

from rfekit import ioutil
from rfekit.attacks import BankFormatError, load_bank
from rfekit.classify import (
    ModelFormatError,
    SoftmaxClassifier,
    _payload_digest,
    load_model,
    save_model,
)
from rfekit.cli import UsageError, build_parser, run
from rfekit.corpus import (
    CorpusConfig,
    CorpusFormatError,
    generate_corpus,
    load_document,
    load_document_dir,
    load_manifest,
)
from rfekit.drafting import (
    BeneficiaryStore,
    PatternFormatError,
    StoreFormatError,
    TemplateFormatError,
    load_field_patterns,
    load_template_library,
)
from rfekit.ensemble import EnsembleDocumentClassifier
from rfekit.ioutil import (
    NAME,
    PATH,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    check_fields,
    is_a,
    json_text,
    read_bytes,
    read_json,
    read_text,
)


def test_write_creates_parents_and_leaves_no_temp(tmp_path):
    target = tmp_path / "a" / "b" / "out.txt"
    atomic_write_text(target, "hello\n")
    assert target.read_text("utf-8") == "hello\n"
    assert list(target.parent.iterdir()) == [target]


def test_second_writer_between_write_and_rename(tmp_path, monkeypatch):
    """A complete write to the same path lands while the first is mid-flight.

    Both writers must finish; the later rename wins, and no temp file stays.
    """
    target = tmp_path / "out.txt"
    real_replace = os.replace
    interleaved = []

    def replace(src, dst):
        if not interleaved:
            interleaved.append(src)
            atomic_write_bytes(target, b"second")
            assert target.read_bytes() == b"second"
        real_replace(src, dst)

    monkeypatch.setattr(ioutil.os, "replace", replace)
    atomic_write_bytes(target, b"first")
    assert interleaved
    assert target.read_bytes() == b"first"
    assert list(tmp_path.iterdir()) == [target]


def test_failed_rename_removes_temp_and_keeps_old(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    target.write_bytes(b"old")

    def replace(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(ioutil.os, "replace", replace)
    with pytest.raises(OSError, match="disk gone"):
        atomic_write_bytes(target, b"new")
    assert target.read_bytes() == b"old"
    assert list(tmp_path.iterdir()) == [target]


def test_failed_data_write_removes_temp(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    real_write_bytes = ioutil.Path.write_bytes

    def write_bytes(self, data):
        real_write_bytes(self, data[:1])
        raise OSError("disk full")

    monkeypatch.setattr(ioutil.Path, "write_bytes", write_bytes)
    with pytest.raises(OSError, match="disk full"):
        atomic_write_bytes(target, b"new")
    assert list(tmp_path.iterdir()) == []


def test_file_mode_follows_umask(tmp_path):
    plain = tmp_path / "plain"
    plain.write_bytes(b"x")
    target = tmp_path / "out"
    atomic_write_bytes(target, b"x")
    assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_atomic_write_json_bytes(tmp_path):
    atomic_write_json(tmp_path / "out.json", {"b": 1, "a": [1, "\u00e9"]})
    assert (tmp_path / "out.json").read_bytes() == (
        b'{\n  "a": [\n    1,\n    "\\u00e9"\n  ],\n  "b": 1\n}\n'
    )
    assert json_text({"b": 1, "a": [1, "\u00e9"]}) == (tmp_path / "out.json").read_text("utf-8")


class Malformed(ValueError):
    pass


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\xff{}", "unreadable doc"),
        (b"{not json", "unreadable doc"),
        (b"[" * 100_000, "unreadable doc"),
        (b"1" + b"0" * 5000, "unreadable doc"),
        (b"[]", "doc is not a JSON object"),
        (b'{"format": "f"}', "doc is not a version-1 f file"),
        (b'{"format": "g", "version": 1}', "doc is not a version-1 f file"),
        (b'{"format": "f", "version": 2}', "doc is not a version-1 f file"),
        (b'{"format": "f", "version": true}', "doc is not a version-1 f file"),
        (b'{"format": "f", "version": 1.0}', "doc is not a version-1 f file"),
    ],
)
def test_read_json_failures_raise_the_given_error(data, message):
    with pytest.raises(Malformed, match=message):
        read_json(data, Malformed, "doc", "f", 1)


def test_read_json_returns_the_object():
    assert read_json(b'{"format": "f", "version": 1, "x": [1]}', Malformed, "doc", "f", 1) == {
        "format": "f", "version": 1, "x": [1],
    }
    assert read_json(b'{"x": 1}', Malformed, "doc") == {"x": 1}


# The reads that stay outside ioutil.py: a PGM page is decoded from its open
# file, and package data is read through importlib.resources.
OWN_READERS = {("image.py", "read_pgm")}


def _is_package_data(node):
    """Whether the call chain ``node`` starts at the ``resources`` module."""
    while isinstance(node, (ast.Attribute, ast.Call)):
        node = node.value if isinstance(node, ast.Attribute) else node.func
    return isinstance(node, ast.Name) and node.id == "resources"


def test_json_documents_are_read_and_written_only_through_ioutil():
    """Outside ioutil.py, no rfekit module decodes JSON, reads a file itself
    (but a PGM page and package data) or writes indented JSON documents."""
    found = []
    for path in sorted(Path(ioutil.__file__).parent.glob("*.py")):
        if path.name == "ioutil.py":
            continue

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                where = f"{where}.{node.name}" if where else node.name
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                found.append((path.name, where, "from json import"))
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
            ):
                call = node.func.attr
                if call in ("load", "loads"):
                    found.append((path.name, where, call))
                if call in ("dump", "dumps") and any(k.arg == "indent" for k in node.keywords):
                    found.append((path.name, where, f"{call}(indent=...)"))
            if isinstance(node, ast.Call) and (path.name, where) not in OWN_READERS:
                func = node.func
                if isinstance(func, ast.Name) and func.id == "open":
                    found.append((path.name, where, "open"))
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("read_bytes", "read_text")
                    and not _is_package_data(func.value)
                ):
                    found.append((path.name, where, func.attr))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(path.read_text("utf-8")), "")
    assert found == []


@pytest.mark.parametrize(
    "kind, good, bad",
    [
        (str, ["", "x"], [None, 1, True, ["x"], {}]),
        (int, [0, -3, 10**30], [True, False, 1.0, "1", None]),
        (float, [0.5, -1e300], [True, 1, "0.5", None]),
        ((int, float), [1, 2.5], [True, False, "1", None, [1]]),
        (list, [[], [1, "a"]], [(), "ab", {}, None]),
        (dict, [{}, {"a": 1}], [[], "{}", None]),
        (PATH, ["a", "a/b.txt", "docs/doc-0000", "a..b", "./a", "a/"],
         ["", "/etc/hostname", "..", "../a", "a/../b", "a/..", "a\0b", None, 7, ["a"]]),
        (NAME, ["a.txt", "a..b", "..."],
         ["", ".", "..", "a/b", "/a", "./a", "a/", "a\0b", None, 7, ["a"]]),
        ([str], [[], ["a", ""]], ["ab", ["a", 1], [None], None, ("a",)]),
        ([int], [[], [1, 2]], [[1, True], [1.0], "12", None]),
        ([list], [[], [[], [1]]], [["ab"], [None], [{}]]),
        ([PATH], [[], ["a", "b/c"]], [["a", ".."], ["/a"], [""], "a"]),
        ([[str]], [[["a"], []]], [[["a", 1]], ["a"]]),
    ],
    ids=["str", "int", "float", "number", "list", "object", "path", "name",
         "list-of-str", "list-of-int", "list-of-list", "list-of-path",
         "list-of-list-of-str"],
)
def test_is_a_accepts_its_kind_only(kind, good, bad):
    assert [is_a(v, kind) for v in good] == [True] * len(good)
    assert [is_a(v, kind) for v in bad] == [False] * len(bad)


FIELDS = {"id": str, "n": int, "files": [PATH], "name": NAME}
RECORD = {"id": "a", "n": 1, "files": ["x/y.txt"], "name": "z.txt", "extra": None}


@pytest.mark.parametrize(
    "record, message",
    [
        ([RECORD], "rec is not an object"),
        ("record", "rec is not an object"),
        (None, "rec is not an object"),
        ({k: v for k, v in RECORD.items() if k != "n"}, "rec: 'n' is missing or not an integer"),
        ({**RECORD, "n": True}, "rec: 'n' is missing or not an integer"),
        ({**RECORD, "id": None}, "rec: 'id' is missing or not a string"),
        ({**RECORD, "files": ["x", "../y"]},
         "rec: 'files' is missing or not a list, each item a relative path"),
        ({**RECORD, "files": "x"},
         "rec: 'files' is missing or not a list, each item a relative path"),
        ({**RECORD, "name": "x/z.txt"}, "rec: 'name' is missing or not a file name"),
        ({**RECORD, "id": 1, "n": None}, "rec: 'id' is missing or not a string"),
    ],
    ids=["list", "string", "null", "missing-key", "bool-int", "null-str",
         "nested-path", "path-list-string", "name-with-dir", "first-bad-key"],
)
def test_check_fields_raises_the_given_error_naming_the_key(record, message):
    with pytest.raises(Malformed, match=f"^{re.escape(message)}$"):
        check_fields(record, FIELDS, Malformed, "rec")


def test_check_fields_accepts_a_record_and_ignores_other_keys():
    assert check_fields(RECORD, FIELDS, Malformed, "rec") is None
    assert check_fields({}, {}, Malformed, "rec") is None


def _write_json(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload), "utf-8")


def _manifest_with_bad_dir(tmp_path):
    _write_json(tmp_path / "manifest.json", {
        "format": "rfe-corpus-manifest", "version": 1,
        "paths": dict.fromkeys(("bank", "store", "templates", "patterns"), "x"),
        "documents": [{"id": "d", "label": "l", "split": "train", "dir": "../d",
                       "pages": [], "clean_text": "c.txt", "ocr_text": "o.txt"}],
        "rfes": [],
    })
    load_manifest(tmp_path)


def _doc_json_with_bad_page(tmp_path):
    _write_json(tmp_path / "doc.json",
                {"id": "d", "pages": ["/p.pgm"], "text": "o.txt", "clean_text": "c.txt"})
    load_document_dir(tmp_path)


def _model_with_string_classes(tmp_path):
    payload = json.loads(save_model(SoftmaxClassifier(max_iters=1).fit(np.eye(2), ["a", "b"])))
    payload["classes"], payload["sha256"] = "ab", ""
    payload["sha256"] = _payload_digest(payload)
    load_model(json.dumps(payload).encode("utf-8"))


def _template_with_list_id(tmp_path):
    (tmp_path / "a.txt").write_text("Body", "utf-8")
    _write_json(tmp_path / "templates.json", {
        "format": "template-library", "version": 1,
        "templates": [{"id": ["a"], "attack_id": "x", "soc_codes": "*", "file": "a.txt"}],
    })
    load_template_library(tmp_path)


@pytest.mark.parametrize(
    "load, error, message",
    [
        (_manifest_with_bad_dir, CorpusFormatError,
         "manifest.json: documents[0]: 'dir' is missing or not a relative path"),
        (_doc_json_with_bad_page, CorpusFormatError,
         "doc.json: 'pages' is missing or not a list, each item a relative path"),
        (_model_with_string_classes, ModelFormatError,
         "model payload: 'classes' is missing or not a list, each item a string"),
        (_template_with_list_id, TemplateFormatError,
         "template entry 0: 'id' is missing or not a string"),
    ],
    ids=["corpus-manifest", "doc-json", "model", "template-library"],
)
def test_each_loader_raises_its_own_error_from_the_shared_check(tmp_path, load, error, message):
    with pytest.raises(error, match=f"{re.escape(message)}$"):
        load(tmp_path)


def test_read_bytes_and_read_text_raise_the_given_error_naming_the_file(tmp_path):
    missing, latin1 = tmp_path / "missing.txt", tmp_path / "latin1.txt"
    latin1.write_bytes(b"caf\xe9\r\n")
    for read, path, message in [
        (read_bytes, missing, f"cannot read doc {missing}: [Errno 2] "),
        (read_text, tmp_path, f"cannot read doc {tmp_path}: [Errno 21] "),
        (read_bytes, "a\0b", "cannot read doc a\0b: embedded null byte"),
        (read_text, latin1, f"cannot read doc {latin1}: not UTF-8 ("),
    ]:
        with pytest.raises(Malformed, match=f"^{re.escape(message)}"):
            read(path, Malformed, "doc")


def test_read_text_reads_line_ends_as_newline_and_read_bytes_keeps_them(tmp_path):
    (tmp_path / "a.txt").write_bytes(b"one\r\ntwo\rthree\n")
    assert read_text(tmp_path / "a.txt", Malformed, "doc") == "one\ntwo\nthree\n"
    assert read_bytes(str(tmp_path / "a.txt"), Malformed, "doc") == b"one\r\ntwo\rthree\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small corpus, a bundle trained on it and a --config file."""
    root = tmp_path_factory.mktemp("inputs")
    generate_corpus(CorpusConfig(seed=3, docs_per_class=2, n_rfes=2), root / "corpus")
    argv = ["train-docs", "--corpus", str(root / "corpus"), "--out", str(root / "bundle"),
            "--max-iters", "20"]
    assert run(argv) == 0
    (root / "config.json").write_text("{}", "utf-8")
    return root


def _detect(root, *options):
    """``rfekit detect`` on the corpus RFEs, letting its error propagate."""
    args = build_parser().parse_args([
        "detect", "--bank", str(root / "corpus/bank.jsonl"), "--input", str(root / "corpus"),
        "--out", str(root / "out.jsonl"), *options,
    ])
    return args.handler(args)


# Each input file that a loader reads: its path under ``inputs``, the
# format's error, and a call that reads it from a root directory.
INPUT_FILES = {
    "bank": ("corpus/bank.jsonl", BankFormatError,
             lambda r: load_bank(r / "corpus/bank.jsonl")),
    "store": ("corpus/beneficiaries.jsonl", StoreFormatError,
              lambda r: BeneficiaryStore.load(r / "corpus/beneficiaries.jsonl")),
    "patterns": ("corpus/patterns.json", PatternFormatError,
                 lambda r: load_field_patterns(r / "corpus/patterns.json")),
    "templates-json": ("corpus/templates/templates.json", TemplateFormatError,
                       lambda r: load_template_library(r / "corpus/templates")),
    "template-body": ("corpus/templates/specialty-occupation-any.txt", TemplateFormatError,
                      lambda r: load_template_library(r / "corpus/templates")),
    "corpus-manifest": ("corpus/manifest.json", CorpusFormatError,
                        lambda r: load_manifest(r / "corpus")),
    "doc-json": ("corpus/docs/doc-0000/doc.json", CorpusFormatError,
                 lambda r: load_document_dir(r / "corpus/docs/doc-0000")),
    "document-text": ("corpus/docs/doc-0000/ocr.txt", CorpusFormatError,
                      lambda r: load_document(r / "corpus",
                                              load_manifest(r / "corpus")["documents"][0])),
    "bundle-json": ("bundle/bundle.json", ValueError,
                    lambda r: EnsembleDocumentClassifier.load(r / "bundle")),
    "bundle-part": ("bundle/text-model.json", ValueError,
                    lambda r: EnsembleDocumentClassifier.load(r / "bundle")),
    "config": ("config.json", UsageError,
               lambda r: _detect(r, "--config", str(r / "config.json"))),
    "rfe": ("corpus/rfes/rfe-0000.txt", RuntimeError, _detect),
}


@pytest.mark.parametrize("fault", ["missing", "directory"])
@pytest.mark.parametrize("name", sorted(INPUT_FILES))
def test_each_loader_names_an_unreadable_input_in_its_format_error(inputs, tmp_path,
                                                                   name, fault):
    target, error, load = INPUT_FILES[name]
    root = tmp_path / "inputs"
    shutil.copytree(inputs, root)
    load(root)  # the intact input loads
    (root / target).unlink()
    if fault == "directory":
        (root / target).mkdir()
    with pytest.raises(error, match=f"cannot read .*{re.escape(str(root / target))}: "):
        load(root)
