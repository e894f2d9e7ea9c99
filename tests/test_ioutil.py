import ast
import os
import stat
from pathlib import Path

import pytest

from rfekit import ioutil
from rfekit.ioutil import atomic_write_bytes, atomic_write_json, atomic_write_text, read_json


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


# The two per-line decode loops keep their own messages (the store's are
# pinned exactly by the store fuzz test).
PER_LINE_DECODERS = {("attacks.py", "_read_bank_records"), ("drafting.py", "BeneficiaryStore.load")}


def test_json_documents_are_read_and_written_only_through_ioutil():
    """Outside ioutil.py, no rfekit module decodes JSON (but the two per-line
    loops) or writes indented JSON documents itself."""
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
                if call in ("load", "loads") and (path.name, where) not in PER_LINE_DECODERS:
                    found.append((path.name, where, call))
                if call in ("dump", "dumps") and any(
                    k.arg == "indent" and getattr(k.value, "value", None) == 2
                    for k in node.keywords
                ):
                    found.append((path.name, where, f"{call}(indent=2)"))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(path.read_text("utf-8")), "")
    assert found == []
