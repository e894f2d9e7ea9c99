import os
import stat

import pytest

from rfekit import ioutil
from rfekit.ioutil import atomic_write_bytes, atomic_write_text


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
