"""Input file reads, the JSON and JSON-lines conventions, the record field
rule, atomic writes and the bare-file-name rule: one of each for rfekit."""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from pathlib import Path

# Numbers the temp files of this process, so no two writes share one, even
# writes from several threads or one nested in another.
_temp_serial = itertools.count()
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename into place.

    Each write gets its own temp name, ``<name>.<pid>.<serial>.tmp``, so
    concurrent writers to one path never clobber each other's temp file: the
    last rename wins and readers see one complete version. A name over 64
    bytes gives up as many of its last bytes as the suffix adds (keeping 64),
    so a temp name is no longer than the longer of its name and 64 bytes plus
    the suffix. A failed write removes its temp file. There is no fsync, so the
    rename is atomic against other processes and crashes of this one, not
    against power loss.
    """
    path = Path(path)
    name = os.fsencode(path.name)
    suffix = f".{os.getpid()}.{next(_temp_serial)}.tmp".encode()
    tmp = os.fspath(path.with_name(os.fsdecode(name[:max(64, len(name) - len(suffix))] + suffix)))
    try:
        fd = os.open(tmp, _TEMP_FLAGS, 0o666)
    except (FileNotFoundError, NotADirectoryError):
        # The parent is missing (or a file, which this mkdir refuses): made on
        # demand, so a write into an existing directory pays no mkdir.
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp, _TEMP_FLAGS, 0o666)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def json_text(obj) -> str:
    """``obj`` as the JSON text of every rfekit document: sorted keys, 2-space
    indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def atomic_write_json(path, obj) -> None:
    atomic_write_text(path, json_text(obj))


def read_bytes(path, error, what: str) -> bytes:
    """The bytes of the file at ``path``; a file that cannot be read (missing,
    a directory, a NUL in the name) raises ``error("cannot read <what> <path>: ...")``."""
    try:
        with open(os.fspath(path), "rb") as file:  # not a descriptor
            return file.read()
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


def read_text(path, error, what: str) -> str:
    """The UTF-8 text of the file at ``path``, its line ends read as ``\\n``;
    a file that cannot be read or is not UTF-8 raises ``error(message)`` as
    :func:`read_bytes` does. The bytes are decoded in one call and ``\\r\\n``
    and ``\\r`` replaced after, which gives text-mode reading's text and
    decode error without its per-character newline pass."""
    data = read_bytes(path, error, what)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"cannot read {what} {path}: not UTF-8 ({exc})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_json(data: bytes, error, what: str, magic=None, versions=()) -> dict:
    """The JSON object in the UTF-8 bytes ``data``. A decode failure of any
    kind, a value that is not an object and, given ``magic``, a ``format``
    other than ``magic`` or a ``version`` that is not an integer in
    ``versions`` raise ``error(message)``, the message naming the document
    ``what`` (``<what> is not a version-1/2 <magic> file`` for ``(1, 2)``)."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(f"unreadable {what} ({exc})") from None
    if not isinstance(payload, dict):
        raise error(f"{what} is not a JSON object")
    version = payload.get("version")
    if magic is not None and (
        payload.get("format") != magic or not is_a(version, int) or version not in versions
    ):
        listed = "/".join(map(str, versions))
        raise error(f"{what} is not a version-{listed} {magic} file")
    return payload


def read_records(source, fields, error, what: str, holding=None) -> list[list[str]]:
    """The string values at ``fields`` of each JSON-lines record in the file
    at path ``source`` (see :func:`read_text`) or in an iterable of lines,
    blank lines skipped. A line that does not decode, lacks a field or holds
    a value that is not a string raises ``error("<what> line N: ...")``.

    Given the string ``holding``, only the lines whose raw text contains it
    or a backslash (a JSON escape could spell it) are decoded and checked;
    the others are skipped unread, but still counted in line numbers. In a
    file they are found with ``str.find``, so only the lines around a match
    are split out of the text."""
    if isinstance(source, (str, Path)):
        text = read_text(source, error, what)
        if holding is not None:
            return _decode(_lines_holding(text, holding), fields, error, what,
                           lambda at: len(text[:at[0]].splitlines()) + at[1] + 1)
        source = text.splitlines()
    numbered = enumerate(source, start=1)
    if holding is not None:
        numbered = ((n, line) for n, line in numbered if holding in line or "\\" in line)
    return _decode(numbered, fields, error, what, lambda n: n)


def _lines_holding(text: str, holding: str):
    """``((begin, k), line)`` for each line of ``text.splitlines()`` that
    contains ``holding`` or a backslash, in order: ``line`` is line ``k`` of
    the newline-bounded segment that starts at ``text[begin]``. Only the
    segments around a match are split; each ends after a ``\\n`` or at the
    end of the text, so its lines are lines of the whole text."""
    size = len(text)

    def next_at(needle, start):
        at = text.find(needle, start)
        return size if at < 0 else at

    start, hold, slash = 0, next_at(holding, 0), next_at("\\", 0)
    while (first := min(hold, slash)) < size:
        begin = max(start, text.rfind("\n", start, first) + 1)
        start = text.find("\n", first) + 1 or size
        for k, line in enumerate(text[begin:start].splitlines()):
            if holding in line or "\\" in line:
                yield (begin, k), line
        if hold < start:
            hold = next_at(holding, start)
        if slash < start:
            slash = next_at("\\", start)


def _decode(numbered, fields, error, what: str, line_number) -> list[list[str]]:
    """The records of the non-blank lines of ``numbered``, ``(at, line)``
    pairs; an error names the line ``line_number(at)``, worked out only then."""
    records = []
    for at, line in numbered:
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            values = [obj[k] for k in fields]
        except (ValueError, RecursionError, KeyError, TypeError) as exc:
            raise error(f"{what} line {line_number(at)}: {exc}") from None
        if not all([type(v) is str for v in values]):
            raise error(f"{what} line {line_number(at)}: every field must be a string")
        records.append(values)
    return records


def is_bare_file_name(name) -> bool:
    """A name with no directory part: not empty, ``.`` or ``..``, no
    separator and no NUL. Checked on the string alone, with no filesystem call."""
    return (
        isinstance(name, str) and name not in ("", ".", "..") and "\0" not in name
        and Path(name).name == name
    )


# Field kinds beyond a type; each string is also how an error names it.
PATH = "a relative path"  # not empty, no NUL, no leading "/", no ".." part
NAME = "a file name"  # see is_bare_file_name
_KIND_NAMES = {str: "a string", int: "an integer", (int, float): "a number",
               list: "a list", dict: "an object"}


def is_a(value, kind) -> bool:
    """Whether ``value`` is of ``kind``: a type or tuple of types (a JSON
    ``true``/``false`` is never a number), :data:`PATH` (checked on the
    string alone, so it stays inside the directory it is joined to),
    :data:`NAME`, or ``[kind]``, a list of that kind."""
    if kind is PATH:
        return (
            isinstance(value, str) and value != "" and "\0" not in value
            and not value.startswith("/") and ".." not in value.split("/")
        )
    if kind is NAME:
        return is_bare_file_name(value)
    if type(kind) is list:
        return isinstance(value, list) and all([is_a(v, kind[0]) for v in value])
    return isinstance(value, kind) and not isinstance(value, bool)


def _kind_name(kind) -> str:
    if type(kind) is list:
        return f"a list, each item {_kind_name(kind[0])}"
    return kind if type(kind) is str else _KIND_NAMES.get(kind, repr(kind))


def check_fields(record, fields: dict, error, where: str) -> None:
    """Raise ``error(message)`` unless ``record`` is a JSON object whose value
    at each key of ``fields`` is of that key's kind (see :func:`is_a`); the
    message names the record ``where`` and the first bad key."""
    if not isinstance(record, dict):
        raise error(f"{where} is not an object")
    for key, kind in fields.items():
        if not is_a(record.get(key), kind):
            raise error(f"{where}: {key!r} is missing or not {_kind_name(kind)}")
