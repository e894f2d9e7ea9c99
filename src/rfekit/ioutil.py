"""The JSON container convention, the record field rule, atomic file writes
and the bare-file-name rule, shared by every loader and writer."""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path

# Numbers the temp files of this process, so no two writes share one, even
# writes from several threads or one nested in another.
_temp_serial = itertools.count()


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename into place.

    Each write gets its own temp name (``<name>.<pid>.<serial>.tmp``), so
    concurrent writers to one path never clobber each other's temp file: the
    last rename wins and readers see one complete version. A failed write
    removes its temp file. There is no fsync, so the rename is atomic against
    other processes and crashes of this one, not against power loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_temp_serial)}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def json_text(obj) -> str:
    """``obj`` as the JSON text of every rfekit document: sorted keys, 2-space
    indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def atomic_write_json(path, obj) -> None:
    atomic_write_text(path, json_text(obj))


def read_json(data: bytes, error, what: str, magic=None, version=None) -> dict:
    """The JSON object in the UTF-8 bytes ``data``. A decode failure of any
    kind, a value that is not an object and, given ``magic``, a ``format`` or
    ``version`` other than ``magic`` and ``version`` raise ``error(message)``,
    the message naming the document ``what``."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(f"unreadable {what} ({exc})") from None
    if not isinstance(payload, dict):
        raise error(f"{what} is not a JSON object")
    if magic is not None and (payload.get("format"), payload.get("version")) != (magic, version):
        raise error(f"{what} is not a version-{version} {magic} file")
    return payload


def read_lines(source, error, what: str) -> list[str]:
    """The lines of the UTF-8 file at path ``source``, or of an iterable of
    lines; a file that is not UTF-8 raises ``error(message)``."""
    if not isinstance(source, (str, Path)):
        return [str(line) for line in source]
    try:
        return Path(source).read_text("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not UTF-8 ({exc})") from None


def is_bare_file_name(name) -> bool:
    """A name with no directory part: not empty, ``.`` or ``..``, no
    separator. Checked on the string alone, with no filesystem call."""
    return (
        isinstance(name, str) and name not in ("", ".", "..") and Path(name).name == name
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
