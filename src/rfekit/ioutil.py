"""Atomic file writes and the bare-file-name rule shared by the loaders and writers."""

from __future__ import annotations

import itertools
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


def is_bare_file_name(name) -> bool:
    """A name with no directory part: not empty, ``.`` or ``..``, no
    separator. Checked on the string alone, with no filesystem call."""
    return (
        isinstance(name, str) and name not in ("", ".", "..") and Path(name).name == name
    )
