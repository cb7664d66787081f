"""Atomic file writes shared by the store, session and event-log layers.

``os.replace`` of a same-directory temp file is atomic on POSIX: readers —
and crash-recovery paths like sweep ``--resume`` or
``CollectorSession.restore`` — observe either the previous complete file or
the new complete file, never a torn prefix.  The temp name embeds pid + uuid so
concurrent writers of the same target cannot collide on the staging file.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path
from typing import BinaryIO, Callable, Union

__all__ = ["atomic_write_bytes", "atomic_write_text", "atomic_append_line"]


def atomic_write_bytes(
    path: Union[str, Path], write: Callable[[BinaryIO], None]
) -> Path:
    """Call ``write(handle)`` on a staged temp file, fsync, rename over
    ``path``.  The staging file is removed if anything fails."""
    path = Path(path)
    staged = path.parent / f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
    try:
        with staged.open("wb") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staged, path)
    finally:
        if staged.exists():
            staged.unlink()
    return path


def atomic_write_text(path: Union[str, Path], content: str) -> Path:
    """Atomically replace ``path`` with UTF-8 ``content``."""
    return atomic_write_bytes(path, lambda handle: handle.write(content.encode("utf-8")))


def atomic_append_line(path: Union[str, Path], line: str) -> Path:
    """Append one line to ``path`` as a single ``O_APPEND`` write.

    POSIX serializes the offset update and the write of an ``O_APPEND``
    ``write(2)``, so concurrent appenders (processes sharing one event log)
    interleave whole lines, never torn fragments.  A trailing newline is
    added when missing, and the record is fsynced before returning: events
    exist to survive the crash they describe.
    """
    path = Path(path)
    if not line.endswith("\n"):
        line += "\n"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
        os.fsync(fd)
    finally:
        os.close(fd)
    return path
