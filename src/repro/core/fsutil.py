"""Crash-safe file writes for the result store.

Every byte :mod:`repro.campaign.store` persists goes through
:func:`atomic_write_text`: the payload lands in a same-directory temporary
file first and is published with :func:`os.replace`, which POSIX guarantees
to be atomic.  A reader therefore only ever sees a complete file or no file
— never a torn write from a worker that was killed mid-``write``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temporary file lives in the target directory (``os.replace`` must
    not cross filesystems) and carries the writer's PID so concurrent
    writers of the same path never collide on the temp name; the loser of a
    concurrent publish simply overwrites the winner with identical-or-newer
    content.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    try:
        with tmp.open("wb") as handle:
            handle.write(text.encode(encoding))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        # A failed replace (or an exception mid-write) must not leave the
        # temp file behind to be mistaken for a record by directory scans.
        if tmp.exists():
            tmp.unlink(missing_ok=True)
    return path


__all__ = ["atomic_write_text"]
