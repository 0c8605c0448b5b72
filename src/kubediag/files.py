"""Crash-safe replacement of the package's store files."""

from __future__ import annotations

import os
from typing import Callable, TextIO


def write_atomic(path: str, write: Callable[[TextIO], None]) -> None:
    """Replace ``path`` with what ``write`` writes to a text handle.

    The content goes to a temporary file in the target's directory, is synced,
    then renamed over the target, so a failure or a crash part way through
    leaves the previous file as it was.  On failure the temporary file is
    removed.  A new file gets the permissions ``open(path, "w")`` would give.
    """
    tmp = os.path.join(
        os.path.dirname(os.path.abspath(path)),
        f".{os.path.basename(path)}.{os.urandom(4).hex()}.tmp",
    )
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
