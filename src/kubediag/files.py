"""Crash-safe writing of the package's store files, and the type checks
their loaders and the configs share.

The checks reject a value of the wrong JSON type instead of coercing it: a
string where a list belongs would otherwise load as its characters, and a
JSON ``true`` or ``"0.5"`` as a number.  A rejected value is named by
:func:`short_repr`, so that a 400-digit number or a long list cannot flood
the message.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import stat
from typing import Callable, TextIO

from .errors import InvalidArgument


def write_atomic(path: str, write: Callable[[TextIO], None]) -> None:
    """Replace ``path`` with what ``write`` writes to a text handle.

    The content goes to a temporary file in the target's directory, is synced,
    then renamed over the target, so a failure or a crash part way through
    leaves the previous file as it was.  On failure the temporary file is
    removed.  Like ``open(path, "w")``, the replacement writes through a
    symbolic link (the temporary file goes beside the link's target and
    replaces the target, not the link), keeps an existing file's permission
    bits, and a new file gets the permissions it would give.
    """
    path = os.path.realpath(path)
    tmp = os.path.join(
        os.path.dirname(path),
        f".{os.path.basename(path)}.{os.urandom(4).hex()}.tmp",
    )
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with contextlib.suppress(FileNotFoundError):  # before any content is written
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        with open(fd, "w", encoding="utf-8") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def is_finite(x: object) -> bool:
    """A JSON number that converts to a finite float.

    bool is an int subclass; a JSON true is not a number here.  Nor is an
    int too large for a float, on which ``math.isfinite`` would raise.
    """
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


_REPR_LIMIT = 60


def short_repr(x: object) -> str:
    """``repr(x)``, its middle cut to ``...`` when it is longer than 60 characters."""
    text = repr(x)
    if len(text) <= _REPR_LIMIT:
        return text
    head = (_REPR_LIMIT - 3) // 2
    return text[:head] + "..." + text[len(text) - (_REPR_LIMIT - 3 - head):]


def as_number(x: object, name: str) -> float:
    if not is_finite(x):
        raise TypeError(f"{name} {short_repr(x)} is not a finite number")
    return float(x)


def as_count(x: object, name: str) -> int:
    if type(x) is not int:
        raise TypeError(f"{name} {short_repr(x)} is not an integer")
    return x


def as_string(x: object, name: str) -> str:
    if not isinstance(x, str):
        raise TypeError(f"{name} {short_repr(x)} is not a string")
    return x


def as_strings(x: object, name: str) -> list[str]:
    if not (isinstance(x, list) and all(isinstance(s, str) for s in x)):
        raise TypeError(f"{name} {short_repr(x)} is not a list of strings")
    return x


def check_fields(cfg: object) -> None:
    """Raise ``InvalidArgument`` for a field of the dataclass ``cfg`` whose
    value has not the type of its default.  A bool field takes a bool, an int
    field an int that is not a bool, a float field a finite number, and a
    tuple field a list or tuple of as many entries, each checked against the
    default's entry.  A field without a plain default is not checked."""
    for f in dataclasses.fields(cfg):
        value, default = getattr(cfg, f.name), f.default
        pairs = [(value, default)] if default is not dataclasses.MISSING else []
        if isinstance(value, (list, tuple)) and isinstance(default, tuple):
            pairs = zip(value, default) if len(value) == len(default) else pairs
        for v, d in pairs:
            if isinstance(d, tuple):
                ok, want = False, f"a list of {len(d)}"
            elif isinstance(d, bool):
                ok, want = type(v) is bool, "a boolean"
            elif isinstance(d, int):
                ok, want = type(v) is int, "an integer"
            else:
                ok, want = is_finite(v), "a finite number"
            if not ok:
                raise InvalidArgument(f"{f.name} {short_repr(v)} is not {want}")
