"""The memory pool's files: the episode JSONL and the pattern snapshot.

Each episode is one JSON line; the patterns are one JSON snapshot.  Each
embedding and centroid is stored packed, as ``{"dim": D, "index": "<hex>",
"value": "<hex>"}``: ``index`` is the lowercase hex of the entry indices as
little-endian int32, ``value`` that of the entries as little-endian float64.
The entries are every one that is not ``+0.0`` (a hashing embedding has
about 14 of 2048), ``-0.0`` kept, so a vector is rebuilt bit for bit on load.
The older forms still load: a sparse ``index``/``value`` pair of JSON lists,
and a dense JSON list; the next save rewrites them packed.  Every save
replaces its file atomically.

An episode file is decoded line by line, each older vector turned packed,
then checked a column at a time over every line at once: C-level passes
over the fields, and one ``bytes.fromhex`` per vector column over the
joined hex of every line, read by ``np.frombuffer`` into the one flat array
the pool's index takes; each loaded episode's
:class:`~kubediag.embedding.SparseVector` is a slice of it, so a load builds
no dense array.  A ``+0.0`` entry that a line lists is dropped, as no vector
holds one.  Only a failed check decodes the lines again, one at a time, to
name the first bad one.  A snapshot's centroids load the same way, each as
the :class:`~kubediag.embedding.SparseVector` it decodes to.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
from itertools import accumulate, chain, repeat
from typing import Callable, Iterable

import numpy as np

from .embedding import SparseVector, nonzero_index
from .errors import InvalidArgument, SchemaViolation
from .files import as_count, as_number, as_string, as_strings, short_repr, write_atomic
from .memory import Episode, MemoryConfig, Outcome, Pattern, _norm


# (episodes, entries per episode, flat indices, flat values) of a loaded file
_Loaded = tuple[list[Episode], list[int], np.ndarray, np.ndarray]

_EPISODE_KEYS = operator.itemgetter("id", "symptoms", "context", "actions", "outcome",
                                    "timestamp", "memory_value", "embedding", "resolution_path")
_VECTOR_KEYS = operator.itemgetter("dim", "index", "value")
_OUTCOMES = {o.value: o for o in Outcome}


def write_episodes(path: str, episodes: Iterable[Episode]) -> None:
    """Replace ``path`` with one line per episode, in the order given."""
    write_atomic(path, lambda fh: fh.writelines(
        json.dumps(_episode_to_dict(ep), sort_keys=True) + "\n" for ep in episodes))


def read_episodes(path: str, dim: int, check_unused: Callable[[str], None]) -> _Loaded:
    """The checked episodes of an episode file, and their sparse entries
    flat.  Raises for the first invalid line what inserting the lines one at
    a time would: the ``DuplicateId`` that ``check_unused`` raises for its
    id, else ``SchemaViolation`` naming the line, an id used on an earlier
    line included.  A file that is not UTF-8 raises ``SchemaViolation``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise SchemaViolation(f"episode file is not UTF-8: {exc}") from exc
    loaded = _read_columns(lines, dim)
    if loaded is None:
        _first_bad_line(lines, dim, check_unused)
        # each column check is one of a line's checks, so some line fails
        raise SchemaViolation("episode file fails a column check that none of its lines fails")
    # every line passes every other check, so the first used id fails first
    for ep in loaded[0]:
        check_unused(ep.id)
    return loaded


def _read_columns(lines: list[str], dim: int) -> _Loaded | None:
    """The episodes of ``lines`` and their sparse entries, flat, if every
    line passes every check (a check that cannot run fails), else None."""
    try:
        raws = list(map(json.loads, filter(str.strip, lines)))
        if not raws:
            return [], [], np.empty(0, np.intp), np.empty(0)
        ids, symptoms, context, actions, outcome, stamps, values, vectors, paths = zip(
            *map(_EPISODE_KEYS, raws))
        trials = list(map(dict.get, raws, repeat("trials"), repeat(0)))
        successes = list(map(dict.get, raws, repeat("successes"), repeat(0)))
        dims, index, value = zip(*map(_VECTOR_KEYS, map(_as_packed, vectors, repeat(dim))))
        chars = list(map(len, index))
        strings, numbers = symptoms + context + actions + paths, stamps + values
        if not (set(map(type, ids)) == {str} and all(ids) and len(set(ids)) == len(ids)
                and set(map(type, strings)) == {list}
                and set(map(type, chain.from_iterable(strings))) <= {str}
                and set(outcome) <= _OUTCOMES.keys()
                and set(map(type, numbers)) <= {int, float}
                and all(map(math.isfinite, numbers)) and min(numbers) >= 0
                and set(map(type, trials + successes)) == {int}
                and min(successes) >= 0 and all(map(operator.le, successes, trials))
                and set(map(type, dims)) == {int} and set(dims) == {dim}
                and set(map(type, index + value)) == {str}
                and not any(c % 8 for c in chars)
                and list(map(len, value)) == [2 * c for c in chars]):
            return None
        # each line holds whole entries, so joined, no entry spans two lines
        col = _unhex("".join(index), "index")
        val = _unhex("".join(value), "value")
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError):
        return None
    sizes = [c // 8 for c in chars]
    # the decoded lines die here, not after the episodes are built: the
    # collector runs on the count of live containers, and holding them
    # costs a diagnose call one more collection
    del raws, vectors, index, value
    rows = np.repeat(np.arange(len(ids)), sizes)
    # each row's indices increase within [0, dim) iff the flat keys
    # row * dim + col increase
    if col.size and not (col.min() >= 0 and col.max() < dim
                         and (np.diff(rows * dim + col) > 0).all()):
        return None
    keep = nonzero_index(val)
    if keep.size < val.size:
        rows, col, val = rows[keep], col[keep], val[keep]
        sizes = np.bincount(rows, minlength=len(ids)).tolist()
    vectors = SparseVector.split(dim, col, val, [0, *accumulate(sizes)])
    eps = list(map(Episode, ids, symptoms, map(set, context), actions,
                   map(_OUTCOMES.__getitem__, outcome), map(float, stamps),
                   map(float, values), vectors, paths, trials, successes))
    try:
        for r in _unsure_norms(rows, val, len(eps), dim):
            eps[r]._check_norm()
    except InvalidArgument:
        return None
    return eps, sizes, col, val


def _first_bad_line(lines: list[str], dim: int, check_unused: Callable[[str], None]) -> None:
    """Raise what inserting the episodes of ``lines`` one at a time raises
    first: ``check_unused``'s error, else ``SchemaViolation`` naming the
    line.  Each line is checked as :meth:`~kubediag.memory.MemoryPool.insert_episode`
    checks it, an id used on an earlier line failing too."""
    first_line: dict[str, int] = {}
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            ep = _episode_from_dict(json.loads(line), dim)
            check_unused(ep.id)
            if ep.id in first_line:
                raise ValueError(
                    f"episode id {ep.id!r} already used on line {first_line[ep.id]}")
            ep.validate()
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError,
                InvalidArgument) as exc:
            raise SchemaViolation(f"line {line_no}: {exc}") from exc
        first_line[ep.id] = line_no


def _unsure_norms(rows: np.ndarray, val: np.ndarray, n: int, dim: int) -> list[int]:
    """The rows among ``n`` whose norm :meth:`Episode._check_norm` must
    check, given every stored entry's row and value: one ``np.bincount`` of
    the squared values gives every norm, summed in another order than the
    ``np.dot`` of an episode's stored values that the check takes, and only
    the norms too near the tolerance or beyond it, NaN included, are left."""
    norms = np.sqrt(np.bincount(rows, val * val, n))
    # two summation orders of at most dim squares differ by under
    # dim * eps of a unit norm, so a norm passing this passes exactly
    sure = 1e-6 - 2.0 * dim * float(np.finfo(np.float64).eps)
    return np.flatnonzero(~(np.abs(norms - 1.0) <= sure)).tolist()


def _episode_to_dict(ep: Episode) -> dict:
    return {
        "id": ep.id,
        "symptoms": list(ep.symptoms),
        "context": sorted(ep.context),
        "actions": list(ep.actions),
        "outcome": ep.outcome.value,
        "timestamp": ep.timestamp,
        "memory_value": ep.memory_value,
        "embedding": _packed(ep.vector),
        "resolution_path": list(ep.resolution_path),
        "trials": ep.trials,
        "successes": ep.successes,
    }


def _episode_from_dict(raw: dict, dim: int) -> Episode:
    """Rebuild an episode, checking each field's type like
    :func:`_pattern_from_dict`."""
    vector = _vector_from_json(raw["embedding"], dim)
    return Episode(
        id=as_string(raw["id"], "id"),
        symptoms=as_strings(raw["symptoms"], "symptoms"),
        context=set(as_strings(raw["context"], "context")),
        actions=as_strings(raw["actions"], "actions"),
        outcome=Outcome(raw["outcome"]),
        timestamp=as_number(raw["timestamp"], "timestamp"),
        memory_value=as_number(raw["memory_value"], "memory_value"),
        vector=vector,
        resolution_path=as_strings(raw["resolution_path"], "resolution_path"),
        trials=as_count(raw.get("trials", 0), "trials"),
        successes=as_count(raw.get("successes", 0), "successes"),
    )


def write_patterns(path: str, patterns: dict[str, Pattern], config: MemoryConfig) -> None:
    """Replace ``path`` with a snapshot of ``patterns``, in id order, and
    the ``config`` they were formed under."""
    payload = {
        "patterns": [_pattern_to_dict(p) for _, p in sorted(patterns.items())],
        "config": dataclasses.asdict(config),
    }
    # json.dumps without indent runs the C encoder; json.dump never does
    write_atomic(path, lambda fh: fh.write(json.dumps(payload, sort_keys=True)))


def read_patterns(path: str, dim: int) -> tuple[list[Pattern], int]:
    """The patterns of a snapshot in file order, and the largest ``pat-`` id
    number among them (0 if none).  A malformed file raises SchemaViolation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or not isinstance(payload["patterns"], list):
            raise TypeError("payload must be an object with a 'patterns' list")
        loaded = [_pattern_from_dict(raw, dim) for raw in payload["patterns"]]
        seq = 0
        for pat in loaded:
            norm = _norm(pat.centroid.value)
            if not abs(norm - 1.0) <= 1e-6:  # NaN fails too
                raise ValueError(f"{pat.id}: centroid norm {norm:.8f} != 1")
            if not 0 <= pat.success_members <= len(pat.member_ids):
                raise ValueError(f"{pat.id}: success_members {pat.success_members} "
                                 f"outside [0, {len(pat.member_ids)}]")
            if pat.id.startswith("pat-"):
                seq = max(seq, int(pat.id.rsplit("-", 1)[-1]))
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise SchemaViolation(f"bad pattern snapshot: {exc}") from exc
    return loaded, seq


def _pattern_to_dict(p: Pattern) -> dict:
    return {
        "id": p.id,
        "centroid": _packed(p.centroid),
        # grouped on disk as before, so older and newer snapshots read alike
        "strategy": {
            "actions": list(p.actions),
            "resolution_path": list(p.resolution_path),
            "source_episode_id": p.source_episode_id,
        },
        "member_ids": sorted(p.member_ids),
        "last_updated": p.last_updated,
        "context_labels": sorted(p.context_labels),
        "success_members": p.success_members,
    }


def _pattern_from_dict(raw: dict, dim: int) -> Pattern:
    """Rebuild a pattern, checking each field's type instead of coercing it.
    The ``reliability``, ``member_count``, ``seed_id`` and ``symptom_tokens``
    of older snapshots are read by nothing, and dropped by the next save.
    A ``+0.0`` entry that the centroid lists is dropped, as in
    :func:`read_episodes`."""
    strategy = raw["strategy"]
    listed = _vector_from_json(raw["centroid"], dim)
    keep = nonzero_index(listed.value)
    return Pattern(
        id=as_string(raw["id"], "id"),
        centroid=SparseVector(dim, listed.index[keep], listed.value[keep]),
        actions=as_strings(strategy["actions"], "actions"),
        resolution_path=as_strings(strategy["resolution_path"], "resolution_path"),
        source_episode_id=as_string(strategy["source_episode_id"], "source_episode_id"),
        member_ids=set(as_strings(raw["member_ids"], "member_ids")),
        last_updated=as_number(raw["last_updated"], "last_updated"),
        context_labels=frozenset(as_strings(raw.get("context_labels", []), "context_labels")),
        success_members=as_count(raw.get("success_members", 0), "success_members"),
    )


def _packed(v: SparseVector) -> dict:
    """The stored form of ``v``, which :func:`_vector_from_json` reads back."""
    return {"dim": v.dim, "index": v.index.astype(_PACKED["index"][0]).tobytes().hex(),
            "value": v.value.astype(_PACKED["value"][0]).tobytes().hex()}


def _as_packed(raw: object, dim: int) -> object:
    """A vector of an older store in :func:`_packed`'s form, checked by
    :func:`_vector_from_json`; one whose ``index`` is a string as it is."""
    if isinstance(raw, dict) and isinstance(raw.get("index"), str):
        return raw
    return _packed(_vector_from_json(raw, dim))


def _vector_from_json(raw: object, dim: int) -> SparseVector:
    """The checked vector of ``dim`` entries in any stored form, its
    indices a native ``intp`` array, its values ``float64``; a ``+0.0``
    entry that a sparse form lists is kept here, and dropped by
    :func:`read_episodes` and :func:`_pattern_from_dict`.  The ``dim`` and
    the sizes are checked before anything of the claimed dimension is
    allocated, so a bogus one costs nothing."""
    if isinstance(raw, list):
        return SparseVector.of(_dense_from_json(raw, dim))
    if not isinstance(raw, dict):
        raise TypeError(f"vector must be an object or a list, got {type(raw).__name__}")
    size, index, value = raw["dim"], raw["index"], raw["value"]
    if type(size) is not int or size != dim:
        raise ValueError(f"vector dim {short_repr(size)} != {dim}")
    if isinstance(index, list) or isinstance(value, list):
        index, value = _sparse_from_lists(index, value, dim)
        return SparseVector(dim, np.array(index, dtype=np.intp), np.array(value, dtype=np.float64))
    if not isinstance(index, str) or not isinstance(value, str):
        raise TypeError(f"vector index {short_repr(index)} and value {short_repr(value)} "
                        "must be hex strings")
    if len(index) % 8 or len(value) != 2 * len(index):
        raise ValueError(f"vector index and value of {len(index)} and {len(value)} hex digits "
                         "are not 8 and 16 per entry")
    index, value = _unhex(index, "index"), _unhex(value, "value")
    _sparse_from_lists(index.tolist(), value.tolist(), dim)  # the range and order
    return SparseVector(dim, index, value)


# the packed form's entry type on disk, and in memory once read, per key
_PACKED = {"index": ("<i4", np.intp), "value": ("<f8", np.float64)}


def _unhex(text: str, key: str) -> np.ndarray:
    """The native array of ``text``, the hex of ``key``'s packed entries.
    ``bytes.fromhex`` skips whitespace, so its length is checked too."""
    try:
        raw = bytes.fromhex(text)
    except ValueError:
        raw = None
    if raw is None or 2 * len(raw) != len(text):
        raise ValueError(f"vector {key} {short_repr(text)} is not plain hex")
    packed, native = _PACKED[key]
    return np.frombuffer(raw, packed).astype(native)


def _dense_from_json(raw: list, dim: int) -> np.ndarray:
    """An older store's dense list, its entries floats as the sparse form's
    values are: numpy would read ``true`` as 1.0 and parse "0"."""
    out = np.asarray(raw, dtype=np.float64)
    if out.shape != (dim,):
        raise ValueError(f"vector shape {out.shape} != ({dim},)")
    if not set(map(type, raw)) <= {float}:
        bad = next(x for x in raw if type(x) is not float)
        raise ValueError(f"vector value {short_repr(bad)} is not a float")
    return out


def _sparse_from_lists(index: object, value: object, dim: int) -> tuple[list[int], list[float]]:
    """The checked ``index`` and ``value`` lists of an older store's sparse
    vector, or of a packed one's decoded entries: equal in length, the
    indices increasing ints in ``[0, dim)``, the values floats."""
    if not isinstance(index, list) or not isinstance(value, list) or len(index) != len(value):
        raise ValueError("vector index and value must be lists of equal length")
    # C-level passes over the lists; the entry loop runs only when one
    # fails, to name the first bad entry.  bool is an int subclass, and
    # numpy would cast 1.5 or True to an index.
    if not (set(map(type, index)) <= {int} and set(map(type, value)) <= {float}
            and (not index or 0 <= index[0] and index[-1] < dim)
            and all(map(operator.lt, index, index[1:]))):
        prev = -1
        for i, x in zip(index, value):
            if type(i) is not int or not prev < i < dim:
                raise ValueError(
                    f"vector index {short_repr(i)} not an increasing int in [0, {dim})")
            if type(x) is not float:
                raise ValueError(f"vector value {short_repr(x)} is not a float")
            prev = i
    return index, value
