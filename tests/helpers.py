"""Shared builders for the test suite."""
from __future__ import annotations

import numpy as np

from kubediag.embedding import SparseVector
from kubediag.memory import Episode, MemoryConfig, MemoryPool, Outcome, Query

NOW = 1_700_000_000.0
DAY = 86_400.0


def unit(dim: int, axis: int = 0) -> np.ndarray:
    v = np.zeros(dim)
    v[axis] = 1.0
    return v


def rand_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    n = float(np.linalg.norm(v))
    return unit(dim) if n < 1e-12 else v / n


def jitter_unit(rng: np.random.Generator, base: np.ndarray, scale: float) -> np.ndarray:
    v = base + scale * rng.standard_normal(base.shape)
    return v / np.linalg.norm(v)


def mk_episode(
    eid: str,
    embedding,
    *,
    ts: float = NOW,
    outcome: Outcome = Outcome.SUCCESS,
    value: float = 1.0,
    path=(),
    context=(),
    symptoms=("pod crashlooping",),
    actions=("restart the pod",),
    trials: int = 0,
    successes: int = 0,
) -> Episode:
    return Episode(
        id=eid,
        symptoms=list(symptoms),
        context=set(context),
        actions=list(actions),
        outcome=outcome,
        timestamp=ts,
        memory_value=value,
        vector=SparseVector.of(np.asarray(embedding, dtype=float)),
        resolution_path=list(path),
        trials=trials,
        successes=successes,
    )


def dense_embeddings(obj, dim: int) -> list[np.ndarray]:
    """The float arrays of shape ``(dim,)`` that ``obj`` refers to through
    its fields, the items of a tuple field (an episode's vector) or the
    base of an array among them."""
    fields = list(vars(obj).values())
    fields += [x for f in fields if isinstance(f, tuple) for x in f]
    arrays = [f for f in fields if isinstance(f, np.ndarray)]
    arrays += [a.base for a in arrays if isinstance(a.base, np.ndarray)]
    return [a for a in arrays if a.shape == (dim,) and a.dtype.kind == "f"]


def small_pool(dim: int = 16, **overrides) -> MemoryPool:
    return MemoryPool(MemoryConfig(embedding_dim=dim, **overrides))


def mk_query(vec, symptoms=("pod crashlooping",), context=()) -> Query:
    return Query(
        symptoms=list(symptoms),
        context=set(context),
        embedding=np.asarray(vec, dtype=float),
    )


def sparse_lists(vec: dict) -> dict:
    """A stored packed vector in the sparse form of older stores, its
    ``index`` and ``value`` as JSON lists, decoded here as the format
    describes it: little-endian int32 indices, little-endian float64 values."""
    index = np.frombuffer(bytes.fromhex(vec["index"]), "<i4")
    value = np.frombuffer(bytes.fromhex(vec["value"]), "<f8")
    return dict(vec, index=index.tolist(), value=value.tolist())


def packed(vec: dict) -> dict:
    """A sparse-list vector in the packed form: :func:`sparse_lists` undone."""
    return dict(vec, index=np.asarray(vec["index"], "<i4").tobytes().hex(),
                value=np.asarray(vec["value"], "<f8").tobytes().hex())
