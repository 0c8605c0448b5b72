"""Shared builders for the test suite."""
from __future__ import annotations

import json

import numpy as np

from kubediag.embedding import SparseVector, _norm
from kubediag.errors import InvalidArgument, SchemaViolation
from kubediag.files import as_string, short_repr
from kubediag.graph import (_CATEGORY_VALUES, Category, GraphEdge, GraphNode, KnowledgeGraph,
                            NodeType, Relation, checked_field)
from kubediag.memory import Episode, MemoryConfig, MemoryPool, Outcome, Pattern, Query
from kubediag.store import _pattern_from_dict

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


def cosine(v: SparseVector, q) -> float:
    """The cosine of the stored ``v`` with the dense ``q`` as the package
    defines it: each entry's product, added left to right to a ``+0.0``."""
    total = 0.0
    for i, x in zip(v.index.tolist(), v.value.tolist()):
        total += x * float(q[i])
    return total


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


# -- reference loaders --------------------------------------------------------
# The store loaders check whole columns at once, or each record once; these
# read a store one record at a time, every check in its place, and the tests
# compare the loaders against them.


def read_patterns_one_by_one(path: str, dim: int) -> tuple[list[Pattern], int]:
    """:func:`kubediag.store.read_patterns`, one pattern at a time."""
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


def _member(enum, raw: dict, key: str, owner: str):
    """The member of ``enum`` named by ``raw[key]``, a JSON field of ``owner``."""
    try:
        return enum(raw[key])
    except ValueError:
        pass
    raise SchemaViolation(f"{owner}: {key} {short_repr(raw[key])} is not a {enum.__name__}")


def graph_from_dict_one_by_one(payload: dict) -> KnowledgeGraph:
    """:meth:`KnowledgeGraph.from_dict`, every node through ``upsert_node``
    and every edge through ``add_triple``."""
    g = KnowledgeGraph()
    try:
        for raw in payload["nodes"]:
            name = f"node {as_string(raw['id'], 'node id')!r}"
            attributes, category = raw.get("attributes", {}), raw.get("category")
            if not isinstance(attributes, dict):
                raise SchemaViolation(f"{name}: attributes {short_repr(attributes)}"
                                      " is not an object")
            if category not in _CATEGORY_VALUES:
                raise SchemaViolation(f"{name}: category {short_repr(category)}"
                                      " is not null or a category")
            g.upsert_node(GraphNode(raw["id"], _member(NodeType, raw, "node_type", name),
                                    checked_field(raw, "label", name, ""), dict(attributes),
                                    Category(category) if category else None))
        for raw in payload["edges"]:
            ends = as_string(raw["src"], "edge src"), as_string(raw["dst"], "edge dst")
            name = f"edge {ends[0]!r} -{raw['relation']}-> {ends[1]!r}"
            relation = _member(Relation, raw, "relation", name)
            for end, nid in zip(("src", "dst"), ends):
                if nid not in g.nodes:
                    raise SchemaViolation(f"{name}: {end} {nid!r} is not a node")
            src, dst = g.nodes[ends[0]], g.nodes[ends[1]]
            edge = GraphEdge(src.id, dst.id, relation, checked_field(raw, "weight", name))
            try:
                edge.validate()
            except InvalidArgument as exc:
                raise SchemaViolation(f"{name}: {exc}") from exc
            g.add_triple(src, edge, dst)
    except (KeyError, TypeError) as exc:
        raise SchemaViolation(f"bad graph payload: {exc}") from exc
    return g
