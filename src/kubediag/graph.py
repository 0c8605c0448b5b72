"""Causal knowledge graph over cluster entities and root causes.

Nodes are typed cluster objects (pods, services, volumes, ...) plus explicit
root-cause nodes; weighted directed edges carry one of eight causal/structural
relations.  Documents are sorted into seven troubleshooting categories by a
rule-based keyword classifier before their triples enter the graph.  Search is
best-first over simple paths from query-matched seed nodes, ranked by a blend
of memory prior, edge strength and per-path node freshness.

Seeding scans no dense vector.  Each node's label embedding is kept as a
:class:`~kubediag.embedding.SparseVector` (a hashing label has about 3
non-zeros of 2048), and one :class:`~kubediag.embedding.SparseRows` over all
of them gives every node's cosine with the query, as
:mod:`kubediag.embedding` defines it, in one product.  A label is embedded
once and re-embedded only when it changes.

Each edge is stored once, in its source's out-edge tuple, which is kept
sorted by relation, then destination, so reading it sorts nothing and a
lookup by ``(src, relation, dst)`` is one bisection.  Each item carries the
log of the edge's weight and whether its destination is a root cause, so the
search reads no edge or node record.  The search scores each extension of a
path once, from state the path carries (its running sum of edge-weight logs
and its edge overlap with each memory path), with the same float operations
in the same order as :func:`priority`; only the chains it returns are
rescored with :func:`path_score`.

Copies of a graph share its node and edge records, so a copy costs three
dict copies, one entry per node each, and builds no record.  The graph's
methods therefore never change a record in place: a reweighted edge, a
relabelled node or a node with new attributes or category is a new record
stored under the same key, and an out-edge tuple is replaced when an edge is
added or reweighted.  Callers treat the nodes and edges they read from a
graph, or pass into one, as read-only.
"""

from __future__ import annotations

import bisect
import json
import math
import re
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .embedding import Embedder, SparseRows, SparseVector, nonzero_index
from .errors import (
    ClassificationError,
    InvalidArgument,
    InvalidPath,
    NotFound,
    SchemaViolation,
)
from .files import as_number, as_string, check_fields, short_repr, write_atomic

# labels embedded per stacked block on the first index build
_EMBED_CHUNK = 256


class NodeType(str, Enum):
    POD = "Pod"
    SERVICE = "Service"
    NODE = "Node"
    DEPLOYMENT = "Deployment"
    CONTAINER = "Container"
    VOLUME = "Volume"
    CONFIG_MAP = "ConfigMap"
    SECRET = "Secret"
    INGRESS = "Ingress"
    NAMESPACE = "Namespace"
    EVENT = "Event"
    ROOT_CAUSE = "RootCause"


class Relation(str, Enum):
    DEPENDS_ON = "depends_on"
    MANAGES = "manages"
    CAUSES = "causes"
    MOUNTS = "mounts"
    SCHEDULES_ON = "schedules_on"
    EXPOSES = "exposes"
    CONFIGURES = "configures"
    EVICTS = "evicts"


class Category(str, Enum):
    EXPLANATIONS = "Explanations"
    RESOURCE = "ResourceErrors"
    NETWORK = "NetworkErrors"
    SCHEDULING = "SchedulingErrors"
    IMAGE = "ImageErrors"
    CONFIGURATION = "ConfigurationErrors"
    SYSTEM = "SystemErrors"


_CATEGORY_VALUES = (None, *(c.value for c in Category))  # a node's JSON category

#: Six fault categories (everything except general explanations).
FAULT_CATEGORIES = (
    Category.RESOURCE,
    Category.NETWORK,
    Category.SCHEDULING,
    Category.IMAGE,
    Category.CONFIGURATION,
    Category.SYSTEM,
)

# keyword tables for the rule-based classifier, one focus-area list per category
_CATEGORY_KEYWORDS: dict[Category, tuple[str, ...]] = {
    Category.RESOURCE: (
        "oomkilled", "out of memory", "cpu throttling", "resource quota",
        "persistentvolumeclaim", "pvc", "memory leak", "autoscaler", "evicted",
    ),
    Category.NETWORK: (
        "service discovery", "dns", "network policy", "ingress", "load balancer",
        "cni", "connection refused", "connection timeout",
    ),
    Category.SCHEDULING: (
        "node affinity", "taint", "toleration", "insufficient resources",
        "pod priority", "preemption", "daemonset", "unschedulable",
    ),
    Category.IMAGE: (
        "imagepullbackoff", "errimagepull", "registry authentication", "rate limiting",
        "private registry", "multi-arch", "image layer", "manifest unknown",
    ),
    Category.CONFIGURATION: (
        "configmap", "secret mounting", "rbac", "admission webhook",
        "environment variable", "helm", "operator misconfiguration",
        "createcontainerconfigerror",
    ),
    Category.SYSTEM: (
        "container runtime", "containerd", "kubelet", "etcd", "certificate",
        "kernel", "filesystem corruption", "systemd",
    ),
}

_BOILERPLATE_RE = re.compile(
    r"^\s*(nav:|advertisement|sponsored|cookie notice|subscribe |share this|comments?:)",
    re.IGNORECASE,
)
_HTML_TAG_RE = re.compile(r"<[^>]+>")


@dataclass(eq=False, slots=True)
class GraphNode:
    id: str
    node_type: NodeType
    label: str
    attributes: dict = field(default_factory=dict)
    category: Category | None = None


@dataclass(eq=False, slots=True)
class GraphEdge:
    src: str
    dst: str
    relation: Relation
    weight: float

    def validate(self) -> None:
        if not 0.0 < self.weight <= 1.0:
            raise InvalidArgument(f"edge weight must be in (0, 1], got {self.weight}")
        if self.src == self.dst:
            raise InvalidArgument(f"self-loop on {self.src!r} not allowed")


@dataclass(eq=False)
class Document:
    id: str
    cleaned_text: str
    category: Category
    metadata: dict = field(default_factory=dict)  # source, timestamp, confidence


@dataclass(eq=False)
class CausalChain:
    """A simple path ending at a root-cause node."""

    steps: list[tuple[str, Relation | None]]  # (node id, relation taken to reach it)
    score: float        # overall priority
    prior: float
    path_score: float = 0.0

    @property
    def hop_count(self) -> int:
        return len(self.steps) - 1

    @property
    def node_ids(self) -> list[str]:
        return [n for n, _ in self.steps]


@dataclass
class SearchConfig:
    alphas: tuple[float, float, float] = (0.5, 0.3, 0.2)  # prior, path score, novelty
    max_hops: int = 3
    beam: int = 32
    n_chains: int = 5
    seed_threshold: float = 0.5

    def validate(self) -> None:
        check_fields(self)
        if abs(sum(self.alphas) - 1.0) > 1e-9:
            raise InvalidArgument(f"alphas must sum to 1, got {self.alphas}")
        if self.max_hops < 1 or self.beam < 1 or self.n_chains < 1:
            raise InvalidArgument("max_hops, beam and n_chains must be >= 1")


# ---------------------------------------------------------------------------
# document cleaning and classification


def clean_text(raw: str) -> str:
    """Strip markup and boilerplate lines; falls back to the raw text if empty."""
    stripped = _HTML_TAG_RE.sub(" ", raw)
    lines = [ln for ln in stripped.splitlines() if ln.strip() and not _BOILERPLATE_RE.match(ln)]
    cleaned = re.sub(r"\s+", " ", " ".join(lines)).strip()
    return cleaned if cleaned else raw.strip()


def keyword_classifier(text: str) -> tuple[Category, float]:
    """Count focus-area keyword hits per category; no hits falls back to Explanations."""
    low = text.lower()
    hits = {
        cat: sum(low.count(kw) for kw in kws) for cat, kws in _CATEGORY_KEYWORDS.items()
    }
    total = sum(hits.values())
    if total == 0:
        return Category.EXPLANATIONS, 0.5
    best = max(_CATEGORY_KEYWORDS, key=lambda c: (hits[c], -list(_CATEGORY_KEYWORDS).index(c)))
    return best, hits[best] / total


def classify_document(
    doc_id: str,
    raw_text: str,
    classifier: Callable[[str], tuple[Category, float]] | None = None,
    source: str = "",
    timestamp: float = 0.0,
) -> Document:
    """Clean and categorize one document for corpus construction."""
    if not raw_text.strip():
        raise InvalidArgument(f"document {doc_id!r} is empty")
    cleaned = clean_text(raw_text)
    classifier = classifier or keyword_classifier
    try:
        category, conf = classifier(cleaned)
    except Exception as exc:  # pluggable classifiers may fail arbitrarily
        raise ClassificationError(doc_id, f"classifier raised for {doc_id!r}: {exc}") from exc
    if not isinstance(category, Category):
        raise ClassificationError(doc_id, f"classifier returned non-category {category!r}")
    return Document(
        id=doc_id,
        cleaned_text=cleaned,
        category=category,
        metadata={"source": source, "timestamp": timestamp, "confidence": float(conf)},
    )


# ---------------------------------------------------------------------------
# the graph store


class _LabelIndex(NamedTuple):
    """Every node's sparse label entries, in node order."""

    ids: list[str]     # row -> node id
    rows: SparseRows


def _redefined(node: GraphNode, known: NodeType) -> SchemaViolation:
    return SchemaViolation(
        f"node {node.id!r} redefined from {known.value} to {node.node_type.value}"
    )


def checked_field(raw: dict, key: str, owner: str, default: object = None) -> str | float:
    """A node's ``label`` or an edge's ``weight`` read from JSON, checked
    instead of coerced: ``str()`` would turn a null label into "None", and
    ``float()`` would read ``true`` as 1.0 and parse "0.7".  A missing key
    takes ``default`` or, without one, raises ``KeyError``."""
    value = raw[key] if default is None else raw.get(key, default)
    try:
        return as_string(value, key) if key == "label" else as_number(value, key)
    except TypeError as exc:
        raise SchemaViolation(f"{owner}: {exc}") from None


def _member(enum: type[Enum], raw: dict, key: str, owner: str) -> Enum:
    """The member of ``enum`` named by ``raw[key]``, a JSON field of ``owner``."""
    try:
        return enum(raw[key])
    except ValueError:
        pass
    raise SchemaViolation(f"{owner}: {key} {short_repr(raw[key])} is not a {enum.__name__}")


# an adjacency item: (relation value, dst, relation, log weight, dst is a
# root cause, edge record)
_Item = tuple[str, str, Relation, float, bool, GraphEdge]


def _find(out: tuple[_Item, ...], value: str, dst: str) -> tuple[int, GraphEdge | None]:
    """The slot of edge ``(value, dst)`` in the sorted adjacency ``out`` and
    its record, or where it would go and ``None``."""
    i = bisect.bisect_left(out, (value, dst))  # never compares past dst
    if i < len(out) and out[i][0] == value and out[i][1] == dst:
        return i, out[i][5]
    return i, None


class _EdgeView(Mapping):
    """Read-only ``(src, relation value, dst) -> GraphEdge`` view of an
    adjacency: a lookup is one bisection, and nothing is stored per edge."""

    __slots__ = ("_out",)

    def __init__(self, out: dict[str, tuple[_Item, ...]]) -> None:
        self._out = out

    def __getitem__(self, key: tuple[str, str, str]) -> GraphEdge:
        src, value, dst = key
        edge = _find(self._out.get(src, ()), value, dst)[1]
        if edge is None:
            raise KeyError(key)
        return edge

    def __iter__(self) -> Iterator[tuple[str, str, str]]:
        for src, out in self._out.items():
            for value, dst, *_ in out:
                yield src, value, dst

    def __len__(self) -> int:
        return sum(map(len, self._out.values()))


class KnowledgeGraph:
    """Directed typed multigraph keyed by (src, relation, dst) with max-weight dedup."""

    def __init__(self) -> None:
        self.nodes: dict[str, GraphNode] = {}
        # src -> its out-edge items, each edge's only store, sorted by
        # (relation value, dst), which is unique per src; the tuple is
        # replaced when an edge out of src is added or reweighted.  A node's
        # type never changes, so neither does the root-cause flag.
        self._out: dict[str, tuple[_Item, ...]] = {}
        # node id -> its label embedding
        self._label_vecs: dict[str, SparseVector] = {}
        # built by seed_nodes, shared by copies, never mutated in place;
        # dropped when a node is added or a node's label changes
        self._label_index: _LabelIndex | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def edges(self) -> Mapping[tuple[str, str, str], GraphEdge]:
        """Every edge by ``(src, relation value, dst)``, read through the
        adjacency; a view, not a copy."""
        return _EdgeView(self._out)

    def copy(self) -> "KnowledgeGraph":
        """Independent copy that shares this graph's node and edge records.

        Three dict copies, one entry per node each, and no new record: the
        graph's methods replace a record rather than change it, so an edit
        through either graph never shows in the other.
        """
        g = KnowledgeGraph()
        g.nodes = dict(self.nodes)
        g._out = dict(self._out)
        g._label_vecs = dict(self._label_vecs)
        g._label_index = self._label_index
        return g

    def upsert_node(self, node: GraphNode) -> None:
        existing = self.nodes.get(node.id)
        if existing is not None:
            if existing.node_type is not node.node_type:
                raise _redefined(node, existing.node_type)
            label = node.label or existing.label
            category = node.category if node.category is not None else existing.category
            if label != existing.label or category is not existing.category or node.attributes:
                if (label or node.id) != (existing.label or node.id):
                    self._label_vecs.pop(node.id, None)
                    self._label_index = None
                self.nodes[node.id] = GraphNode(node.id, existing.node_type, label,
                                                {**existing.attributes, **node.attributes},
                                                category)
        else:
            self.nodes[node.id] = node
            self._label_index = None

    def add_triple(self, src: GraphNode, edge: GraphEdge, dst: GraphNode) -> None:
        """Upsert both endpoints and the edge; duplicate triples keep the max weight."""
        if edge.src != src.id or edge.dst != dst.id:
            raise InvalidArgument("edge endpoints do not match the provided nodes")
        edge.validate()
        self.upsert_node(src)
        self.upsert_node(dst)
        out = self._out.get(edge.src, ())
        i, prior = _find(out, edge.relation.value, edge.dst)
        if prior is None:
            self._store(out, i, False, edge)
        elif edge.weight > prior.weight:
            self._store(out, i, True, GraphEdge(prior.src, prior.dst, prior.relation, edge.weight))

    def _store(self, out: tuple[_Item, ...], i: int, replace: bool, edge: GraphEdge) -> None:
        """Make ``_out[edge.src]`` a new tuple: ``out``, the current one,
        with ``edge``'s item put at slot ``i``, in place of the item there
        when ``replace``.  O(out-degree of ``edge.src``)."""
        item = (edge.relation.value, edge.dst, edge.relation, math.log(edge.weight),
                self.nodes[edge.dst].node_type is NodeType.ROOT_CAUSE, edge)
        self._out[edge.src] = out[:i] + (item,) + out[i + replace:]

    def confirm_relation(self, src: GraphNode, relation: Relation, dst: GraphNode) -> float:
        """Feedback rule: new edges enter at 0.5; each reconfirmation adds 0.1, capped at 1."""
        out = self._out.get(src.id, ())
        i, prior = _find(out, relation.value, dst.id)
        w = 0.5 if prior is None else min(1.0, prior.weight + 0.1)
        edge = GraphEdge(src.id, dst.id, relation, w)
        edge.validate()
        self.upsert_node(src)
        self.upsert_node(dst)
        self._store(out, i, prior is not None, edge)
        return w

    def check_relations(self, relations: Iterable[tuple[GraphNode, Relation, GraphNode]]) -> None:
        """Raise what :meth:`confirm_relation` would raise on ``relations``
        applied in order, without changing the graph: ``InvalidArgument`` for
        a self-loop, ``SchemaViolation`` for a node whose type differs from
        the graph's or from an earlier relation's."""
        types: dict[str, NodeType] = {}
        for src, relation, dst in relations:
            GraphEdge(src.id, dst.id, relation, 0.5).validate()
            for node in (src, dst):
                known = types.get(node.id)
                if known is None:
                    existing = self.nodes.get(node.id)
                    known = types[node.id] = existing.node_type if existing else node.node_type
                if known is not node.node_type:
                    raise _redefined(node, known)

    def edge_weight(self, src: str, relation: Relation, dst: str) -> float:
        edge = _find(self._out.get(src, ()), relation.value, dst)[1]
        if edge is None:
            raise NotFound(f"no edge {src!r} -{relation.value}-> {dst!r}")
        return edge.weight

    def out_edges(self, src: str) -> list[tuple[Relation, str, float]]:
        """``(relation, dst, weight)`` of every edge out of ``src``, by relation
        value, then dst.  :func:`explore` reads the adjacency itself, which
        holds each weight's log as well."""
        return [(rel, dst, e.weight) for _, dst, rel, _, _, e in self._out.get(src, ())]

    def _build_label_index(self, embedder: Embedder) -> _LabelIndex:
        """Embed the labels not yet embedded, then flatten every node's entries."""
        missing = [nid for nid in self.nodes if nid not in self._label_vecs]
        dim = embedder.dim
        for start in range(0, len(missing), _EMBED_CHUNK):
            part = missing[start:start + _EMBED_CHUNK]
            dense = np.array([embedder.embed(self.nodes[nid].label or nid) for nid in part])
            dim = dense.shape[1]
            flat = nonzero_index(dense.ravel())
            rows, cols = np.divmod(flat, dim)
            vals = dense.ravel()[flat]
            bounds = np.searchsorted(rows, np.arange(len(part) + 1)).tolist()
            self._label_vecs.update(zip(part, SparseVector.split(dim, cols, vals, bounds)))
        ids = list(self.nodes)
        return _LabelIndex(ids, SparseRows(dim, map(self._label_vecs.__getitem__, ids)))

    def seed_nodes(self, q_embedding: np.ndarray, embedder: Embedder,
                   threshold: float = 0.5) -> list[str]:
        """Nodes whose label embedding's cosine with ``q_embedding`` is at
        least ``threshold``, best first, ties by id.  The cosines are one
        :meth:`SparseRows.cosines` product over every label, so a node
        sharing no entry with the query has cosine ``0.0``."""
        if not self.nodes:
            return []
        index = self._label_index
        if index is None:
            index = self._label_index = self._build_label_index(embedder)
        cos = index.rows.cosines(q_embedding)
        hits = np.flatnonzero(cos >= threshold)
        ranked = sorted(zip((-cos[hits]).tolist(), map(index.ids.__getitem__, hits.tolist())))
        return [nid for _, nid in ranked]

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "nodes": [
                {
                    "id": n.id,
                    "node_type": n.node_type.value,
                    "label": n.label,
                    "attributes": n.attributes,
                    "category": n.category.value if n.category else None,
                }
                for _, n in sorted(self.nodes.items())
            ],
            # by (src, relation value, dst): sorted sources, each in item order
            "edges": [
                {"src": e.src, "dst": e.dst, "relation": e.relation.value, "weight": e.weight}
                for src in sorted(self._out) for *_, e in self._out[src]
            ],
        }

    def save(self, path: str) -> None:
        write_atomic(path, lambda fh: json.dump(self.to_dict(), fh, sort_keys=True, indent=2))

    @classmethod
    def from_dict(cls, payload: dict) -> "KnowledgeGraph":
        g = cls()
        try:
            for raw in payload["nodes"]:
                name = f"node {as_string(raw['id'], 'node id')!r}"
                # checked, not coerced: dict() reads [["k", "v"]] as an object,
                # and a test of truth reads false, 0 and "" as no category
                attributes, category = raw.get("attributes", {}), raw.get("category")
                if not isinstance(attributes, dict):
                    raise SchemaViolation(f"{name}: attributes {short_repr(attributes)}"
                                          " is not an object")
                if category not in _CATEGORY_VALUES:  # a tuple: a list is compared, not hashed
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

    @classmethod
    def load(cls, path: str) -> "KnowledgeGraph":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise SchemaViolation(f"bad graph payload: {exc}") from exc
        return cls.from_dict(payload)


# ---------------------------------------------------------------------------
# path scoring and search


def _path_edges(node_ids: Sequence[str]) -> set[tuple[str, str]]:
    return {(node_ids[i], node_ids[i + 1]) for i in range(len(node_ids) - 1)}


def path_prior(node_ids: Sequence[str], memory_paths: Sequence[Sequence[str]]) -> float:
    """Best edge overlap between the candidate path and any remembered path."""
    own = _path_edges(node_ids)
    if not own or not memory_paths:
        return 0.0
    best = 0.0
    for mp in memory_paths:
        remembered = _path_edges(mp)
        if remembered:
            best = max(best, len(own & remembered) / len(own))
    return best


def path_score(node_ids: Sequence[str], graph: KnowledgeGraph,
               relations: Sequence[Relation] | None = None) -> float:
    """Geometric mean of edge weights along the path (1.0 for a single node).

    Without ``relations`` a hop takes the heaviest of its parallel edges.  The
    logs are summed by an explicit left-to-right loop from ``0.0``, not by
    ``sum()``: since CPython 3.12 ``sum()`` compensates float rounding, and
    :func:`explore`'s running prefix sums must equal this value bit for bit.
    """
    if len(node_ids) < 2:
        return 1.0
    total = 0.0
    for i in range(len(node_ids) - 1):
        src, dst = node_ids[i], node_ids[i + 1]
        if relations is not None:
            w = graph.edge_weight(src, relations[i], dst)
        else:
            found = [w for _, d, w in graph.out_edges(src) if d == dst]
            if not found:
                raise InvalidPath(f"no edge between {src!r} and {dst!r}")
            w = max(found)
        total += math.log(w)
    return math.exp(total / (len(node_ids) - 1))


def path_novelty(node_ids: Sequence[str], visited: Iterable[str]) -> float:
    """Fraction of the path's nodes not yet visited."""
    if not node_ids:
        raise InvalidArgument("path must contain at least one node")
    seen = set(visited)
    return sum(1 for n in node_ids if n not in seen) / len(node_ids)


def priority(node_ids: Sequence[str], memory_paths: Sequence[Sequence[str]],
             visited: Iterable[str], graph: KnowledgeGraph, cfg: SearchConfig,
             relations: Sequence[Relation] | None = None) -> float:
    a1, a2, a3 = cfg.alphas
    return (
        a1 * path_prior(node_ids, memory_paths)
        + a2 * path_score(node_ids, graph, relations)
        + a3 * path_novelty(node_ids, visited)
    )


def explore(
    graph: KnowledgeGraph,
    q_embedding: np.ndarray,
    memory_paths: Sequence[Sequence[str]],
    cfg: SearchConfig,
    embedder: Embedder,
    extra_seeds: Iterable[str] = (),
) -> list[CausalChain]:
    """Best-first beam search for root-cause chains.

    Candidates are simple paths from seed nodes; a path's priority treats its
    own prefix as the visited set, which keeps ranking a pure function of the
    path and makes the search directly comparable against exhaustive
    enumeration.  Root-cause nodes terminate a path and are never expanded.
    Returns up to ``n_chains`` chains sorted by priority, then raw path score,
    then node-id sequence.

    Each extension is scored once, in O(1 + number of memory paths), from
    state its frontier entry carries: the node ids, the relations, the
    running sum of edge-weight logs and, per memory path with an edge, how
    many of the path's edges that memory holds (the memories' edge sets are
    built once per call).  The out-edges come straight from the graph's
    sorted adjacency, whose items hold each edge's ``math.log`` of its
    weight and whether its destination is a root cause, so an extension
    reads no edge or node record and takes no log.  Every value is the one
    :func:`priority` computes, bit for bit: the log-sum grows left to right
    from ``0.0``, as :func:`path_score` adds it, and ``math.log`` of one
    weight is the same float whenever it is taken; on a simple path of
    ``hops`` edges the best ``overlap / hops`` is :func:`path_prior`'s best
    share, and the novelty against the prefix is ``1 / (hops + 1)``; and the
    three terms are added in :func:`priority`'s order.  Only the returned chains build their steps
    and call :func:`path_score` and :func:`path_prior`.
    """
    cfg.validate()
    seeds = graph.seed_nodes(q_embedding, embedder, cfg.seed_threshold)
    for nid in sorted(set(extra_seeds)):
        if nid in graph.nodes and nid not in seeds:
            seeds.append(nid)
    seeds = seeds[: cfg.beam]

    a1, a2, a3 = cfg.alphas
    remembered = [edges for edges in map(_path_edges, memory_paths) if edges]
    nodes = graph.nodes
    adjacency = graph._out
    rank_key = itemgetter(0)
    # an entry is ((-priority, -path score, node ids), relations, log-sum,
    # overlaps); a seed's rank is never read
    no_overlaps = (0,) * len(remembered)
    frontier = [
        ((0.0, 0.0, (nid,)), (), 0.0, no_overlaps)
        for nid in seeds
        if nodes[nid].node_type is not NodeType.ROOT_CAUSE
    ]
    chains = []

    for hop in range(1, cfg.max_hops + 1):
        novelty = a3 * (1 / (hop + 1))
        grown = []
        for (_, _, ids), rels, logsum, overlaps in frontier:
            tail = ids[-1]
            for _, dst, rel, log_w, is_root, _ in adjacency.get(tail, ()):
                if dst in ids:
                    continue  # simple paths only
                total = logsum + log_w
                ps = math.exp(total / hop)
                if remembered:
                    edge = (tail, dst)
                    counts = tuple([n + (edge in r) for n, r in zip(overlaps, remembered)])
                    prior = max(counts) / hop
                else:
                    counts, prior = overlaps, 0.0
                pri = a1 * prior + a2 * ps + novelty
                entry = ((-pri, -ps, ids + (dst,)), rels + (rel,), total, counts)
                if is_root:
                    chains.append(entry)
                else:
                    grown.append(entry)
        grown.sort(key=rank_key)
        frontier = grown[: cfg.beam]
        if not frontier:
            break

    # one stable sort ranks the chains of every hop as a sort per hop would:
    # equal keys name one path, so they were found in one hop, in this order
    chains.sort(key=rank_key)
    return [
        CausalChain(steps=list(zip(ids, (None,) + rels)), score=-neg_pri,
                    prior=path_prior(ids, memory_paths),
                    path_score=path_score(ids, graph, rels))
        for (neg_pri, _, ids), rels, _, _ in chains[: cfg.n_chains]
    ]
