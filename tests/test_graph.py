import copy
import dataclasses
import hashlib
import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kubediag.graph as graph_module
from helpers import cosine, rand_unit
from kubediag.embedding import HashingEmbedder, SparseVector
from kubediag.errors import (
    ClassificationError,
    InvalidArgument,
    InvalidPath,
    SchemaViolation,
)
from kubediag.graph import (
    CausalChain,
    Category,
    GraphEdge,
    GraphNode,
    KnowledgeGraph,
    NodeType,
    Relation,
    SearchConfig,
    classify_document,
    clean_text,
    explore,
    keyword_classifier,
    path_novelty,
    path_prior,
    path_score,
    priority,
)

EMB = HashingEmbedder(256)


def node(nid, ntype=NodeType.POD, label=None):
    return GraphNode(nid, ntype, label if label is not None else nid.replace("-", " "))


def edge(src, dst, rel=Relation.CAUSES, w=1.0):
    return GraphEdge(src, dst, rel, w)


def chain_graph(*weights):
    """seed -> m1 -> ... -> rc with the given edge weights."""
    g = KnowledgeGraph()
    ids = [f"n{i}" for i in range(len(weights))] + ["rc"]
    prev = node(ids[0], NodeType.POD, "seed symptom entry")
    g.upsert_node(prev)
    for i, w in enumerate(weights):
        ntype = NodeType.ROOT_CAUSE if i == len(weights) - 1 else NodeType.EVENT
        cur = GraphNode(ids[i + 1], ntype, f"step {i}")
        g.add_triple(prev, edge(prev.id, cur.id, Relation.CAUSES, w), cur)
        prev = cur
    return g


# ---------------------------------------------------------------------------
# classification / ingestion


def test_classifier_image_keyword():
    cat, conf = keyword_classifier("pod stuck in ImagePullBackOff since rollout")
    assert cat is Category.IMAGE
    assert conf > 0


def test_classifier_resource_keyword():
    cat, _ = keyword_classifier("container OOMKilled twice in an hour")
    assert cat is Category.RESOURCE


def test_classifier_fallback_bucket():
    assert keyword_classifier("general yak shaving notes") == (Category.EXPLANATIONS, 0.5)


def test_classifier_deterministic():
    text = "dns lookups failing and etcd slow"
    assert keyword_classifier(text) == keyword_classifier(text)


def test_classify_document_fields():
    doc = classify_document("d1", "  CrashLoopBackOff <b>after</b> OOMKilled\n\n")
    assert doc.id == "d1"
    assert doc.category is Category.RESOURCE
    assert "<b>" not in doc.cleaned_text
    assert "confidence" in doc.metadata


def test_classify_document_wraps_classifier_failure():
    def broken(text):
        raise ValueError("boom")

    with pytest.raises(ClassificationError) as exc_info:
        classify_document("d9", "whatever", classifier=broken)
    assert "d9" in str(exc_info.value)


def test_clean_text_drops_markup_and_blank_lines():
    cleaned = clean_text("<html><p>line one</p>\n\n\nline two</html>")
    assert "<" not in cleaned
    assert "line one" in cleaned and "line two" in cleaned


# ---------------------------------------------------------------------------
# graph assembly


def test_add_triple_counts():
    g = KnowledgeGraph()
    a, b = node("a"), node("b", NodeType.EVENT)
    g.add_triple(a, edge("a", "b"), b)
    assert len(g.nodes) == 2
    assert len(g.edges) == 1


def test_add_triple_duplicate_keeps_max_weight():
    g = KnowledgeGraph()
    a, b = node("a"), node("b", NodeType.EVENT)
    g.add_triple(a, edge("a", "b", w=0.4), b)
    g.add_triple(a, edge("a", "b", w=0.9), b)
    g.add_triple(a, edge("a", "b", w=0.2), b)
    assert len(g.edges) == 1
    ((_, e),) = g.edges.items()
    assert e.weight == 0.9


def test_add_triple_endpoint_mismatch_rejected():
    g = KnowledgeGraph()
    with pytest.raises(InvalidArgument):
        g.add_triple(node("a"), edge("x", "b"), node("b"))


def test_upsert_conflicting_type_rejected():
    g = KnowledgeGraph()
    g.upsert_node(node("a", NodeType.POD))
    with pytest.raises(SchemaViolation):
        g.upsert_node(node("a", NodeType.SERVICE))


def test_random_triples_dedup_counts(rng):
    g = KnowledgeGraph()
    seen_nodes, seen_edges = set(), set()
    for _ in range(100):
        i, j = rng.integers(0, 12, size=2)
        if i == j:
            continue
        rel = list(Relation)[int(rng.integers(0, len(Relation)))]
        a, b = node(f"n{i}", NodeType.EVENT), node(f"n{j}", NodeType.EVENT)
        g.add_triple(a, GraphEdge(a.id, b.id, rel, float(rng.uniform(0.1, 1))), b)
        seen_nodes.update((a.id, b.id))
        seen_edges.add((a.id, rel.value, b.id))
    assert len(g.nodes) == len(seen_nodes)
    assert len(g.edges) == len(seen_edges)


def test_confirm_relation_creates_then_reinforces():
    g = KnowledgeGraph()
    a, b = node("a"), node("b", NodeType.EVENT)
    assert g.confirm_relation(a, Relation.CAUSES, b) == pytest.approx(0.5)
    assert g.confirm_relation(a, Relation.CAUSES, b) == pytest.approx(0.6)
    for _ in range(10):
        w = g.confirm_relation(a, Relation.CAUSES, b)
    assert w == pytest.approx(1.0)  # capped


def test_copy_is_independent():
    g = chain_graph(0.9, 0.8)
    g2 = g.copy()
    g2.confirm_relation(g2.nodes["n0"], Relation.CAUSES, g2.nodes["n1"])
    g2.upsert_node(node("extra", NodeType.EVENT))
    assert "extra" not in g.nodes
    assert g.edges[("n0", Relation.CAUSES.value, "n1")].weight == 0.9


def test_save_load_roundtrip(tmp_path):
    g = chain_graph(0.9, 0.4)
    path = tmp_path / "graph.json"
    g.save(str(path))
    g2 = KnowledgeGraph.load(str(path))
    assert set(g2.nodes) == set(g.nodes)
    assert set(g2.edges) == set(g.edges)
    for key, e in g.edges.items():
        assert g2.edges[key].weight == e.weight
    assert g2.nodes["rc"].node_type is NodeType.ROOT_CAUSE


def scan_out_edges(g, src):
    """``out_edges`` as it was before the adjacency was kept sorted: every
    edge out of ``src``, sorted by relation value, then dst."""
    out = [(e.relation, d, e.weight) for (s, _, d), e in g.edges.items() if s == src]
    out.sort(key=lambda t: (t[0].value, t[1]))
    return out


@st.composite
def triple_lists(draw, max_nodes=6, max_triples=16, weights=st.floats(0.05, 1.0)):
    """(node specs, triples) on a few nodes, the first a pod and the last a
    root cause; parallel relations between one pair, repeated triples and
    reversed edges are all common."""
    n = draw(st.integers(2, max_nodes))
    inner = st.sampled_from([NodeType.POD, NodeType.EVENT, NodeType.ROOT_CAUSE])
    types = [NodeType.POD] + draw(st.lists(inner, min_size=n - 2, max_size=n - 2)) + [
        NodeType.ROOT_CAUSE]
    specs = [(f"n{i}", types[i], f"node {i}") for i in range(n)]
    triples = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(RELS), weights),
        min_size=1, max_size=max_triples,
    ).map(lambda ts: [t for t in ts if t[0] != t[1]]).filter(bool))
    return specs, triples


def build_graph(specs, triples):
    g = KnowledgeGraph()
    for i, j, rel, w in triples:
        g.add_triple(GraphNode(*specs[i]), GraphEdge(specs[i][0], specs[j][0], rel, w),
                     GraphNode(*specs[j]))
    return g


def saved_and_loaded(g):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.json")
        g.save(path)
        return KnowledgeGraph.load(path)


@given(triple_lists(), st.data())
def test_graph_store_is_independent_of_insertion_order(case, data):
    specs, triples = case
    first = build_graph(specs, triples)
    shuffled = build_graph(specs, data.draw(st.permutations(triples)))
    graphs = [first, shuffled, saved_and_loaded(first), saved_and_loaded(shuffled), first.copy()]

    def check(graphs):
        want = graphs[0].to_dict()
        for g in graphs:
            assert g.to_dict() == want
            for nid in graphs[0].nodes:
                assert g.out_edges(nid) == scan_out_edges(graphs[0], nid)

    check(graphs)
    # reinforce an edge every graph has, then add one that may be new
    i, j, rel, _ = data.draw(st.sampled_from(triples))
    k = data.draw(st.sampled_from([t for t in range(len(specs)) if t != i]))
    new_rel = data.draw(st.sampled_from(list(Relation)))
    for g in graphs:
        g.confirm_relation(g.nodes[specs[i][0]], rel, g.nodes[specs[j][0]])
        g.confirm_relation(GraphNode(*specs[i]), new_rel, GraphNode(*specs[k]))
    check(graphs)


def graph_edits(specs, triples):
    """One edit through a graph method: an upsert with a new label, attributes
    or category; a repeated triple, heavier or not; or a confirmation of a
    new or a repeated triple."""
    n = len(specs)
    upsert = st.tuples(st.just("upsert"), st.integers(0, n - 1),
                       st.sampled_from(["", "pod oom", "dns", "node 0"]),
                       st.dictionaries(st.sampled_from("ab"), st.integers(0, 3), max_size=2),
                       st.none() | st.sampled_from(list(Category)))
    add = st.tuples(st.just("add"), st.sampled_from(triples), st.floats(0.05, 1.0))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    confirm_new = st.tuples(st.just("confirm"), pair, st.sampled_from(list(Relation)))
    confirm_repeat = st.sampled_from(triples).map(lambda t: ("confirm", t[:2], t[2]))
    return st.one_of(upsert, add, confirm_new, confirm_repeat)


def apply_edit(g, specs, edit):
    kind, *args = edit
    if kind == "upsert":
        i, label, attributes, category = args
        g.upsert_node(GraphNode(specs[i][0], specs[i][1], label, attributes, category))
    elif kind == "add":
        (i, j, rel, _), w = args
        g.add_triple(GraphNode(*specs[i]), GraphEdge(specs[i][0], specs[j][0], rel, w),
                     GraphNode(*specs[j]))
    else:
        (i, j), rel = args
        g.confirm_relation(GraphNode(*specs[i]), rel, GraphNode(*specs[j]))


def observed(g):
    """What a reader sees, by value: the payload as JSON, every node's
    out-edges and the seeds of one query."""
    return (json.dumps(g.to_dict(), sort_keys=True),
            {nid: g.out_edges(nid) for nid in g.nodes},
            g.seed_nodes(EMB.embed("pod oom"), EMB))


@given(triple_lists(), st.data())
def test_copy_and_original_never_see_each_others_edits(case, data):
    specs, triples = case
    g = build_graph(specs, triples)
    before = observed(g)  # builds the label index the copy shares
    copied = g.copy()
    edited, other = (copied, g) if data.draw(st.booleans()) else (g, copied)
    fresh = build_graph(specs, triples)
    for edit in data.draw(st.lists(graph_edits(specs, triples), min_size=1, max_size=8)):
        apply_edit(edited, specs, edit)
        apply_edit(fresh, specs, edit)
        assert observed(other) == before
    assert observed(edited) == observed(fresh)


def assert_adjacency_matches_records(g):
    """A source's items are strictly increasing by relation value, then dst,
    and each matches the edge record it holds: the record's src, dst and
    relation, its ``math.log(weight)`` bit for bit and whether its
    destination is a root cause."""
    for src, out in g._out.items():
        keys = [item[:2] for item in out]
        assert out and keys == sorted(set(keys))
        for value, dst, rel, log_w, is_root, e in out:
            assert (e.src, e.dst, e.relation.value) == (src, dst, value)
            assert rel is e.relation
            assert log_w.hex() == math.log(e.weight).hex()
            assert is_root is (g.nodes[dst].node_type is NodeType.ROOT_CAUSE)


def reloaded_with_a_heavier_repeat(g, pick):
    """``g`` through ``from_dict`` of its payload with a lighter twin of
    edge ``pick`` listed first, so that the edge's own entry is a heavier
    repeated triple."""
    payload = g.to_dict()
    edges = payload["edges"]
    i = pick % len(edges)
    edges.insert(i, dict(edges[i], weight=edges[i]["weight"] / 2))
    h = KnowledgeGraph.from_dict(payload)
    assert h.to_dict() == g.to_dict()
    return h


@given(triple_lists(), st.data())
def test_adjacency_items_match_the_records_after_any_edits(case, data):
    specs, triples = case
    graphs = [build_graph(specs, triples)]
    steps = st.one_of(graph_edits(specs, triples),
                      st.sampled_from(["copy", "save and load", "heavier repeat"]))
    for step in data.draw(st.lists(steps, min_size=1, max_size=10)):
        g = data.draw(st.sampled_from(graphs))
        if step == "copy":
            graphs.append(g.copy())
        elif step == "save and load":
            graphs.append(saved_and_loaded(g))
        elif step == "heavier repeat":
            graphs.append(reloaded_with_a_heavier_repeat(g, data.draw(st.integers(0, 99))))
        else:
            apply_edit(g, specs, step)
        for each in graphs:
            assert_adjacency_matches_records(each)


def model_edit(model, specs, edit):
    """``edit`` applied to ``model``, a plain dict of every edge's weight by
    ``(src, relation value, dst)``: a repeated triple keeps the heavier
    weight, a confirmation enters at 0.5 and then adds 0.1 up to 1."""
    kind, *args = edit
    if kind == "add":
        (i, j, rel, _), w = args
        key = (specs[i][0], rel.value, specs[j][0])
        model[key] = max(model.get(key, w), w)
    elif kind == "confirm":
        (i, j), rel = args
        key = (specs[i][0], rel.value, specs[j][0])
        model[key] = min(1.0, model[key] + 0.1) if key in model else 0.5


def assert_edges_equal(g, model, keys):
    """``g.edges`` reads as the plain dict ``model``: item for item, by
    ``len``, by ``in`` and ``KeyError`` on each of ``keys``, and as the
    edge list of the saved payload, byte for byte."""
    view = g.edges
    assert {key: e.weight for key, e in view.items()} == model
    assert all((e.src, e.relation.value, e.dst) == key for key, e in view.items())
    assert len(view) == len(model)
    for key in keys:
        assert (key in view) is (key in model)
        if key not in model:
            with pytest.raises(KeyError):
                view[key]
    want = [{"src": s, "dst": d, "relation": v, "weight": w}
            for (s, v, d), w in sorted(model.items())]
    assert json.dumps(g.to_dict()["edges"], sort_keys=True) == json.dumps(want, sort_keys=True)


@given(triple_lists(), st.data())
def test_the_edge_view_reads_as_a_plain_dict_of_every_edge(case, data):
    specs, triples = case
    model = {}
    for i, j, rel, w in triples:
        model_edit(model, specs, ("add", (i, j, rel, w), w))
    graphs = [(build_graph(specs, triples), model)]
    keys = [(a[0], rel.value, b[0]) for a in specs for rel in Relation for b in specs]
    steps = st.one_of(graph_edits(specs, triples), st.sampled_from(["copy", "save and load"]))
    for step in data.draw(st.lists(steps, min_size=1, max_size=10)):
        g, model = data.draw(st.sampled_from(graphs))
        if step == "copy":
            graphs.append((g.copy(), dict(model)))
        elif step == "save and load":
            graphs.append((saved_and_loaded(g), dict(model)))
        else:
            apply_edit(g, specs, step)
            model_edit(model, specs, step)
        for each in graphs:
            assert_edges_equal(*each, keys)


def test_a_copy_costs_per_node_not_per_edge():
    # 100 nodes of 30 out-edges each: copying any per-edge dict alone
    # allocates more than the whole copy may
    g = KnowledgeGraph()
    nodes = [node(f"n{i:03d}", NodeType.EVENT) for i in range(100)]
    for i, a in enumerate(nodes):
        for k in range(1, 31):
            b = nodes[(i + k) % 100]
            g.add_triple(a, edge(a.id, b.id), b)
    per_edge = dict.fromkeys(g.edges)
    assert len(per_edge) == 3000

    def peak(make):
        tracemalloc.start()
        try:
            make()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(g.copy) < peak(lambda: dict(per_edge))


def test_copy_builds_no_node_or_edge(monkeypatch):
    g = chain_graph(0.9, 0.8, 0.7)
    built = []
    for cls in (GraphNode, GraphEdge):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    g2 = g.copy()
    assert built == []
    g2.confirm_relation(g2.nodes["n0"], Relation.CAUSES, g2.nodes["n1"])
    assert built == ["GraphEdge"]  # the counter counts


def test_graph_methods_replace_records_and_never_change_them():
    g = chain_graph(0.5, 0.8)
    key = ("n0", Relation.CAUSES.value, "n1")
    edits = [
        lambda: g.confirm_relation(g.nodes["n0"], Relation.CAUSES, g.nodes["n1"]),
        lambda: g.add_triple(GraphNode("n0", NodeType.POD, "", {"seen": 1}),
                             GraphEdge("n0", "n1", Relation.CAUSES, 0.9),
                             GraphNode("n1", NodeType.EVENT, "renamed", category=Category.NETWORK)),
        lambda: g.upsert_node(GraphNode("n0", NodeType.POD, "relabelled", {"seen": 2},
                                        Category.SYSTEM)),
    ]
    def field_values(record):  # records have slots, so no vars()
        return {f.name: copy.deepcopy(getattr(record, f.name))
                for f in dataclasses.fields(record)}

    for edit in edits:
        records = [g.edges[key], g.nodes["n0"], g.nodes["n1"]]
        want = [field_values(r) for r in records]
        edit()
        assert [field_values(r) for r in records] == want
    assert g.edges[key].weight == 0.9
    assert (g.nodes["n0"].label, g.nodes["n0"].attributes, g.nodes["n0"].category) == (
        "relabelled", {"seen": 2}, Category.SYSTEM)
    assert (g.nodes["n1"].label, g.nodes["n1"].category) == ("renamed", Category.NETWORK)


def test_load_rejects_unknown_enum(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"nodes": [{"id": "a", "node_type": "Gremlin", "label": "x", '
        '"attributes": {}, "category": null}], "edges": []}'
    )
    with pytest.raises(SchemaViolation):
        KnowledgeGraph.load(str(path))


GOOD_GRAPH = {
    "nodes": [
        {"id": "a", "node_type": "Pod", "label": "pod a", "attributes": {}, "category": None},
        {"id": "b", "node_type": "RootCause", "label": "b", "attributes": {}, "category": None},
    ],
    "edges": [{"src": "a", "dst": "b", "relation": "causes", "weight": 0.5}],
}


@pytest.mark.parametrize("table,bad", [
    ("edges", {"weight": 2.0}),
    ("edges", {"weight": float("nan")}),
    ("edges", {"dst": "a"}),
    ("edges", {"weight": "0.5"}),
    ("edges", {"weight": True}),
    ("nodes", {"label": None}),
    ("nodes", {"attributes": [["k", "v"]]}),
    ("nodes", {"attributes": "ab"}),
    ("nodes", {"attributes": None}),
    ("nodes", {"category": False}),
    ("nodes", {"category": 0}),
    ("nodes", {"category": ""}),
    ("nodes", {"category": ["Resource"]}),
], ids=["weight-above-one", "nan-weight", "self-loop", "string-weight", "bool-weight",
        "null-label", "pair-list-attributes", "string-attributes", "null-attributes",
        "false-category", "zero-category", "empty-category", "list-category"])
def test_load_rejects_bad_field_naming_it(tmp_path, table, bad):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(GOOD_GRAPH))
    assert KnowledgeGraph.load(str(path)).edges[("a", "causes", "b")].weight == 0.5
    payload = copy.deepcopy(GOOD_GRAPH)
    payload[table][0].update(bad)
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaViolation, match="'a'"):
        KnowledgeGraph.load(str(path))


def load_edited(tmp_path, table, bad):
    """``KnowledgeGraph.load`` of ``GOOD_GRAPH`` with ``bad`` set in the first
    record of ``table``."""
    payload = copy.deepcopy(GOOD_GRAPH)
    payload[table][0].update(bad)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(payload))
    return KnowledgeGraph.load(str(path))


def test_load_names_the_node_of_an_unknown_node_type(tmp_path):
    with pytest.raises(SchemaViolation,
                       match=r"^node 'a': node_type 'Gremlin' is not a NodeType$"):
        load_edited(tmp_path, "nodes", {"node_type": "Gremlin"})


def test_load_names_the_edge_of_an_unknown_relation(tmp_path):
    with pytest.raises(SchemaViolation,
                       match=r"^edge 'a' -zz-> 'b': relation 'zz' is not a Relation$"):
        load_edited(tmp_path, "edges", {"relation": "zz"})


@pytest.mark.parametrize("end,name", [("src", "edge 'zz' -causes-> 'b'"),
                                      ("dst", "edge 'a' -causes-> 'zz'")])
def test_load_names_the_edge_and_the_missing_node_of_an_end(tmp_path, end, name):
    with pytest.raises(SchemaViolation, match=f"^{name}: {end} 'zz' is not a node$"):
        load_edited(tmp_path, "edges", {end: "zz"})


def test_load_reads_missing_node_fields_as_empty(tmp_path):
    payload = copy.deepcopy(GOOD_GRAPH)
    del payload["nodes"][0]["attributes"], payload["nodes"][0]["category"]
    payload["nodes"][1].update(attributes={"k": ["v"]}, category="ResourceErrors")
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(payload))
    g = KnowledgeGraph.load(str(path))
    assert (g.nodes["a"].attributes, g.nodes["a"].category) == ({}, None)
    assert (g.nodes["b"].attributes, g.nodes["b"].category) == ({"k": ["v"]}, Category.RESOURCE)


@pytest.mark.parametrize("value", [None, 5], ids=["null-id", "int-id"])
def test_load_rejects_non_string_node_ids(tmp_path, value):
    # coerced with str(), node "b" would load as "None" or "5"
    payload = copy.deepcopy(GOOD_GRAPH)
    payload["nodes"][1]["id"] = payload["edges"][0]["dst"] = value
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaViolation, match="is not a string"):
        KnowledgeGraph.load(str(path))
    payload["nodes"][1]["id"] = "b"  # a string node id with a non-string edge end
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaViolation, match="edge dst"):
        KnowledgeGraph.load(str(path))


def test_schema_enums_are_closed():
    assert len(NodeType) == 12
    assert len(Relation) == 8
    assert NodeType.ROOT_CAUSE.value == "RootCause"


# ---------------------------------------------------------------------------
# seeding through the sparse label index


class DenseEmbedder:
    """A unit vector with every entry non-zero, seeded by the text."""

    dim = 16

    def embed(self, text):
        seed = int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big")
        v = np.random.default_rng(seed).standard_normal(self.dim)
        return v / np.linalg.norm(v)


class CountingEmbedder(HashingEmbedder):
    def __init__(self, dim):
        super().__init__(dim)
        self.texts = []

    def embed(self, text):
        self.texts.append(text)
        return super().embed(text)


SEED_EMBEDDERS = {"hashing": HashingEmbedder(64), "dense": DenseEmbedder()}
VOCAB = ["pod", "oom", "dns", "node", "disk", "pressure", "image", "pull", "kubelet"]

labels = st.lists(st.sampled_from(VOCAB), max_size=4).map(" ".join)


def scan_seeds(g, q, embedder, threshold):
    """The per-node scan the index replaced: each label embedded again and
    its cosine taken as a left-to-right loop over its entries."""
    hits = []
    for nid in g.nodes:
        sim = cosine(SparseVector.of(embedder.embed(g.nodes[nid].label or nid)), q)
        if sim >= threshold:
            hits.append((-sim, nid))
    return [nid for _, nid in sorted(hits)]


def labelled_graph(names):
    g = KnowledgeGraph()
    for i, label in enumerate(names):
        g.upsert_node(GraphNode(f"n{i}", NodeType.EVENT, label))
    return g


@st.composite
def seed_cases(draw):
    """(embedder, graph, query, threshold), the threshold often an exact
    similarity or its neighbouring float, where rounding would show."""
    embedder = SEED_EMBEDDERS[draw(st.sampled_from(sorted(SEED_EMBEDDERS)))]
    g = labelled_graph(draw(st.lists(labels, min_size=1, max_size=12)))
    if draw(st.booleans()):
        q = embedder.embed(draw(labels.filter(bool)))
    else:
        q = rand_unit(np.random.default_rng(draw(st.integers(0, 2**32))), embedder.dim)
    sims = [cosine(SparseVector.of(embedder.embed(n.label or n.id)), q) for n in g.nodes.values()]
    threshold = draw(st.one_of(
        st.sampled_from([-1.0, -0.25, 0.0, 0.5, 1.0]),
        st.floats(-1.0, 1.0),
        st.sampled_from(sims),
        st.sampled_from(sims).map(lambda x: float(np.nextafter(x, 2.0))),
    ))
    return embedder, g, q, threshold


@given(seed_cases())
def test_seed_nodes_equal_the_dense_scan(case):
    embedder, g, q, threshold = case
    assert g.seed_nodes(q, embedder, threshold) == scan_seeds(g, q, embedder, threshold)


@given(seed_cases(), st.data())
def test_seed_nodes_stay_exact_after_relabel_new_node_and_copy(case, data):
    embedder, g, q, threshold = case

    def check(graph):
        assert graph.seed_nodes(q, embedder, threshold) == scan_seeds(graph, q, embedder,
                                                                      threshold)

    check(g)
    relabelled = data.draw(st.sampled_from(sorted(g.nodes)))
    g.upsert_node(GraphNode(relabelled, NodeType.EVENT, data.draw(labels) + " pod"))
    check(g)
    g.upsert_node(GraphNode("fresh", NodeType.POD, data.draw(labels)))
    check(g)
    before = g.seed_nodes(q, embedder, threshold)
    g2 = g.copy()
    g2.upsert_node(GraphNode(relabelled, NodeType.EVENT, data.draw(labels) + " dns"))
    g2.upsert_node(GraphNode("fresher", NodeType.POD, data.draw(labels)))
    check(g2)
    assert g.seed_nodes(q, embedder, threshold) == before
    check(g)


def test_upsert_reembeds_only_a_changed_label():
    embedder = CountingEmbedder(64)
    g = labelled_graph(["pod oom", "dns", ""])
    q = embedder.embed("pod oom")
    g.seed_nodes(q, embedder)
    assert embedder.texts == ["pod oom", "pod oom", "dns", "n2"]
    g.upsert_node(GraphNode("n0", NodeType.EVENT, "pod oom", {"seen": 1}))
    g.upsert_node(GraphNode("n1", NodeType.EVENT, ""))  # keeps its label
    g.upsert_node(GraphNode("n2", NodeType.EVENT, "n2"))  # its id was already the label
    g.confirm_relation(g.nodes["n0"], Relation.CAUSES, g.nodes["n1"])
    g.copy().seed_nodes(q, embedder)
    assert g.seed_nodes(q, embedder) == ["n0"]
    assert len(embedder.texts) == 4
    g.upsert_node(GraphNode("n1", NodeType.EVENT, "pod oom"))
    assert g.seed_nodes(q, embedder) == ["n0", "n1"]
    assert embedder.texts[4:] == ["pod oom"]


# ---------------------------------------------------------------------------
# path functions


def test_path_prior_empty_memories():
    assert path_prior(["a", "b"], []) == 0.0


def test_path_prior_identical_path():
    assert path_prior(["a", "b", "c"], [["a", "b", "c"]]) == 1.0


def test_path_prior_half_overlap():
    # shares edge (a,b) but not (b,c) with the best memory
    assert path_prior(["a", "b", "c"], [["a", "b", "x"], ["q", "r"]]) == 0.5


def test_path_prior_single_node_is_zero():
    assert path_prior(["a"], [["a", "b"]]) == 0.0


def test_path_score_single_full_weight_edge():
    g = chain_graph(1.0)
    assert path_score(["n0", "rc"], g) == 1.0


def test_path_score_geometric_mean():
    g = chain_graph(0.9, 0.4)
    assert path_score(["n0", "n1", "rc"], g) == pytest.approx(0.6, abs=1e-12)


@pytest.mark.parametrize("w,length", [(0.7, 1), (0.7, 2), (0.7, 3)])
def test_path_score_fixed_point(w, length):
    g = chain_graph(*([w] * length))
    ids = [f"n{i}" for i in range(length)] + ["rc"]
    assert path_score(ids, g) == pytest.approx(w, abs=1e-12)


def test_path_score_missing_edge():
    g = chain_graph(0.9)
    with pytest.raises(InvalidPath):
        path_score(["rc", "n0"], g)  # reversed: no such edge


def test_path_score_without_relations_takes_the_heaviest_parallel_edge():
    g = chain_graph(0.4, 0.9)
    g.add_triple(g.nodes["n0"], edge("n0", "n1", Relation.DEPENDS_ON, 0.8), g.nodes["n1"])
    g.add_triple(g.nodes["n0"], edge("n0", "n1", Relation.EVICTS, 0.6), g.nodes["n1"])
    g.add_triple(g.nodes["n0"], edge("n0", "rc", Relation.EVICTS, 1.0), g.nodes["rc"])
    assert path_score(["n0", "n1", "rc"], g) == path_score(
        ["n0", "n1", "rc"], g, [Relation.DEPENDS_ON, Relation.CAUSES])


def test_path_novelty_cases():
    assert path_novelty(["a", "b"], {"a", "b"}) == 0.0
    assert path_novelty(["a", "b"], set()) == 1.0
    assert path_novelty(["a", "b", "c", "d"], {"a", "b"}) == 0.5


def test_priority_all_ones():
    g = chain_graph(1.0)
    got = priority(["n0", "rc"], [["n0", "rc"]], set(), g, SearchConfig())
    assert got == pytest.approx(1.0, abs=1e-12)


def test_priority_hand_weighted_sum():
    # components: prior 1.0, path score 0.6, novelty 2/3 (only n0 visited)
    g = chain_graph(0.9, 0.4)
    ids = ["n0", "n1", "rc"]
    got = priority(ids, [ids], {"n0"}, g, SearchConfig())
    want = 0.5 * 1.0 + 0.3 * 0.6 + 0.2 * (2 / 3)
    assert got == pytest.approx(want, abs=1e-9)


def test_priority_degenerate_weights_equal_prior():
    g = chain_graph(0.9, 0.4)
    cfg = SearchConfig(alphas=(1.0, 0.0, 0.0))
    ids = ["n0", "n1", "rc"]
    assert priority(ids, [["n0", "n1", "x"]], set(), g, cfg) == path_prior(ids, [["n0", "n1", "x"]])


# ---------------------------------------------------------------------------
# explore


def q_for(label):
    return EMB.embed(label)


def test_explore_no_root_cause_nodes():
    g = KnowledgeGraph()
    a, b = node("a", NodeType.POD, "pod stuck pending"), node("b", NodeType.EVENT, "other thing")
    g.add_triple(a, edge("a", "b"), b)
    assert explore(g, q_for("pod stuck pending"), [], SearchConfig(), EMB) == []


def test_explore_linear_chain():
    g = chain_graph(0.9, 0.8, 0.7)
    chains = explore(g, q_for("seed symptom entry"), [], SearchConfig(), EMB)
    assert len(chains) == 1
    assert chains[0].node_ids == ["n0", "n1", "n2", "rc"]
    assert chains[0].hop_count == 3
    assert chains[0].path_score == pytest.approx((0.9 * 0.8 * 0.7) ** (1 / 3), abs=1e-9)


def test_explore_root_cause_seed_not_expanded():
    g = chain_graph(0.9)
    # query matches the root cause label itself; rc has no outgoing edges and
    # must not appear as a zero-hop "chain"
    chains = explore(g, q_for("step 0"), [], SearchConfig(), EMB)
    assert all(c.node_ids[0] != "rc" for c in chains)


def test_explore_respects_max_hops():
    g = chain_graph(0.9, 0.9, 0.9, 0.9)  # root cause is 4 hops away
    chains = explore(g, q_for("seed symptom entry"), [], SearchConfig(max_hops=3), EMB)
    assert chains == []


def test_explore_memory_bias_reorders():
    # two 2-hop chains from the same seed with equal weights; a memory path
    # covering the second flips the ranking
    g = KnowledgeGraph()
    s = node("s", NodeType.POD, "shared entry symptom")
    g.upsert_node(s)
    for branch in ("a", "b"):
        mid = GraphNode(f"{branch}-mid", NodeType.EVENT, f"{branch} mid")
        rc = GraphNode(f"{branch}-rc", NodeType.ROOT_CAUSE, f"{branch} cause")
        g.add_triple(s, edge("s", mid.id, Relation.CAUSES, 0.8), mid)
        g.add_triple(mid, edge(mid.id, rc.id, Relation.CAUSES, 0.8), rc)
    cfg = SearchConfig()
    no_bias = explore(g, q_for("shared entry symptom"), [], cfg, EMB)
    assert [c.node_ids for c in no_bias][0] == ["s", "a-mid", "a-rc"]  # id tie-break
    biased = explore(g, q_for("shared entry symptom"), [["s", "b-mid", "b-rc"]], cfg, EMB)
    assert biased[0].node_ids == ["s", "b-mid", "b-rc"]
    assert biased[0].prior == 1.0


def test_explore_hint_monotonicity(rng):
    g, q, extra = random_layered_graph(rng, 24)
    cfg = SearchConfig(beam=64)
    base = explore(g, q, [], cfg, EMB, extra_seeds=extra)
    if not base:
        pytest.skip("random graph admitted no chains")
    target = base[0].node_ids
    boosted = explore(g, q, [list(target)], cfg, EMB, extra_seeds=extra)
    by_ids = {tuple(c.node_ids): c for c in boosted}
    assert tuple(target) in by_ids
    assert by_ids[tuple(target)].score >= base[0].score - 1e-12


def test_explore_beam_soundness(rng):
    g, q, extra = random_layered_graph(rng, 30)
    cfg_small = SearchConfig(beam=2)
    cfg_large = SearchConfig(beam=64)
    small = explore(g, q, [], cfg_small, EMB, extra_seeds=extra)
    large = explore(g, q, [], cfg_large, EMB, extra_seeds=extra)
    if small and large:
        assert large[0].score >= small[0].score - 1e-12


# ---------------------------------------------------------------------------
# exhaustive-enumeration oracle

RELS = [Relation.CAUSES, Relation.DEPENDS_ON, Relation.MANAGES, Relation.EVICTS]


def random_layered_graph(rng, n_nodes, n_layers=4, p_edge=0.5):
    """Random DAG with edges between consecutive layers, last layer RootCause.

    Returns (graph, query embedding matching one entry label, extra seed ids).
    """
    g = KnowledgeGraph()
    layers: list[list[str]] = [[] for _ in range(n_layers)]
    for i in range(n_nodes):
        layer = int(rng.integers(0, n_layers))
        nid = f"n{i:03d}"
        ntype = NodeType.ROOT_CAUSE if layer == n_layers - 1 else NodeType.EVENT
        g.upsert_node(GraphNode(nid, ntype, f"sym{i:03d}"))
        layers[layer].append(nid)
    for a, b in zip(layers, layers[1:]):
        for src in a:
            for dst in b:
                if rng.random() < p_edge:
                    rel = RELS[int(rng.integers(0, len(RELS)))]
                    g.add_triple(
                        g.nodes[src],
                        GraphEdge(src, dst, rel, float(rng.uniform(0.2, 1.0))),
                        g.nodes[dst],
                    )
    entry_pool = layers[0] or [nid for nid in g.nodes]
    anchor = entry_pool[int(rng.integers(0, len(entry_pool)))]
    q = EMB.embed(g.nodes[anchor].label)
    non_rc = [n for n in g.nodes if g.nodes[n].node_type is not NodeType.ROOT_CAUSE]
    extra = sorted(
        rng.choice(non_rc, size=min(4, len(non_rc)), replace=False).tolist()
    )
    return g, q, extra


def enumerate_oracle(g, q, memory_paths, cfg, extra_seeds):
    """All simple seed->RootCause paths of <= max_hops edges, ranked from first
    principles: alpha . (max edge-overlap prior, geometric-mean edge weight,
    new-node fraction against the path's own prefix)."""
    seeds = g.seed_nodes(q, EMB, cfg.seed_threshold)
    for nid in sorted(set(extra_seeds)):
        if nid in g.nodes and nid not in seeds:
            seeds.append(nid)
    seeds = [s for s in seeds if g.nodes[s].node_type is not NodeType.ROOT_CAUSE]

    def edge_pairs(ids):
        return set(zip(ids, ids[1:]))

    def hand_priority(ids, weights):
        pairs = edge_pairs(ids)
        prior = 0.0
        for mp in memory_paths:
            share = edge_pairs(list(mp))
            if pairs:
                prior = max(prior, len(pairs & share) / len(pairs))
        ps = math.prod(weights) ** (1.0 / len(weights)) if weights else 0.0
        nov = 1.0 / len(ids)  # only the newest node is outside the prefix
        a1, a2, a3 = cfg.alphas
        return a1 * prior + a2 * ps + a3 * nov, ps

    found = []
    max_width = [0] * (cfg.max_hops + 1)

    def walk(ids, weights, depth):
        tail = ids[-1]
        for rel, dst, w in g.out_edges(tail):
            if dst in ids:
                continue
            nxt, ws = ids + [dst], weights + [w]
            if g.nodes[dst].node_type is NodeType.ROOT_CAUSE:
                pri, ps = hand_priority(nxt, ws)
                found.append((pri, ps, tuple(nxt)))
            elif depth + 1 < cfg.max_hops:
                max_width[depth + 1] += 1
                walk(nxt, ws, depth + 1)

    for s in seeds:
        max_width[0] += 1
        walk([s], [], 0)
    found.sort(key=lambda t: (-t[0], -t[1], t[2]))
    return found[: cfg.n_chains], max(max_width)


def test_explore_equals_exhaustive_enumeration(rng):
    for trial in range(25):
        n = int(rng.integers(8, 31))
        g, q, extra = random_layered_graph(rng, n)
        mem_paths = []
        ids = sorted(g.nodes)
        for _ in range(int(rng.integers(0, 3))):
            a = int(rng.integers(0, len(ids)))
            b = int(rng.integers(0, len(ids)))
            mem_paths.append([ids[a], ids[b]])
        probe_cfg = SearchConfig(beam=10_000)
        want, width = enumerate_oracle(g, q, mem_paths, probe_cfg, extra)
        cfg = SearchConfig(beam=max(len(g.nodes), width))
        got = explore(g, q, mem_paths, cfg, EMB, extra_seeds=extra)
        assert [tuple(c.node_ids) for c in got] == [w[2] for w in want]
        for c, w in zip(got, want):
            assert c.score == pytest.approx(w[0], abs=1e-9)
            assert c.path_score == pytest.approx(w[1], abs=1e-9)


# ---------------------------------------------------------------------------
# explore against its rescoring form


def rescoring_explore(graph, q_embedding, memory_paths, cfg, embedder, extra_seeds=()):
    """``explore`` as it was before extensions carried their scores: every
    extension rescored in full with ``priority``, over ``scan_out_edges``."""
    cfg.validate()
    seeds = graph.seed_nodes(q_embedding, embedder, cfg.seed_threshold)
    for nid in sorted(set(extra_seeds)):
        if nid in graph.nodes and nid not in seeds:
            seeds.append(nid)
    seeds = seeds[: cfg.beam]

    def rank_key(entry):
        pri, ps, steps = entry
        return (-pri, -ps, tuple(n for n, _ in steps))

    frontier = [[(nid, None)] for nid in seeds
                if graph.nodes[nid].node_type is not NodeType.ROOT_CAUSE]
    chains = []
    for _ in range(cfg.max_hops):
        scored = []
        for path in frontier:
            nodes_in_path = {n for n, _ in path}
            for rel, dst, _w in scan_out_edges(graph, path[-1][0]):
                if dst in nodes_in_path:
                    continue
                steps = path + [(dst, rel)]
                node_ids = [n for n, _ in steps]
                rels = [r for _, r in steps[1:]]
                ps = path_score(node_ids, graph, rels)
                pri = priority(node_ids, memory_paths, node_ids[:-1], graph, cfg, rels)
                scored.append((pri, ps, steps))
        scored.sort(key=rank_key)
        next_frontier = []
        for pri, ps, steps in scored:
            if graph.nodes[steps[-1][0]].node_type is NodeType.ROOT_CAUSE:
                chains.append((pri, ps, steps))
            else:
                next_frontier.append(steps)
        frontier = next_frontier[: cfg.beam]
        if not frontier:
            break
    chains.sort(key=rank_key)
    return [
        CausalChain(steps=steps, score=pri, prior=path_prior([n for n, _ in steps], memory_paths),
                    path_score=ps)
        for pri, ps, steps in chains[: cfg.n_chains]
    ]


@st.composite
def search_cases(draw):
    """A small multigraph with a query, memory paths, extra seeds and a
    config whose beam is often small enough to cut between tied keys."""
    # few distinct weights, so that keys tie, parallel relations included
    specs, triples = draw(triple_lists(max_nodes=7, max_triples=30,
                                       weights=st.sampled_from([0.3, 0.7, 0.9, 1.0])))
    # a backbone n0 -> n1 -> ... -> the last node keeps most graphs connected;
    # a twin of a backbone edge ties with it on every rank key
    backbone = [(i, i + 1, Relation.CAUSES, 0.5) for i in range(len(specs) - 1)]
    twins = [(i, i + 1, Relation.EVICTS, 0.5)
             for i in draw(st.sets(st.integers(0, len(specs) - 2)))]
    g = build_graph(specs, backbone + twins + triples)
    ids = sorted(g.nodes)
    q = EMB.embed(g.nodes[draw(st.sampled_from(ids))].label)
    walks = st.lists(st.sampled_from(ids), max_size=5)
    memory_paths = draw(st.lists(walks, max_size=4))
    if memory_paths and draw(st.booleans()):
        memory_paths.append(memory_paths[0][1:] + draw(walks))  # shares edges with the first
    extra = draw(st.lists(st.sampled_from(ids + ["ghost"]), max_size=4)) + [specs[0][0]]
    cfg = SearchConfig(
        alphas=draw(st.sampled_from([(0.5, 0.3, 0.2), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                     (0.0, 0.0, 1.0), (0.2, 0.2, 0.6)])),
        max_hops=draw(st.integers(1, 4)),
        beam=draw(st.integers(1, 4)),
        n_chains=draw(st.integers(1, 6)),
        seed_threshold=draw(st.sampled_from([0.3, 0.5, 0.9, 2.0])),
    )
    return g, q, memory_paths, cfg, extra


def chain_fields(chains):
    return [(c.steps, c.score, c.prior, c.path_score) for c in chains]


@settings(max_examples=200)
@given(search_cases())
# a sum of these logs that compensated its rounding, as float sum() does
# since CPython 3.12, would move this path score by one bit
@example((chain_graph(0.3, 0.5, 0.3), q_for("seed symptom entry"), [],
          SearchConfig(alphas=(0.0, 1.0, 0.0)), []))
def test_explore_equals_rescoring_every_extension(case):
    g, q, memory_paths, cfg, extra = case
    got = explore(g, q, memory_paths, cfg, EMB, extra_seeds=extra)
    want = rescoring_explore(g, q, memory_paths, cfg, EMB, extra_seeds=extra)
    assert chain_fields(got) == chain_fields(want)


@st.composite
def edited_search_cases(draw):
    """:func:`search_cases` whose graph then takes a few edits: reweighted
    and new edges, to root causes too, and relabelled nodes."""
    g, q, memory_paths, cfg, extra = draw(search_cases())
    ids = sorted(g.nodes)
    specs = [(nid, g.nodes[nid].node_type, g.nodes[nid].label) for nid in ids]
    at = {nid: i for i, nid in enumerate(ids)}
    triples = [(at[src], at[dst], e.relation, e.weight) for (src, _, dst), e in g.edges.items()]
    for edit in draw(st.lists(graph_edits(specs, triples), min_size=1, max_size=6)):
        apply_edit(g, specs, edit)
    return g, q, memory_paths, cfg, extra


@settings(max_examples=200)
@given(edited_search_cases())
def test_explore_equals_rescoring_every_extension_after_edits(case):
    g, q, memory_paths, cfg, extra = case
    got = explore(g, q, memory_paths, cfg, EMB, extra_seeds=extra)
    want = rescoring_explore(g, q, memory_paths, cfg, EMB, extra_seeds=extra)
    assert chain_fields(got) == chain_fields(want)


def test_explore_calls_path_score_only_for_returned_chains(rng, monkeypatch):
    g, q, extra = random_layered_graph(rng, 30)
    cfg = SearchConfig(beam=64)
    calls = []
    real = graph_module.path_score

    def counted(*args, **kwargs):
        calls.append(list(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(graph_module, "path_score", counted)
    chains = explore(g, q, [], cfg, EMB, extra_seeds=extra)
    assert 1 <= len(calls) <= cfg.n_chains
    assert calls == [c.node_ids for c in chains]
