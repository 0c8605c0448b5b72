import math
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import cosine
from kubediag.embedding import DEFAULT_DIM, HashingEmbedder, SparseRows, SparseVector, _token_hash
from kubediag.errors import InvalidArgument, InvalidQuery
from kubediag.graph import GraphNode, KnowledgeGraph, NodeType

words = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=6), min_size=1, max_size=8
).map(" ".join)


def test_default_dim():
    emb = HashingEmbedder()
    assert emb.dim == DEFAULT_DIM
    assert emb.embed("pod oomkilled").shape == (DEFAULT_DIM,)


def test_deterministic_across_instances():
    a = HashingEmbedder(64).embed("pod OOMKilled restarting")
    b = HashingEmbedder(64).embed("pod OOMKilled restarting")
    np.testing.assert_array_equal(a, b)


def test_case_insensitive():
    emb = HashingEmbedder(64)
    np.testing.assert_array_equal(emb.embed("Pod OOMKilled"), emb.embed("pod oomkilled"))


def test_order_insensitive_bag_of_tokens():
    emb = HashingEmbedder(64)
    np.testing.assert_array_equal(emb.embed("a b"), emb.embed("b a"))


def test_repetition_changes_weighting():
    emb = HashingEmbedder(256)
    a = emb.embed("alpha beta")
    b = emb.embed("alpha alpha beta")
    assert not np.array_equal(a, b)


@given(words)
def test_unit_norm(text):
    v = HashingEmbedder(64).embed(text)
    assert abs(float(np.linalg.norm(v)) - 1.0) <= 1e-6


def test_empty_text_rejected():
    emb = HashingEmbedder(64)
    with pytest.raises(InvalidQuery):
        emb.embed("")
    with pytest.raises(InvalidQuery):
        emb.embed("   ")


def test_tiny_dim_rejected():
    with pytest.raises(InvalidArgument):
        HashingEmbedder(1)


def test_self_similarity_is_one():
    v = HashingEmbedder().embed("dns resolution failing in namespace payments")
    assert float(v @ v) == pytest.approx(1.0, abs=1e-9)


def test_unrelated_texts_nearly_orthogonal():
    emb = HashingEmbedder()
    a = emb.embed("image pull backoff on registry tag")
    b = emb.embed("etcd keyspace compaction latency climbing")
    assert abs(float(a @ b)) < 0.2


def test_shared_tokens_raise_similarity():
    emb = HashingEmbedder()
    a = emb.embed("pod oomkilled cache-worker restarting")
    b = emb.embed("pod oomkilled cache-worker crashing")
    c = emb.embed("ingress route returns http 503")
    assert float(a @ b) > 0.6
    assert float(a @ b) > float(a @ c)


def test_sparse_vector_holds_every_entry_but_positive_zero():
    dense = np.array([0.0, -0.0, 0.6, 0.0, -0.8])
    v = SparseVector.of(dense)
    assert (v.dim, v.index.tolist(), v.value.tolist()) == (5, [1, 2, 4], [-0.0, 0.6, -0.8])
    assert v.dense().tobytes() == dense.tobytes()
    assert v.dense() is not v.dense()  # a new array on every call


@given(st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0, 5e-324]), min_size=1, max_size=12))
def test_sparse_vector_rebuilds_its_array_bit_for_bit(entries):
    dense = np.array(entries)
    assert SparseVector.of(dense).dense().tobytes() == dense.tobytes()


@pytest.mark.parametrize("shape", [(4, 1), (1, 4), ()])
def test_sparse_vector_rejects_an_array_that_is_not_1d(shape):
    with pytest.raises(InvalidArgument, match="1-D"):
        SparseVector.of(np.ones(shape))


def test_sparse_vector_split_gives_views_of_the_flat_entries():
    index, value = np.array([0, 3, 1, 2, 3]), np.array([0.5, -0.0, 1.0, 2.0, 4.0])
    vectors = SparseVector.split(4, index, value, [0, 2, 2, 5])
    assert [type(v) for v in vectors] == [SparseVector] * 3
    assert [(v.dim, v.index.tolist(), v.value.tolist()) for v in vectors] == [
        (4, [0, 3], [0.5, -0.0]), (4, [], []), (4, [1, 2, 3], [1.0, 2.0, 4.0])]
    assert all(v.index.base is index and v.value.base is value for v in vectors)


# ---------------------------------------------------------------------------
# the one cosine: a stored vector's products added left to right


def test_sparse_rows_cosines_add_each_rows_products_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so left to right the row sums to 0.0;
    # a pairwise or reordered sum would give 1.0
    rows = [SparseVector(4, np.array([0, 1, 3]), np.array([1e16, 1.0, -1e16])),
            SparseVector(4, np.array([1, 2]), np.array([-1.0, 1e-300])),
            SparseVector(4, np.array([], dtype=np.intp), np.array([]))]
    q = np.array([1.0, 1.0, 1e-300, 1.0])
    got = SparseRows(4, rows).cosines(q)
    assert got.tolist() == [cosine(v, q) for v in rows] == [0.0, -1.0, 0.0]
    assert not np.signbit(got[got == 0.0]).any()  # sums start at +0.0


def test_sparse_rows_cosines_of_no_entries_are_float_zeros():
    empty = SparseVector(3, np.array([], dtype=np.intp), np.array([]))
    got = SparseRows(3, [empty, empty]).cosines(np.ones(3))
    assert got.dtype == np.float64 and got.tolist() == [0.0, 0.0]
    assert SparseRows(3).cosines(np.ones(3)).dtype == np.float64


def assert_rows_as_built(rows, vectors):
    """``rows`` holds ``vectors`` as a ``SparseRows`` built with them does:
    the same cosines, bit for bit, and the same arrays, byte for byte."""
    fresh = SparseRows(rows.dim, vectors)
    assert len(rows) == len(fresh) == len(vectors)
    for q in (np.arange(1.0, rows.dim + 1), np.linspace(-1.0, 1e16, rows.dim)):
        assert rows.cosines(q).tobytes() == fresh.cosines(q).tobytes()
    for name in ("row", "col", "val"):
        got, want = getattr(rows, name), getattr(fresh, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def some_vectors(n, dim=8, seed=0):
    """``n`` vectors of 1 to 4 entries, with -0.0 among the values."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        index = np.sort(rng.choice(dim, int(rng.integers(1, 5)), replace=False))
        value = rng.choice([-0.0, 0.5, -1.5, 1e16, 3.0], index.size)
        out.append(SparseVector(dim, index, value))
    return out


EMPTY_8 = SparseVector(8, np.array([], dtype=np.intp), np.array([]))


@pytest.mark.parametrize("r", [0, 2, 4])
@pytest.mark.parametrize("size", [0, 1, "same", 6])
def test_sparse_rows_replace_gives_the_rows_built_with_the_new_vector(r, size):
    vectors = some_vectors(5)
    rows = SparseRows(8, vectors)
    rows.cosines(np.ones(8))  # the rows are in the arrays
    if size == 0:
        new = EMPTY_8
    else:
        n = vectors[r].index.size if size == "same" else size
        new = SparseVector(8, np.arange(n) + 1, np.linspace(-2.0, 2.0, n))
    rows.replace(r, new)
    vectors[r] = new
    assert_rows_as_built(rows, vectors)


def test_sparse_rows_writes_a_row_when_it_is_appended():
    vectors = some_vectors(4, seed=3) + [EMPTY_8]
    rows = SparseRows(8)
    for n in range(1, len(vectors) + 1):
        rows.append(vectors[n - 1])
        fresh = SparseRows(8, vectors[:n])
        assert rows.n == len(rows) == n
        for name in ("row", "col", "val"):  # before any cosines call
            got, want = getattr(rows, name), getattr(fresh, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_sparse_rows_replace_between_appends():
    vectors = some_vectors(6, seed=1)
    rows = SparseRows(8, vectors[:3])
    rows.append(vectors[3])
    rows.append(vectors[4])
    new = some_vectors(3, seed=2)
    rows.replace(4, new[0])  # an appended row
    rows.replace(1, new[1])  # a row the constructor wrote
    rows.append(vectors[5])
    rows.replace(5, EMPTY_8)
    vectors[4], vectors[1], vectors[5] = new[0], new[1], EMPTY_8
    assert_rows_as_built(rows, vectors)
    rows.replace(0, new[2])
    vectors[0] = new[2]
    assert_rows_as_built(rows, vectors)


@pytest.mark.parametrize("r", [-1, 3])
def test_sparse_rows_replace_rejects_a_row_it_does_not_hold(r):
    rows = SparseRows(8, some_vectors(2))
    rows.append(EMPTY_8)
    with pytest.raises(IndexError):
        rows.replace(r, EMPTY_8)


VALUES = st.one_of(st.floats(-1.0, 1.0, allow_nan=False), st.sampled_from([0.0, -0.0, 1e16, -1e16]))


@st.composite
def stored_vectors(draw, dim=8):
    dense = np.array(draw(st.lists(VALUES, min_size=dim, max_size=dim)))
    return SparseVector.of(dense)


@given(stored_vectors(), stored_vectors())
def test_the_cosine_of_two_stored_vectors_is_symmetric(a, b):
    # what neighbour linking relies on: whichever of the two is the query,
    # the same products over the common support add in the same order
    ab = SparseRows(8, [a]).cosines(b.dense())[0]
    ba = SparseRows(8, [b]).cosines(a.dense())[0]
    assert struct.pack("d", ab) == struct.pack("d", ba)
    assert ab == cosine(a, b.dense())


def test_seed_nodes_keep_labels_sharing_no_entry_at_exactly_zero():
    emb = HashingEmbedder(64)
    g = KnowledgeGraph()
    for nid, label in [("n0", "pod oomkilled"), ("n1", "dns timeout"), ("n2", "pod")]:
        g.upsert_node(GraphNode(nid, NodeType.EVENT, label))
    q = emb.embed("pod")
    disjoint = [nid for nid in g.nodes
                if not set(np.flatnonzero(emb.embed(g.nodes[nid].label))) & set(np.flatnonzero(q))]
    assert disjoint == ["n1"]
    for threshold in (0.0, -0.0, -0.5):
        assert "n1" in g.seed_nodes(q, emb, threshold)
    assert "n1" not in g.seed_nodes(q, emb, math.nextafter(0.0, 1.0))
    cos = g._label_index.rows.cosines(q)
    (zero,) = [c for nid, c in zip(g._label_index.ids, cos.tolist()) if nid == "n1"]
    assert struct.pack("d", zero) == struct.pack("d", 0.0)


# ---------------------------------------------------------------------------
# no -0.0 in a hashing embedding

TOKENS = [f"t{i}" for i in range(12)]


def cancelling_pair(dim):
    """Two tokens hashed to one bucket with opposite signs."""
    seen = {}
    for tok in TOKENS:
        h = _token_hash(tok)
        bucket, sign = h % dim, (h >> 63) & 1
        if (bucket, 1 - sign) in seen:
            return seen[(bucket, 1 - sign)], tok, bucket
        seen.setdefault((bucket, sign), tok)
    raise AssertionError("no cancelling pair")


def test_a_cancelling_pair_leaves_a_positive_zero():
    a, b, bucket = cancelling_pair(8)
    other = next(t for t in TOKENS if _token_hash(t) % 8 != bucket)
    v = HashingEmbedder(8).embed(f"{a} {b} {other}")
    assert v[bucket] == 0.0 and not np.signbit(v[bucket])


@given(tokens=st.lists(st.sampled_from(TOKENS), min_size=1, max_size=10),
       pairs=st.integers(0, 3), dim=st.sampled_from([2, 4, 8, 64]))
def test_hashing_embedder_never_stores_a_negative_zero(tokens, pairs, dim):
    a, b, _ = cancelling_pair(dim)
    v = HashingEmbedder(dim).embed(" ".join(tokens + [a, b] * pairs))
    assert not np.signbit(v[v == 0.0]).any()
    assert SparseVector.of(v).value.all()  # so every stored entry is nonzero
