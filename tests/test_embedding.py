import numpy as np
import pytest
from hypothesis import given, strategies as st

from kubediag.embedding import DEFAULT_DIM, HashingEmbedder, SparseVector
from kubediag.errors import InvalidArgument, InvalidQuery

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
