"""The sparse episode index changes which rows the pool scores, never what it
returns.

Each test drives a pool through interleaved inserts, evictions, outcome
updates and pattern formation, and compares novelty, retrieval and every
neighbour set with the scalar loops that scanned every row before the index
existed.  Those loops are kept below, apart from reading the pool through its
public views and taking each cosine as the package defines it: a stored
vector's products added left to right (``helpers.cosine``).
"""

import heapq
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import NOW, cosine, jitter_unit, mk_episode, mk_query, rand_unit
from kubediag.embedding import HashingEmbedder, SparseVector
from kubediag.memory import (
    MemoryConfig,
    MemoryPool,
    Outcome,
    RetrievalResult,
    _sigmoid,
    complexity,
    raw_score,
)

# ---------------------------------------------------------------------------
# the scalar scans, as they were


def scalar_novelty(pool, q):
    best = None
    for ep in pool.episodes.values():
        d = 1.0 - cosine(ep.vector, q.embedding)
        if best is None or d < best:
            best = d
    for pat in pool.patterns.values():
        d = 1.0 - cosine(pat.centroid, q.embedding)
        if best is None or d < best:
            best = d
    return 1.0 if best is None else max(0.0, best)


def scalar_mixing(pool, q):
    nov = scalar_novelty(pool, q)
    comp = complexity(q.symptoms)
    w1, w2 = pool.config.mix_weights
    psi = _sigmoid(w1 * nov + w2 * comp + pool.config.mix_bias)
    return psi, nov, comp


def scalar_retrieve(pool, q, weights, now, k=None):
    k = pool.config.retrieval_k if k is None else k
    psi, nov, comp = scalar_mixing(pool, q)
    ep_scale, pat_scale = (1.0 - psi), psi
    cfg = pool.config
    rows = []
    for ep in pool.episodes.values():
        c = cosine(ep.vector, q.embedding)
        rows.append((ep_scale * raw_score(c, ep.timestamp, now, cfg), c, ep))
    for pat in pool.patterns.values():
        c = cosine(pat.centroid, q.embedding)
        rows.append((pat_scale * raw_score(c, pat.last_updated, now, cfg), c, pat))
    cutoff = min(heapq.nlargest(k, (s for s, _, _ in rows)), default=0.0)
    top = sorted(
        (pool._scored(mem, s, c, q, now, weights) for s, c, mem in rows if s >= cutoff),
        key=lambda m: (-m.score, -m.confidence, m.ref),
    )[:k]
    c_max = max((m.confidence for m in top), default=0.0)
    return RetrievalResult(memories=top, c_max=c_max, psi=psi, novelty=nov, complexity=comp)


def scalar_neighbours(pool):
    # the first build: ``_link`` for every stored episode, in insertion order
    th = pool.config.pattern_sim_threshold
    nbrs = {}
    for ep in pool.episodes.values():
        mine = nbrs[ep.id] = set()
        for oid in nbrs:
            if cosine(pool.episodes[oid].vector, ep.vector.dense()) > th:
                mine.add(oid)
                nbrs[oid].add(ep.id)
    return nbrs


# ---------------------------------------------------------------------------
# comparison


def scored_refs(pool, run):
    """What ``run()`` returns, and the refs it computed a confidence for."""
    refs = []
    inner = pool._scored

    def recording(mem, *args):
        refs.append(mem.id)
        return inner(mem, *args)

    pool._scored = recording
    try:
        return run(), sorted(refs)
    finally:
        del pool._scored


def as_rows(result):
    return ([(m.ref, m.kind, m.score, m.confidence, m.factors) for m in result.memories],
            result.c_max, result.psi, result.novelty, result.complexity)


def check_pool(pool, queries, weights, now, k):
    for q in queries:
        assert pool.novelty(q) == scalar_novelty(pool, q)
        got, got_scored = scored_refs(pool, lambda: pool.retrieve(q, weights, now, k))
        want, want_scored = scored_refs(pool, lambda: scalar_retrieve(pool, q, weights, now, k))
        assert as_rows(got) == as_rows(want)
        assert got_scored == want_scored
    if pool._neighbours is not None:
        want = scalar_neighbours(pool)
        for ep in pool.episodes.values():
            assert pool._neighborhood(ep) == want[ep.id]


def threshold_near(vectors, pick, shift):
    """An exact pair cosine of ``vectors`` moved by ``shift`` floats, or the
    default threshold when that is not in (0, 1)."""
    i, j = pick
    c = cosine(SparseVector.of(vectors[i % len(vectors)]), vectors[j % len(vectors)])
    for _ in range(abs(shift)):
        c = math.nextafter(c, math.inf if shift > 0 else -math.inf)
    return c if 0.0 < c < 1.0 else 0.85


def drive(vectors, texts, draw_ops, cfg, weights, k, step):
    """Insert ``vectors`` one by one, applying the drawn operation after each
    insert and checking the pool against the scalar scans."""
    pool = MemoryPool(cfg)
    for i, (vec, op) in enumerate(zip(vectors, draw_ops)):
        eid = f"e{i:03d}"
        pool.insert_episode(mk_episode(eid, vec, ts=NOW + step * i, value=1.0 + (op % 7) / 10,
                                       symptoms=(texts[i],), context=(f"ns{op % 3}",)))
        if op % 4 == 1 and pool.episodes:
            target = sorted(pool.episodes)[op % len(pool.episodes)]
            pool.update_outcome(target, Outcome.SUCCESS if op % 3 else Outcome.FAILURE)
        if op % 5 < 2 and eid in pool.episodes:
            pool.form_patterns_incremental(eid)
        if op % 5 == 2:
            pool.form_patterns(now=NOW + step * i)
        stored = list(pool.episodes.values())
        queries = [mk_query(vectors[(op * 7) % len(vectors)], symptoms=[texts[i]],
                            context=[f"ns{op % 2}"])]
        if stored:  # an exact match: novelty 0 and ties at the top
            queries.append(mk_query(stored[op % len(stored)].vector.dense()))
        check_pool(pool, queries, weights, NOW + step * i + (op % 3) * 3600.0, k)
    return pool


def nudged(v, rng):
    """``v`` with a few entries moved by one float each."""
    out = v.copy()
    for j in rng.integers(0, v.size, 3).tolist():
        out[j] = math.nextafter(out[j], math.inf if rng.random() < 0.5 else -math.inf)
    return out


configs = st.fixed_dictionaries({
    "capacity": st.sampled_from([3, 5, 8, 40]),
    "retrieval_k": st.integers(1, 6),
    "hint_k": st.just(1),
    "similarity_weight": st.sampled_from([0.0, 0.7, 1.0]),
    "recency_tau_s": st.sampled_from([100.0, 30.0 * 86_400.0]),
    "mix_bias": st.sampled_from([-40.0, 0.0, 40.0]),
    "pattern_min_members": st.sampled_from([2, 3]),
})
weight_sets = st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 2.0])] * 4)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([8, 16]), n=st.integers(1, 30),
       dup=st.floats(0.0, 0.6), pick=st.tuples(st.integers(0, 99), st.integers(0, 99)),
       shift=st.sampled_from([-1, 0, 1]), cfg=configs, weights=weight_sets,
       k=st.one_of(st.none(), st.integers(1, 8)), step=st.sampled_from([0.0, 60.0, 86_400.0]))
def test_dense_pool_matches_scalar_scans(seed, dim, n, dup, pick, shift, cfg, weights, k, step):
    rng = np.random.default_rng(seed)
    bases = [rand_unit(rng, dim) for _ in range(3)]
    vectors = []
    for _ in range(n):
        r = rng.random()
        if vectors and r < dup:
            vectors.append(vectors[int(rng.integers(len(vectors)))].copy())  # tie
        elif vectors and r < dup + 0.2:  # a near tie: cosines a few ulps apart
            vectors.append(nudged(vectors[int(rng.integers(len(vectors)))], rng))
        elif r < 0.8:
            vectors.append(jitter_unit(rng, bases[int(rng.integers(3))], 0.1))
        else:
            vectors.append(rand_unit(rng, dim))
    th = threshold_near(vectors, pick, shift)
    ops = rng.integers(0, 1000, n).tolist()
    texts = [f"pod crash {i % 4} node{i % 3}" for i in range(n)]
    drive(vectors, texts, ops, MemoryConfig(embedding_dim=dim, pattern_sim_threshold=th, **cfg),
          weights, k, step)


VOCAB = ["pod", "oomkilled", "crashloop", "dns", "timeout", "volume", "mount", "node",
         "pressure", "image", "pull", "backoff", "quota", "exceeded", "ingress", "503"]


@settings(max_examples=60, deadline=None)
@given(docs=st.lists(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=5),
                     min_size=1, max_size=25),
       pick=st.tuples(st.integers(0, 99), st.integers(0, 99)),
       shift=st.sampled_from([-1, 0, 1]), cfg=configs, weights=weight_sets,
       ops=st.lists(st.integers(0, 999), min_size=25, max_size=25),
       k=st.one_of(st.none(), st.integers(1, 8)), step=st.sampled_from([0.0, 60.0]))
def test_hashing_pool_matches_scalar_scans(docs, pick, shift, cfg, weights, ops, k, step):
    embedder = HashingEmbedder()
    texts = [" ".join(words) for words in docs]
    vectors = [embedder.embed(t) for t in texts]  # repeated texts tie exactly
    th = threshold_near(vectors, pick, shift)
    drive(vectors, texts, ops, MemoryConfig(pattern_sim_threshold=th, **cfg), weights, k, step)


def test_thresholds_at_an_exact_cosine_link_as_the_scan_does():
    # pairs at exactly the threshold are not neighbours; one float below, they are
    rng = np.random.default_rng(5)
    base = rand_unit(rng, 16)
    vectors = [jitter_unit(rng, base, 0.05) for _ in range(6)]
    c = cosine(SparseVector.of(vectors[0]), vectors[1])
    for th in (math.nextafter(c, -1.0), c, math.nextafter(c, 2.0)):
        pool = drive(vectors, ["pod oom"] * 6, [0] * 6,
                     MemoryConfig(embedding_dim=16, pattern_sim_threshold=th), (1.0,) * 4, None, 60.0)
        assert ("e001" in pool._neighborhood(pool.episode("e000"))) is (th < c)
