import dataclasses
import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from helpers import (DAY, NOW, dense_embeddings, jitter_unit, mk_episode, mk_query, packed,
                     rand_unit, small_pool, sparse_lists, unit)
from kubediag import memory as memory_mod, store
from kubediag.embedding import HashingEmbedder, SparseVector
from kubediag.errors import DuplicateId, InvalidArgument, InvalidQuery, NotFound, SchemaViolation
from kubediag.memory import (
    MemoryConfig,
    MemoryPool,
    Outcome,
    Pattern,
    _cos,
    complexity,
    compute_factors,
    confidence_value,
    context_overlap,
    make_query,
    raw_score,
    recency,
)

# ---------------------------------------------------------------------------
# scoring primitives


def test_recency_now_is_one():
    assert recency(0.0, 30 * DAY) == 1.0


def test_recency_at_time_constant():
    assert recency(30 * DAY, 30 * DAY) == pytest.approx(math.exp(-1), abs=1e-12)


@pytest.mark.parametrize("dt,tau", [(1.0, 5.0), (60.0, 60.0), (7 * DAY, 30 * DAY), (900.0, 0.5), (1e6, 1e3)])
def test_recency_matches_formula(dt, tau):
    assert recency(dt, tau) == pytest.approx(math.exp(-dt / tau), abs=1e-12)


def test_config_rejects_hint_k_above_retrieval_k():
    # hints are read off the diagnosis's own top-k, so they cannot reach further
    with pytest.raises(InvalidArgument):
        MemoryConfig(retrieval_k=4, hint_k=5).validate()
    MemoryConfig(retrieval_k=4, hint_k=4).validate()


def test_config_rejects_an_embedding_dim_beyond_int32():
    # the store writes each vector index as an int32; validate allocates nothing
    with pytest.raises(InvalidArgument, match="embedding_dim"):
        MemoryConfig(embedding_dim=2 ** 31).validate()
    MemoryConfig(embedding_dim=2 ** 31 - 1).validate()


def test_recency_negative_dt_rejected():
    with pytest.raises(InvalidArgument):
        recency(-1.0, 30 * DAY)


@given(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=0.5, max_value=1e6),
)
def test_recency_strictly_decreasing(ratio, delta, tau):
    lo = ratio * tau
    hi = lo + delta * tau
    assert recency(lo, tau) > recency(hi, tau)


def test_raw_score_identity_case():
    cfg = MemoryConfig(embedding_dim=8)
    q = mk_query(unit(8))
    assert raw_score(unit(8), NOW, q, NOW, cfg) == pytest.approx(1.0, abs=1e-12)


def test_raw_score_orthogonal_and_ancient():
    cfg = MemoryConfig(embedding_dim=8)
    q = mk_query(unit(8, 0))
    got = raw_score(unit(8, 1), NOW - 100 * cfg.recency_tau_s, q, NOW, cfg)
    assert abs(got) < 1e-9


@given(st.data())
def test_raw_score_matches_straight_line_formula(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    lam = data.draw(st.floats(min_value=0.0, max_value=1.0))
    dt = data.draw(st.floats(min_value=0.0, max_value=1e7))
    cfg = MemoryConfig(embedding_dim=8, similarity_weight=lam)
    v, qv = rand_unit(rng, 8), rand_unit(rng, 8)
    want = lam * float(v @ qv) + (1 - lam) * math.exp(-dt / cfg.recency_tau_s)
    got = raw_score(v, NOW - dt, mk_query(qv), NOW, cfg)
    assert got == pytest.approx(want, abs=1e-9)


def test_complexity_single_distinct_token():
    assert complexity(["oom oom oom"]) == 0.0


def test_complexity_uniform_distribution():
    assert complexity(["a b c d"]) == pytest.approx(1.0, abs=1e-12)


def test_complexity_hand_entropy():
    # two of three tokens equal: H = -(2/3)log(2/3) - (1/3)log(1/3), over log 2
    want = -((2 / 3) * math.log2(2 / 3) + (1 / 3) * math.log2(1 / 3))
    assert complexity(["a a b"]) == pytest.approx(want, abs=1e-9)
    assert complexity(["a a b"]) == pytest.approx(0.9182958340544896, abs=1e-9)


def test_complexity_empty_rejected():
    with pytest.raises(InvalidQuery):
        complexity([])
    with pytest.raises(InvalidQuery):
        complexity(["   "])


@given(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=30))
def test_complexity_bounded(tokens):
    assert 0.0 <= complexity([" ".join(tokens)]) <= 1.0 + 1e-12


def test_context_overlap_cases():
    assert context_overlap(set(), set()) == 1.0
    assert context_overlap({"a"}, set()) == 0.0
    assert context_overlap({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
    assert context_overlap({"x"}, {"x"}) == 1.0


def test_confidence_all_ones():
    assert confidence_value((1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0)) == 1.0


def test_confidence_annihilator():
    assert confidence_value((1.0, 0.0, 1.0, 1.0), (1.0, 2.0, 1.0, 1.0)) == 0.0


def test_confidence_hand_product():
    got = confidence_value((0.9, 0.8, 0.7, 1.0), (1.0, 1.0, 1.0, 1.0))
    assert got == pytest.approx(0.504, abs=1e-9)


def test_confidence_negative_weight_rejected():
    with pytest.raises(InvalidArgument):
        confidence_value((0.5, 0.5, 0.5, 0.5), (1.0, -0.1, 1.0, 1.0))


@given(
    st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 4),
    st.tuples(*[st.floats(min_value=0.0, max_value=5.0)] * 4),
)
def test_confidence_bounded(factors, weights):
    assert 0.0 <= confidence_value(factors, weights) <= 1.0


@given(
    st.tuples(*[st.floats(min_value=0.01, max_value=1.0)] * 4),
    st.integers(0, 3),
    st.floats(min_value=0.1, max_value=2.0),
)
def test_confidence_monotone_in_weights(factors, j, bump):
    base = [1.0] * 4
    raised = list(base)
    raised[j] += bump
    lo = confidence_value(factors, raised)
    hi = confidence_value(factors, base)
    if factors[j] < 1.0:
        assert lo <= hi + 1e-12
    else:
        assert lo == pytest.approx(hi, abs=1e-12)


def test_compute_factors_episode_hand_case():
    cfg = MemoryConfig(embedding_dim=8)
    dim8 = unit(8)
    vec = np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0]) / math.sqrt(2)
    ep = mk_episode(
        "e1", vec, ts=NOW - 3 * DAY, context={"ns:a", "app:b"}, trials=4, successes=3
    )
    q = mk_query(dim8, context={"ns:a"})
    f_sim, f_temp, f_succ, f_ctx = compute_factors(ep, q, NOW, cfg)
    cos = 1 / math.sqrt(2)
    assert f_sim == pytest.approx(math.exp(-(1 - cos) / cfg.sim_scale), abs=1e-9)
    assert f_temp == pytest.approx(math.exp(-3 * DAY / cfg.temporal_tau_s), abs=1e-9)
    assert f_succ == pytest.approx((3 + 1) / (4 + 2), abs=1e-12)
    assert f_ctx == pytest.approx(0.5, abs=1e-12)


def test_compute_factors_fresh_episode_half_reliability():
    cfg = MemoryConfig(embedding_dim=8)
    ep = mk_episode("e1", unit(8))
    _, _, f_succ, f_ctx = compute_factors(ep, mk_query(unit(8)), NOW, cfg)
    assert f_succ == 0.5  # Laplace smoothing with no recorded trials
    assert f_ctx == 1.0  # both context sets empty


# ---------------------------------------------------------------------------
# novelty / mixing


def test_novelty_exact_member_zero():
    pool = small_pool(8)
    pool.insert_episode(mk_episode("e1", unit(8)))
    assert pool.novelty(mk_query(unit(8))) == pytest.approx(0.0, abs=1e-12)


def test_novelty_empty_pool_sentinel():
    assert small_pool(8).novelty(mk_query(unit(8))) == 1.0


def test_novelty_matches_linear_scan(rng):
    pool = small_pool(16)
    vecs = [rand_unit(rng, 16) for _ in range(100)]
    for i, v in enumerate(vecs):
        pool.insert_episode(mk_episode(f"e{i:03d}", v))
    q = mk_query(rand_unit(rng, 16))
    want = min(1.0 - float(v @ q.embedding) for v in vecs)
    assert pool.novelty(q) == pytest.approx(want, abs=1e-9)


def test_mixing_zero_weights_is_half():
    pool = small_pool(8, mix_weights=(0.0, 0.0), mix_bias=0.0)
    psi, _, _ = pool.mixing(mk_query(unit(8), symptoms=["a b c d"]))
    assert psi == pytest.approx(0.5, abs=1e-12)


def test_mixing_zero_inputs_is_half():
    pool = small_pool(8)  # weights (1, 1), bias 0
    pool.insert_episode(mk_episode("e1", unit(8)))
    # exact match (novelty 0) and single-token symptoms (complexity 0)
    psi, nov, comp = pool.mixing(mk_query(unit(8), symptoms=["oom"]))
    assert (nov, comp) == (0.0, 0.0)
    assert psi == pytest.approx(0.5, abs=1e-12)


def test_mixing_sigmoid_of_two():
    pool = small_pool(8)  # empty pool: novelty 1; uniform 4 tokens: complexity 1
    psi, nov, comp = pool.mixing(mk_query(unit(8), symptoms=["a b c d"]))
    assert (nov, comp) == (1.0, 1.0)
    assert psi == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-9)
    assert psi == pytest.approx(0.8807970779778823, abs=1e-9)


# ---------------------------------------------------------------------------
# retrieval

W1 = (1.0, 1.0, 1.0, 1.0)


def scan_oracle(pool, q, weights, now, k):
    """Independent linear-scan ranking: scale raw scores per tier, break ties
    by confidence then id."""
    psi, _, _ = pool.mixing(q)
    rows = []
    for eid, ep in pool.episodes.items():
        s = (1.0 - psi) * raw_score(ep.embedding, ep.timestamp, q, now, pool.config)
        c = confidence_value(compute_factors(ep, q, now, pool.config), weights)
        rows.append((eid, "episode", s, c))
    for pid, pat in pool.patterns.items():
        s = psi * raw_score(pat.centroid, pat.last_updated, q, now, pool.config)
        c = confidence_value(compute_factors(pat, q, now, pool.config), weights)
        rows.append((pid, "pattern", s, c))
    rows.sort(key=lambda r: (-r[2], -r[3], r[0]))
    return rows[:k]


def test_retrieve_empty_pool():
    result = small_pool(8).retrieve(mk_query(unit(8)), W1, NOW)
    assert result.memories == []
    assert result.c_max == 0.0


def test_retrieve_single_exact_episode():
    pool = small_pool(8)
    pool.insert_episode(mk_episode("e1", unit(8), ts=NOW))
    q = mk_query(unit(8), symptoms=["oom"])
    result = pool.retrieve(q, W1, NOW)
    assert [m.ref for m in result.memories] == ["e1"]
    psi, _, _ = pool.mixing(q)
    assert result.memories[0].score == pytest.approx((1.0 - psi) * 1.0, abs=1e-9)


def test_retrieve_orders_by_scaled_score(rng):
    pool = small_pool(16)
    for i in range(40):
        pool.insert_episode(
            mk_episode(f"e{i:03d}", rand_unit(rng, 16), ts=NOW - rng.uniform(0, 40 * DAY))
        )
    q = mk_query(rand_unit(rng, 16))
    result = pool.retrieve(q, W1, NOW)
    want = scan_oracle(pool, q, W1, NOW, pool.config.retrieval_k)
    assert [(m.ref, m.kind) for m in result.memories] == [(r[0], r[1]) for r in want]
    for m, r in zip(result.memories, want):
        assert m.score == pytest.approx(r[2], abs=1e-9)


def test_retrieve_mixed_tiers_match_oracle(rng):
    pool = small_pool(32)
    # 12 clusters of 3 tight episodes -> patterns, plus 60 scattered episodes
    n = 0
    for c in range(12):
        base = rand_unit(rng, 32)
        for _ in range(3):
            pool.insert_episode(
                mk_episode(f"e{n:03d}", jitter_unit(rng, base, 0.05), ts=NOW - rng.uniform(0, 5 * DAY))
            )
            n += 1
    for _ in range(60):
        pool.insert_episode(
            mk_episode(f"e{n:03d}", rand_unit(rng, 32), ts=NOW - rng.uniform(0, 40 * DAY))
        )
        n += 1
    assert pool.form_patterns(now=NOW)
    for _ in range(5):
        q = mk_query(rand_unit(rng, 32), symptoms=["a b", "c d"])
        result = pool.retrieve(q, W1, NOW)
        want = scan_oracle(pool, q, W1, NOW, pool.config.retrieval_k)
        assert [(m.ref, m.kind) for m in result.memories] == [(r[0], r[1]) for r in want]


def test_retrieve_clustered_pool_matches_oracle(rng):
    pool = small_pool(16)
    for i in range(80):
        pool.insert_episode(mk_episode(f"e{i:03d}", rand_unit(rng, 16)))
    pool.form_patterns(now=NOW)
    q = mk_query(rand_unit(rng, 16))
    a = pool.retrieve(q, W1, NOW)
    want = scan_oracle(pool, q, W1, NOW, pool.config.retrieval_k)
    assert [m.ref for m in a.memories] == [r[0] for r in want]


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 12])
def test_retrieve_ties_at_cutoff_rank_as_oracle(k):
    # identical embedding and timestamp: every score ties, so the ranking is
    # decided by confidence (trials/successes) and then by id
    pool = small_pool(8, retrieval_k=12)
    v = unit(8)
    for i, (trials, successes) in enumerate(
        [(0, 0), (3, 3), (3, 0), (1, 1), (5, 2), (3, 3), (0, 0), (2, 1), (4, 4), (1, 0)]
    ):
        pool.insert_episode(mk_episode(f"e{9 - i:02d}", v, trials=trials, successes=successes))
    q = mk_query(unit(8))
    got = pool.retrieve(q, W1, NOW, k=k)
    want = scan_oracle(pool, q, W1, NOW, k)
    assert [(m.ref, m.score, m.confidence) for m in got.memories] == [
        (r[0], r[2], r[3]) for r in want
    ]


def test_retrieve_c_max_is_max_confidence(rng):
    pool = small_pool(16)
    for i in range(30):
        pool.insert_episode(mk_episode(f"e{i:03d}", rand_unit(rng, 16)))
    result = pool.retrieve(mk_query(rand_unit(rng, 16)), W1, NOW)
    assert result.c_max == pytest.approx(max(m.confidence for m in result.memories), abs=1e-12)


def test_retrieve_deterministic(rng):
    pool = small_pool(16)
    for i in range(25):
        pool.insert_episode(mk_episode(f"e{i:03d}", rand_unit(rng, 16)))
    q = mk_query(rand_unit(rng, 16))
    a = pool.retrieve(q, W1, NOW)
    b = pool.retrieve(q, W1, NOW)
    assert [(m.ref, m.score, m.confidence) for m in a.memories] == [
        (m.ref, m.score, m.confidence) for m in b.memories
    ]


def test_psi_extremes_flip_tier_preference(rng):
    def build(bias):
        pool = small_pool(16, mix_bias=bias, retrieval_k=4, hint_k=4)
        base = rand_unit(rng, 16)
        for i in range(3):
            pool.insert_episode(mk_episode(f"c{i}", jitter_unit(rng, base, 0.04)))
        pool.form_patterns(now=NOW)
        for i in range(6):
            pool.insert_episode(mk_episode(f"e{i}", jitter_unit(rng, base, 0.06)))
        return pool, mk_query(jitter_unit(rng, base, 0.05))

    pool, q = build(bias=30.0)  # sigmoid saturates high: pattern tier dominates
    kinds = [m.kind for m in pool.retrieve(q, W1, NOW).memories]
    assert kinds[0] == "pattern"

    pool, q = build(bias=-30.0)  # sigmoid saturates low: episode tier dominates
    kinds = [m.kind for m in pool.retrieve(q, W1, NOW).memories]
    assert "pattern" not in kinds[:3]


# ---------------------------------------------------------------------------
# pattern formation


def test_form_patterns_orthogonal_episodes_none():
    pool = small_pool(8)
    for i in range(4):
        pool.insert_episode(mk_episode(f"e{i}", unit(8, i)))
    assert pool.form_patterns(now=NOW) == []
    assert pool.patterns == {}


def test_form_patterns_degenerate_cluster():
    pool = small_pool(8)
    v = unit(8)
    pool.insert_episode(mk_episode("e0", v, outcome=Outcome.SUCCESS, value=1.0))
    pool.insert_episode(mk_episode("e1", v, outcome=Outcome.SUCCESS, value=2.0,
                                   actions=["scale up"], path=["n1", "n2"]))
    pool.insert_episode(mk_episode("e2", v, outcome=Outcome.FAILURE, value=0.5))
    created = pool.form_patterns(now=NOW)
    assert len(created) == 1
    pat = pool.patterns[created[0]]
    assert pat.member_ids == {"e0", "e1", "e2"}
    np.testing.assert_allclose(pat.centroid, v, atol=1e-9)
    assert pat.success_members == 2
    # actions and path donated by the highest-value member
    assert pat.source_episode_id == "e1"
    assert pat.actions == ["scale up"]
    assert pat.resolution_path == ["n1", "n2"]


def test_form_patterns_recovers_generating_clusters(rng):
    pool = small_pool(64)
    labels = {}
    n = 0
    bases = [unit(64, i * 16) for i in range(4)]  # pairwise orthogonal
    scale = 0.3 / math.sqrt(64)  # keeps intra-cluster cosine ~0.95, inter ~0
    for c, base in enumerate(bases):
        for _ in range(12):
            eid = f"e{n:03d}"
            pool.insert_episode(mk_episode(eid, jitter_unit(rng, base, scale)))
            labels[eid] = c
            n += 1
    created = pool.form_patterns(now=NOW)
    assert len(created) == 4
    got = sorted(frozenset(pool.patterns[p].member_ids) for p in created)
    want = sorted(
        frozenset(e for e, c in labels.items() if c == k) for k in range(4)
    )
    assert got == want


def test_form_patterns_idempotent(rng):
    pool = small_pool(16)
    base = rand_unit(rng, 16)
    for i in range(5):
        pool.insert_episode(mk_episode(f"e{i}", jitter_unit(rng, base, 0.05)))
    pool.form_patterns(now=NOW)
    snapshot = {
        pid: (p.member_ids, tuple(p.centroid), p.success_members)
        for pid, p in pool.patterns.items()
    }
    assert pool.form_patterns(now=NOW) == []
    again = {
        pid: (p.member_ids, tuple(p.centroid), p.success_members)
        for pid, p in pool.patterns.items()
    }
    assert again == snapshot


def test_pattern_members_similar_to_seed(rng):
    pool = small_pool(32)
    base = rand_unit(rng, 32)
    for i in range(8):
        pool.insert_episode(mk_episode(f"e{i}", jitter_unit(rng, base, 0.04)))
    pool.form_patterns(now=NOW)
    assert pool.patterns
    th = pool.config.pattern_sim_threshold
    for pat in pool.patterns.values():
        vecs = [pool.episode(mid).embedding for mid in pat.member_ids]
        # the seed whose neighbourhood formed the pattern is such a member
        assert any(all(float(a @ b) > th for b in vecs) for a in vecs)


# ---------------------------------------------------------------------------
# neighbour sets


def neighborhood_oracle(pool, seed):
    """Per-seed rescan of the pool: the scalar set comprehension the kept
    neighbour sets replace."""
    th = pool.config.pattern_sim_threshold
    return {
        other.id
        for other in pool.episodes.values()
        if _cos(seed.embedding, other.embedding) > th
    }


def interleave(pool, seed, check=lambda: None):
    """Seeded clustered inserts mixed with incremental and full formation,
    outcome updates and evictions (capacity 20 < 70 inserts; the first
    formation comes after the first evictions).  Returns what each formation
    call reported, and calls ``check`` after every step."""
    rng = np.random.default_rng(seed)
    bases = [rand_unit(rng, 16) for _ in range(4)]
    reported = []
    for i in range(70):
        emb = jitter_unit(rng, bases[int(rng.integers(4))], float(rng.choice([0.02, 0.08, 0.15])))
        eid = f"e{i:03d}"
        pool.insert_episode(mk_episode(eid, emb, ts=NOW + i, value=float(rng.uniform(0.5, 1.5))))
        check()
        if rng.random() < 0.3:
            target = sorted(pool.episodes)[int(rng.integers(len(pool.episodes)))]
            pool.update_outcome(target, Outcome.FAILURE, success=False)
        if i < 25:
            continue
        r = rng.random()
        if r < 0.6 and eid in pool.episodes:
            reported.append(pool.form_patterns_incremental(eid, now=NOW + i))
        elif r < 0.75:
            reported.append(pool.form_patterns(now=NOW + i))
        check()
    return reported


def pattern_state(pool):
    return {
        pid: (sorted(p.member_ids), p.centroid.tobytes(), p.source_episode_id,
              p.success_members, list(p.actions), p.last_updated, sorted(p.context_labels))
        for pid, p in pool.patterns.items()
    }


@pytest.mark.parametrize("seed", range(6))
def test_neighbour_sets_match_rescan_under_interleaving(seed, monkeypatch):
    pool = small_pool(16, capacity=20)
    first_formation_done = []

    def check():
        if pool._neighbours is None:
            # inserts and evictions alone never build the sets
            assert not first_formation_done
            return
        first_formation_done.append(True)
        assert set(pool._neighbours) == set(pool.episodes)
        for ep in pool.episodes.values():
            assert pool._neighborhood(ep) == neighborhood_oracle(pool, ep)

    got = interleave(pool, seed, check)
    assert first_formation_done and len(pool.episodes) == 20

    rescan = small_pool(16, capacity=20)
    monkeypatch.setattr(rescan, "_neighborhood", lambda ep: neighborhood_oracle(rescan, ep))
    want = interleave(rescan, seed)
    assert rescan._neighbours is None
    assert got == want
    assert pool.patterns and pattern_state(pool) == pattern_state(rescan)


def test_feedback_computes_one_cosine_per_stored_episode(monkeypatch):
    # Once the neighbour sets exist, a feedback (insert plus incremental
    # formation) scans the pool once; a rescan per neighbour fails this on a
    # recurring stream, where neighbourhoods grow with the pool.
    from kubediag.scenarios import build_world
    from kubediag.simulate import SimulationConfig, build_stream, make_engine, run_stream

    cfg = SimulationConfig(total_sessions=120, recurrence=0.5, seed=3, corpus_size=40)
    scenarios, graph = build_world(cfg.seed, cfg.corpus_size)
    engine = make_engine(graph)
    pool = engine.pool
    counter = {"on": False, "n": 0}

    def counting_cos(a, b):
        counter["n"] += counter["on"]
        return _cos(a, b)

    def counted(method):
        def run(*args, **kwargs):
            counter["on"] = True
            try:
                return method(*args, **kwargs)
            finally:
                counter["on"] = False
        return run

    feedbacks = []

    def feedback(fb, _inner=engine.feedback):
        built, counter["n"] = pool._neighbours is not None, 0
        report = _inner(fb)
        if built:
            feedbacks.append((counter["n"], len(pool.episodes), report.episode_id))
        return report

    monkeypatch.setattr(memory_mod, "_cos", counting_cos)
    monkeypatch.setattr(pool, "insert_episode", counted(pool.insert_episode))
    monkeypatch.setattr(pool, "form_patterns_incremental", counted(pool.form_patterns_incremental))
    monkeypatch.setattr(engine, "feedback", feedback)
    run_stream(engine, build_stream(scenarios, cfg), cfg.window)

    assert len(feedbacks) > 100
    assert all(n <= stored for n, stored, _ in feedbacks), feedbacks
    # the guard has teeth: recurring faults give neighbourhoods of many episodes
    assert max(len(pool._neighborhood(pool.episode(eid))) for _, _, eid in feedbacks) >= 5


def test_diagnosis_scores_few_episodes_of_a_growing_pool(monkeypatch):
    # Novelty and retrieval compute a scalar cosine only for the episodes the
    # sparse index cannot rule out; a full scan in either (two cosines per
    # stored episode before the index) fails this once the pool has grown.
    from kubediag.scenarios import build_world
    from kubediag.simulate import SimulationConfig, build_stream, make_engine, run_stream

    cfg = SimulationConfig(total_sessions=120, recurrence=0.5, seed=3, corpus_size=40)
    scenarios, graph = build_world(cfg.seed, cfg.corpus_size)
    engine = make_engine(graph)
    pool = engine.pool
    counter = {"on": False, "n": 0}

    def counting_cos(a, b):
        # pattern centroids are always scored; count episode cosines only
        if counter["on"] and not any(a is p.centroid or b is p.centroid
                                     for p in pool.patterns.values()):
            counter["n"] += 1
        return _cos(a, b)

    diagnoses = []

    def diagnose(*args, _inner=engine.diagnose, **kwargs):
        counter["on"], counter["n"] = True, 0
        try:
            return _inner(*args, **kwargs)
        finally:
            counter["on"] = False
            diagnoses.append((counter["n"], len(pool.episodes)))

    monkeypatch.setattr(memory_mod, "_cos", counting_cos)
    monkeypatch.setattr(engine, "diagnose", diagnose)
    run_stream(engine, build_stream(scenarios, cfg), cfg.window)

    grown = [(n, stored) for n, stored in diagnoses if stored >= 60]
    assert len(grown) >= 50
    assert all(n <= stored / 2 for n, stored in grown), grown


# ---------------------------------------------------------------------------
# pattern member maps


class FullScanPool(MemoryPool):
    """The pool with frozen copies of the code paths that scanned every
    pattern (formation, outcome updates) or rescored every linked row the
    index kept (``_link``), before the member maps and the exact skip, and
    of the refresh that read every member, before the append step."""

    def _refresh_pattern(self, pat, members):
        rows = np.stack([self._episodes[m].embedding for m in sorted(members)])
        centroid = rows.mean(axis=0)
        norm = float(np.linalg.norm(centroid))
        if norm == 0.0:
            centroid = rows[0].copy()
            norm = 1.0
        centroid = centroid / norm
        eps = [self._episodes[m] for m in sorted(members)]
        donor = max(eps, key=lambda e: (e.memory_value, e.id))
        pat.centroid = centroid
        pat.actions = list(donor.actions)
        pat.resolution_path = list(donor.resolution_path)
        pat.source_episode_id = donor.id
        members = set(members)
        self._remap(pat.id, pat.member_ids, members)
        pat.member_ids = members
        pat.last_updated = max(e.timestamp for e in eps)
        ctx_sets = [set(e.context) for e in eps]
        pat.context_labels = frozenset(set.intersection(*ctx_sets)) if ctx_sets else frozenset()
        pat.success_members = sum(e.outcome is Outcome.SUCCESS for e in eps)

    def update_outcome(self, episode_id, outcome, success):
        ep = self.episode(episode_id)
        change = int(outcome is Outcome.SUCCESS) - int(ep.outcome is Outcome.SUCCESS)
        ep.outcome = outcome
        ep.trials += 1
        ep.successes += int(success)
        delta = self.config.outcome_delta
        factor = (1.0 + delta) if success else (1.0 - delta)
        ep.memory_value = max(0.0, ep.memory_value * factor)
        if change:
            for pat in self._patterns.values():
                if episode_id in pat.member_ids:
                    pat.success_members = min(max(pat.success_members + change, 0),
                                              len(pat.member_ids))

    def _link(self, ep):
        th = self.config.pattern_sim_threshold
        nbrs = self._neighbours
        mine = nbrs[ep.id] = set()
        approx, margin = self._bounds(ep.embedding)
        for r in np.flatnonzero(approx + margin >= th).tolist():
            other = self._rows[r]
            if other.id in nbrs and _cos(ep.embedding, other.embedding) > th:
                mine.add(other.id)
                nbrs[other.id].add(ep.id)

    def _form_for_seeds(self, seed_ids, now):
        touched = {}
        for sid in seed_ids:
            seed = self._episodes.get(sid)
            if seed is None:
                continue
            members = self._neighborhood(seed)
            if len(members) < self.config.pattern_min_members:
                continue
            target = self._best_overlap(members)
            if target is None:
                self._pattern_seq += 1
                target = Pattern(
                    id=f"pat-{self._pattern_seq:06d}",
                    centroid=np.zeros(self.config.embedding_dim),
                    actions=[],
                    resolution_path=[],
                    source_episode_id="",
                    member_ids=set(),
                    last_updated=0.0,
                )
                self._patterns[target.id] = target
                changed = True
            else:
                changed = members != target.member_ids
            if changed:
                self._refresh_pattern(target, members)
                touched[target.id] = None
        return list(touched)

    def _best_overlap(self, members):
        best = None
        best_frac = 0.5
        for pat in sorted(self._patterns.values(), key=lambda p: p.id):
            frac = len(members & pat.member_ids) / max(len(members), len(pat.member_ids))
            if frac > best_frac:
                best, best_frac = pat, frac
        return best


def assert_maps_rebuild(pool):
    """Both member maps equal the maps rebuilt from ``pool.patterns``."""
    holders = {}
    for pid, pat in pool.patterns.items():
        for m in pat.member_ids:
            holders.setdefault(m, set()).add(pid)
    counts = Counter(frozenset(p.member_ids) for p in pool.patterns.values() if p.member_ids)
    assert pool._holders == holders
    assert dict(pool._set_counts) == dict(counts)


@given(seed=st.integers(0, 2**32 - 1), capacity=st.integers(5, 20), steps=st.integers(20, 120))
def test_member_maps_match_the_full_scan(tmp_path_factory, seed, capacity, steps):
    # Seeded random inserts, outcome updates, formations and reloads.  Three
    # close bases give overlapping neighbourhoods, hence members held by
    # several patterns and ties between overlaps.  A small capacity evicts
    # members that patterns keep.  A reload loads the previous snapshot and
    # then the current one over it, so patterns replace patterns of the same
    # id with other members.
    tmp = tmp_path_factory.mktemp("maps")
    rng = np.random.default_rng(seed)
    common = rand_unit(rng, 16)
    bases = [jitter_unit(rng, common, 0.1) for _ in range(3)]
    pools = [small_pool(16, capacity=capacity),
             FullScanPool(MemoryConfig(embedding_dim=16, capacity=capacity))]
    snapshots = []
    for step in range(steps):
        r = rng.random()
        live = sorted(pools[0].episodes)
        pick = live[int(rng.integers(len(live)))] if live else None
        if r < 0.45 or pick is None:
            scale = float(rng.choice([0.0, 0.03, 0.06, 0.1]))
            base = bases[int(rng.integers(3))]
            emb = base if scale == 0.0 else jitter_unit(rng, base, scale)
            value = float(rng.uniform(0.5, 1.5))
            context = (f"c{int(rng.integers(3))}",)
            for pool in pools:
                pool.insert_episode(mk_episode(f"ep-{step:06d}", emb, ts=NOW + step,
                                               value=value, context=context))
        elif r < 0.65:
            outcome = list(Outcome)[int(rng.integers(3))]
            for pool in pools:
                pool.update_outcome(pick, outcome, success=outcome is Outcome.SUCCESS)
        elif r < 0.95:
            incremental = rng.random() < 0.7
            got, want = (pool.form_patterns_incremental(pick, now=NOW + step) if incremental
                         else pool.form_patterns(now=NOW + step) for pool in pools)
            assert got == want
        else:
            path = str(tmp / f"episodes-{step}.jsonl")
            pools[0].save_episodes(path)
            pools[0].save_pattern_snapshot(path + ".patterns.json")
            snapshots.append(path + ".patterns.json")
            reloaded = []
            for pool in pools:
                fresh = type(pool)(pool.config)
                fresh.load_episodes(path)
                for snapshot in snapshots[-2:]:
                    fresh.load_pattern_snapshot(snapshot)
                    assert_maps_rebuild(fresh)
                reloaded.append(fresh)
            pools = reloaded
        assert_maps_rebuild(pools[0])
        assert pattern_state(pools[0]) == pattern_state(pools[1])
        assert {e: (ep.outcome, ep.trials, ep.memory_value) for e, ep in pools[0].episodes.items()} \
            == {e: (ep.outcome, ep.trials, ep.memory_value) for e, ep in pools[1].episodes.items()}


# -- pattern refresh: the append step against the full scan ------------------

REFRESH_DIM = 6
# ids of the engine's form and others, which sort before, between or after them
EPISODE_ID = st.one_of(
    st.integers(0, 999_999).map(lambda i: f"ep-{i:06d}"),
    st.text(alphabet="aez-09", min_size=1, max_size=5),
)


def refresh_palette(rng):
    """Unit vectors whose last two columns hold only ``-0.0`` and ``0.0``,
    with column 4 ``-0.0`` in each, and their negations: column 4 of a
    member set drawn from the first half holds only ``-0.0``, and a vector
    with its negation sums to exactly zero, the centroid with no norm."""
    vecs = []
    for _ in range(4):
        v = rand_unit(rng, REFRESH_DIM)
        v[4:] = [-0.0, float(rng.choice([-0.0, 0.0]))]
        vecs.append(v / np.linalg.norm(v))
    return vecs + [-v for v in vecs]


def refresh_state(pool):
    """Every field a refresh writes, floats by their bits."""
    return {
        pid: (sorted(p.member_ids), p.centroid.tobytes(), p.source_episode_id,
              list(p.actions), list(p.resolution_path), p.success_members,
              struct.pack("d", p.last_updated), sorted(p.context_labels))
        for pid, p in pool.patterns.items()
    }


def refresh_to(pool, pid, members):
    """Refresh pattern ``pid`` to ``members`` as formation does, creating it
    blank first when the pool has none of that id."""
    pat = pool.patterns.get(pid)
    if pat is None:
        pat = pool.patterns[pid] = Pattern(id=pid, centroid=np.zeros(REFRESH_DIM), actions=[],
                                           resolution_path=[], source_episode_id="",
                                           member_ids=set(), last_updated=0.0)
    pool._refresh_pattern(pat, set(members))


@given(data=st.data(), seed=st.integers(0, 2**32 - 1), capacity=st.integers(3, 30),
       ids=st.lists(EPISODE_ID, min_size=4, max_size=30, unique=True))
def test_refresh_matches_the_full_scan(tmp_path_factory, data, seed, capacity, ids):
    # Inserts (evicting past capacity), outcome updates that move donors up
    # and down, refreshes to member sets that append an id sorting last, add
    # or drop one member or are drawn afresh, reloads from the saved store
    # and snapshot, and earlier snapshots loaded over the live patterns.
    tmp = tmp_path_factory.mktemp("refresh")
    palette = refresh_palette(np.random.default_rng(seed))
    pools = [small_pool(REFRESH_DIM, capacity=capacity),
             FullScanPool(MemoryConfig(embedding_dim=REFRESH_DIM, capacity=capacity))]
    unused = iter(ids)
    snapshots = []
    ops = ["insert"] * 3 + ["outcome"] * 4 + ["refresh"] * 8 + ["reload", "load-over"]
    for step in range(data.draw(st.integers(10, 60), label="steps")):
        live = sorted(pools[0].episodes)
        op = data.draw(st.sampled_from(ops) if live else st.just("insert"))
        if op == "insert":
            eid = next(unused, None)
            if eid is None:
                continue
            ep = dict(
                embedding=palette[data.draw(st.integers(0, len(palette) - 1))],
                ts=data.draw(st.sampled_from([0.0, -0.0, 5.0, NOW])),
                value=data.draw(st.sampled_from([0.5, 1.0, 1.0, 2.0])),
                context=data.draw(st.sets(st.sampled_from("abc"))),
                outcome=data.draw(st.sampled_from(list(Outcome))),
                actions=(f"act {eid}",), path=(eid,),
            )
            for pool in pools:
                pool.insert_episode(mk_episode(eid, **ep))
        elif op == "outcome":
            eid = data.draw(st.sampled_from(live))
            outcome = data.draw(st.sampled_from(list(Outcome)))
            for pool in pools:
                pool.update_outcome(eid, outcome, success=outcome is Outcome.SUCCESS)
        elif op == "refresh":
            pid = data.draw(st.sampled_from(["p1", "p2", "p3"]))
            pat = pools[0].patterns.get(pid)
            base = {m for m in pat.member_ids if m in pools[0].episodes} if pat else set()
            after = [e for e in live if not base or e > max(base)]
            mode = data.draw(st.sampled_from(["append"] * 5 + ["add", "drop", "afresh"]))
            if mode == "append" and after:
                members = base | {data.draw(st.sampled_from(after))}
            elif mode == "add":
                members = base | {data.draw(st.sampled_from(live))}
            elif mode == "drop" and len(base) > 1:
                members = base - {data.draw(st.sampled_from(sorted(base)))}
            else:
                members = set(data.draw(st.lists(st.sampled_from(live), min_size=1)))
            for pool in pools:
                refresh_to(pool, pid, members)
        elif op == "reload":
            path = str(tmp / f"episodes-{step}.jsonl")
            pools[0].save_episodes(path)
            pools[0].save_pattern_snapshot(path + ".patterns.json")
            snapshots.append(path + ".patterns.json")
            reloaded = []
            for pool in pools:
                fresh = type(pool)(pool.config)
                fresh.load_episodes(path)
                fresh.load_pattern_snapshot(path + ".patterns.json")
                reloaded.append(fresh)
            pools = reloaded
        elif snapshots:
            snapshot = data.draw(st.sampled_from(snapshots))
            for pool in pools:
                pool.load_pattern_snapshot(snapshot)
        assert refresh_state(pools[0]) == refresh_state(pools[1])
        assert_maps_rebuild(pools[0])


def test_most_refreshes_on_a_recurring_stream_append(monkeypatch):
    # On the 400-session recurring stream a refresh almost always adds the
    # newest episode to a pattern; only those that do not read every member.
    from kubediag.scenarios import build_world
    from kubediag.simulate import SimulationConfig, build_stream, make_engine, run_stream

    calls = Counter()

    def count(name):
        inner = getattr(MemoryPool, name)

        def counted(self, *args):
            calls[name] += 1
            return inner(self, *args)

        monkeypatch.setattr(MemoryPool, name, counted)

    count("_refresh_pattern")
    count("_recompute")
    cfg = SimulationConfig(total_sessions=400, recurrence=0.5, seed=3)
    scenarios, graph = build_world(cfg.seed, cfg.corpus_size)
    run_stream(make_engine(graph), build_stream(scenarios, cfg), cfg.window)
    assert calls["_refresh_pattern"] >= 300
    assert calls["_recompute"] <= 0.1 * calls["_refresh_pattern"], calls


def test_formation_compares_overlaps_once_per_touched_pattern(monkeypatch):
    # On a recurring stream the seeds of one formation call share one
    # neighbourhood; once a pattern has exactly that member set the other
    # seeds skip it.  One overlap comparison per seed fails this.
    from kubediag.scenarios import build_world
    from kubediag.simulate import SimulationConfig, build_stream, make_engine, run_stream

    cfg = SimulationConfig(total_sessions=120, recurrence=0.5, seed=3, corpus_size=40)
    scenarios, graph = build_world(cfg.seed, cfg.corpus_size)
    engine = make_engine(graph)
    pool = engine.pool
    counter = {"n": 0}
    calls = []

    def best_overlap(members, _inner=pool._best_overlap):
        counter["n"] += 1
        return _inner(members)

    def form(eid, now=None, _inner=pool.form_patterns_incremental):
        counter["n"] = 0
        touched = _inner(eid, now)
        seeds = pool._neighborhood(pool.episode(eid))
        calls.append((counter["n"], len(touched), len(seeds)))
        return touched

    monkeypatch.setattr(pool, "_best_overlap", best_overlap)
    monkeypatch.setattr(pool, "form_patterns_incremental", form)
    run_stream(engine, build_stream(scenarios, cfg), cfg.window)

    assert len(calls) > 100
    assert all(n <= touched for n, touched, _ in calls), calls
    # the guard has teeth: one comparison per seed of at least the minimum
    # size would be over three times as many
    eligible = sum(seeds for _, _, seeds in calls if seeds >= pool.config.pattern_min_members)
    assert eligible > 3 * sum(n for n, _, _ in calls)


def counting_link_cos(monkeypatch):
    """Counts the scalar cosines ``_link`` computes while ``on`` is set."""
    counter = {"on": False, "n": 0}

    def counting_cos(a, b):
        counter["n"] += counter["on"]
        return _cos(a, b)

    monkeypatch.setattr(memory_mod, "_cos", counting_cos)
    return counter


def test_link_skips_the_cosine_of_recurring_embeddings(monkeypatch, rng):
    # identical embeddings have cosine lower bounds far above the threshold
    pool = small_pool(16)
    bases = [rand_unit(rng, 16) for _ in range(3)]
    pool.insert_episode(mk_episode("e000", bases[0]))
    pool.form_patterns(now=NOW)  # builds the neighbour sets
    counter = counting_link_cos(monkeypatch)
    counter["on"] = True
    for i in range(1, 45):
        pool.insert_episode(mk_episode(f"e{i:03d}", bases[i % 3], ts=NOW + i))
    assert counter["n"] == 0
    for eid, ep in pool.episodes.items():
        assert pool._neighborhood(ep) == neighborhood_oracle(pool, ep)
        assert len(pool._neighborhood(ep)) == 15


@pytest.mark.parametrize("shift", [0, 1])
def test_link_rescores_only_the_rows_in_the_band(monkeypatch, shift):
    # a threshold equal to a pair's cosine puts that row inside the bound's
    # band: it is rescored, and linked iff its cosine exceeds the threshold
    a = unit(16, 0)
    b = np.zeros(16)
    b[0], b[1] = 0.9, math.sqrt(1 - 0.81)
    th = float(np.dot(b, a))
    for _ in range(shift):
        th = math.nextafter(th, 0.0)
    pool = small_pool(16, pattern_sim_threshold=th)
    pool.insert_episode(mk_episode("a", a))
    pool.form_patterns(now=NOW)
    counter = counting_link_cos(monkeypatch)
    counter["on"] = True
    pool.insert_episode(mk_episode("b", b))
    approx, margin = pool._index.bounds(b)
    band = int(np.count_nonzero((approx + margin >= th) & ~(approx - margin > th)))
    assert counter["n"] == band == 1
    assert ("a" in pool._neighborhood(pool.episode("b"))) == bool(shift)
    for ep in pool.episodes.values():
        assert pool._neighborhood(ep) == neighborhood_oracle(pool, ep)


def test_snapshot_loaded_over_existing_ids_keeps_the_maps(tmp_path, rng):
    pool = small_pool(16)
    base = rand_unit(rng, 16)
    for i in range(4):
        pool.insert_episode(mk_episode(f"e{i}", jitter_unit(rng, base, 0.02)))
    pool.form_patterns(now=NOW)
    early = str(tmp_path / "early.patterns.json")
    pool.save_pattern_snapshot(early)
    for i in range(4, 8):
        pool.insert_episode(mk_episode(f"e{i}", jitter_unit(rng, base, 0.02)))
        pool.form_patterns_incremental(f"e{i}", now=NOW)
    assert_maps_rebuild(pool)
    before = {pid: set(p.member_ids) for pid, p in pool.patterns.items()}
    pool.load_pattern_snapshot(early)
    assert_maps_rebuild(pool)
    after = {pid: set(p.member_ids) for pid, p in pool.patterns.items()}
    assert after != before
    # the replaced member sets are gone: e7 joined after the early snapshot
    assert "e7" not in pool._holders


# ---------------------------------------------------------------------------
# insertion / eviction / outcome updates


def test_insert_duplicate_id_rejected():
    pool = small_pool(8)
    pool.insert_episode(mk_episode("e1", unit(8)))
    with pytest.raises(DuplicateId):
        pool.insert_episode(mk_episode("e1", unit(8, 1)))


def test_insert_wrong_dim_rejected():
    pool = small_pool(8)
    with pytest.raises(InvalidArgument):
        pool.insert_episode(mk_episode("e1", unit(16)))


def test_insert_nan_embedding_rejected():
    pool = small_pool(8)
    with pytest.raises(InvalidArgument):
        pool.insert_episode(mk_episode("e1", [float("nan")] * 8))
    assert pool.episodes == {}


def test_insert_rejects_a_column_embedding():
    # a (dim, 1) column has length dim and norm 1; stored, it broke the next novelty
    pool = small_pool(8)
    pool.insert_episode(mk_episode("e0", unit(8)))
    with pytest.raises(InvalidArgument, match="1-D"):
        pool.insert_episode(mk_episode("e1", unit(8, 1)[:, None]))
    assert list(pool.episodes) == ["e0"]
    assert pool.novelty(mk_query(unit(8, 1))) == 1.0


def test_eviction_lowest_value_first():
    pool = small_pool(8, capacity=3)
    pool.insert_episode(mk_episode("keep-a", unit(8, 0), value=1.0))
    pool.insert_episode(mk_episode("drop", unit(8, 1), value=0.2))
    pool.insert_episode(mk_episode("keep-b", unit(8, 2), value=0.5))
    pool.insert_episode(mk_episode("keep-c", unit(8, 3), value=0.9))
    assert set(pool.episodes) == {"keep-a", "keep-b", "keep-c"}


def test_eviction_value_tie_breaks_oldest():
    pool = small_pool(8, capacity=2)
    pool.insert_episode(mk_episode("old", unit(8, 0), value=1.0, ts=NOW - DAY))
    pool.insert_episode(mk_episode("new", unit(8, 1), value=1.0, ts=NOW))
    pool.insert_episode(mk_episode("top", unit(8, 2), value=2.0, ts=NOW))
    assert set(pool.episodes) == {"new", "top"}


def test_insert_then_retrieve_is_top_hit(rng):
    pool = small_pool(16)
    for i in range(20):
        pool.insert_episode(mk_episode(f"e{i:03d}", rand_unit(rng, 16), ts=NOW - 10 * DAY))
    target = rand_unit(rng, 16)
    pool.insert_episode(mk_episode("star", target, ts=NOW))
    result = pool.retrieve(mk_query(target), W1, NOW)
    assert result.memories[0].ref == "star"


def test_update_outcome_success_multiplier():
    pool = small_pool(8)
    pool.insert_episode(mk_episode("e1", unit(8), value=1.0))
    pool.update_outcome("e1", Outcome.SUCCESS, success=True)
    assert pool.episode("e1").memory_value == pytest.approx(1.1, abs=1e-12)
    assert (pool.episode("e1").trials, pool.episode("e1").successes) == (1, 1)


def test_update_outcome_failure_clamped_at_zero():
    pool = small_pool(8)
    pool.insert_episode(mk_episode("e1", unit(8), value=0.0))
    pool.update_outcome("e1", Outcome.FAILURE, success=False)
    assert pool.episode("e1").memory_value == 0.0


def test_update_outcome_unknown_id():
    with pytest.raises(NotFound):
        small_pool(8).update_outcome("nope", Outcome.SUCCESS, success=True)


def test_update_outcome_refreshes_pattern_reliability():
    pool = small_pool(8)
    v = unit(8)
    for i in range(3):
        pool.insert_episode(mk_episode(f"e{i}", v, outcome=Outcome.SUCCESS))
    (pid,) = pool.form_patterns(now=NOW)
    assert pool.patterns[pid].success_members == 3
    pool.update_outcome("e1", Outcome.FAILURE, success=False)
    # recount oracle: member outcomes are now S, F, S
    want = sum(pool.episode(e).outcome is Outcome.SUCCESS for e in pool.patterns[pid].member_ids)
    assert pool.patterns[pid].success_members == want == 2


def test_reloaded_store_counts_evicted_members_as_the_live_pool_does(tmp_path):
    # A pattern keeps the ids of members evicted since it formed, and a saved
    # store holds only live episodes; a feedback on a surviving member must
    # move ``success_members`` alike in the live pool and in the reloaded one.
    from kubediag.simulate import SimulationConfig, run_continuous

    sim = SimulationConfig(total_sessions=400, recurrence=0.5, seed=0)
    _, engine = run_continuous(sim, MemoryConfig(capacity=10))
    live = engine.pool
    path = str(tmp_path / "episodes.jsonl")
    live.save_episodes(path)
    live.save_pattern_snapshot(path + ".patterns.json")
    loaded = MemoryPool(MemoryConfig(capacity=10))
    loaded.load_episodes(path)
    loaded.load_pattern_snapshot(path + ".patterns.json")

    pat, member = next(
        (p, m) for _, p in sorted(live.patterns.items()) for m in sorted(p.member_ids)
        if m in live.episodes and p.success_members > 1
        and not set(p.member_ids) <= set(live.episodes)
    )
    for pool in (live, loaded):
        pool.update_outcome(member, Outcome.SUCCESS, success=True)
    assert {pid: p.success_members for pid, p in loaded.patterns.items()} == \
        {pid: p.success_members for pid, p in live.patterns.items()}
    assert 0 < live.patterns[pat.id].success_members <= len(pat.member_ids)


# ---------------------------------------------------------------------------
# hints and memory paths


def test_hints_empty_pool():
    pool = small_pool(8)
    assert pool.hints(pool.retrieve(mk_query(unit(8)), W1, NOW)) == set()


def test_hints_single_episode_path():
    pool = small_pool(8)
    pool.insert_episode(mk_episode("e1", unit(8), path=["n1", "n2"]))
    assert pool.hints(pool.retrieve(mk_query(unit(8)), W1, NOW)) == {"n1", "n2"}


def test_hints_union_of_top_k_by_score(rng):
    # ungated: exactly the union over the brute-force top-5 retrieved memories
    pool = small_pool(16, hint_min_confidence=0.0)
    vecs = []
    for i in range(20):
        v = rand_unit(rng, 16)
        vecs.append(v)
        pool.insert_episode(
            mk_episode(f"e{i:03d}", v, ts=NOW - rng.uniform(0, 30 * DAY), path=[f"n{i}a", f"n{i}b"])
        )
    q = mk_query(rand_unit(rng, 16))
    top5 = scan_oracle(pool, q, W1, NOW, pool.config.hint_k)
    want = set()
    for ref, _, _, _ in top5:
        want.update(pool.episode(ref).resolution_path)
    assert pool.hints(pool.retrieve(q, W1, NOW)) == want


def test_hints_gate_drops_irrelevant_memories():
    pool = small_pool(8, hint_min_confidence=0.5)
    # far vector, stale, no context overlap: confidence well below the gate
    pool.insert_episode(
        mk_episode("e1", unit(8, 1), ts=NOW - 300 * DAY, path=["n1"], context={"ns:other"})
    )
    q = mk_query(unit(8, 0), context={"ns:mine"})
    assert pool.hints(pool.retrieve(q, W1, NOW)) == set()
    # the ungated view still surfaces it
    pool.config.hint_min_confidence = 0.0
    assert pool.hints(pool.retrieve(q, W1, NOW)) == {"n1"}


def test_memory_paths_follow_retrieval(rng):
    pool = small_pool(16, hint_min_confidence=0.0)
    for i in range(8):
        pool.insert_episode(mk_episode(f"e{i}", rand_unit(rng, 16), path=[f"n{i}"]))
    q = mk_query(rand_unit(rng, 16))
    result = pool.retrieve(q, W1, NOW)
    paths = pool.memory_paths(result)
    assert paths == [list(pool.episode(m.ref).resolution_path) for m in result.memories]


# ---------------------------------------------------------------------------
# persistence


def test_episode_roundtrip(tmp_path, rng):
    pool = small_pool(16)
    for i in range(12):
        pool.insert_episode(
            mk_episode(
                f"e{i:03d}",
                rand_unit(rng, 16),
                ts=NOW - i * DAY,
                outcome=Outcome.FAILURE if i % 3 else Outcome.SUCCESS,
                path=[f"n{i}"],
                context={f"ns:{i % 2}"},
                trials=i,
                successes=i // 2,
            )
        )
    path = tmp_path / "episodes.jsonl"
    pool.save_episodes(str(path))
    fresh = small_pool(16)
    fresh.load_episodes(str(path))
    assert set(fresh.episodes) == set(pool.episodes)
    for eid, ep in pool.episodes.items():
        other = fresh.episode(eid)
        assert other.symptoms == ep.symptoms
        assert other.context == ep.context
        assert other.outcome == ep.outcome
        assert other.resolution_path == ep.resolution_path
        assert (other.trials, other.successes) == (ep.trials, ep.successes)
        np.testing.assert_allclose(other.embedding, ep.embedding, atol=1e-12)


def test_load_rejects_bad_line(tmp_path):
    pool = small_pool(8)
    pool.insert_episode(mk_episode("e1", unit(8)))
    path = tmp_path / "episodes.jsonl"
    pool.save_episodes(str(path))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    fresh = small_pool(8)
    with pytest.raises(Exception) as exc_info:
        fresh.load_episodes(str(path))
    assert "2" in str(exc_info.value)  # line number surfaces


@pytest.mark.parametrize(
    "key, value",
    [
        ("symptoms", "pod oomkilled"),
        ("context", "ns"),
        ("actions", "restart the pod"),
        ("resolution_path", [None]),
        ("trials", 3.9),
        ("successes", True),
        ("id", 5),
        ("timestamp", "12"),
        ("memory_value", True),
    ],
    ids=["symptoms-string", "context-string", "actions-string", "path-null", "trials-fraction",
         "successes-bool", "id-int", "timestamp-string", "value-bool"],
)
def test_load_episodes_rejects_wrong_types(tmp_path, key, value):
    # coerced, each would load as something else: a string as its
    # characters, 3.9 trials as 3, true as 1, an id 5 as "5"
    pool = small_pool(8)
    for i in range(2):
        pool.insert_episode(mk_episode(f"e{i}", unit(8, i), trials=4, successes=3))
    path = tmp_path / "episodes.jsonl"
    pool.save_episodes(str(path))
    first, second = path.read_text().splitlines()
    raw = json.loads(second)
    raw[key] = value
    path.write_text(f"{first}\n{json.dumps(raw)}\n")
    with pytest.raises(SchemaViolation, match="line 2"):
        small_pool(8).load_episodes(str(path))


def test_pattern_snapshot_roundtrip(tmp_path, rng):
    pool = small_pool(16)
    base = rand_unit(rng, 16)
    for i in range(4):
        pool.insert_episode(mk_episode(f"e{i}", jitter_unit(rng, base, 0.05)))
    pool.form_patterns(now=NOW)
    path = tmp_path / "patterns.json"
    pool.save_pattern_snapshot(str(path))
    fresh = small_pool(16)
    for i in range(4):
        fresh.insert_episode(mk_episode(f"e{i}", pool.episode(f"e{i}").embedding))
    fresh.load_pattern_snapshot(str(path))
    assert set(fresh.patterns) == set(pool.patterns)
    for pid, pat in pool.patterns.items():
        other = fresh.patterns[pid]
        assert other.member_ids == pat.member_ids
        assert other.success_members == pat.success_members
        np.testing.assert_allclose(other.centroid, pat.centroid, atol=1e-12)
    data = json.loads(path.read_text())
    # the snapshot records every field of the producing configuration
    assert set(data["config"]) == {f.name for f in dataclasses.fields(MemoryConfig)}


def test_pattern_snapshot_ignores_retired_keys(tmp_path, rng):
    # older snapshots carry per-pattern ``spread``, the old index bounds,
    # ``reliability``, ``member_count``, ``seed_id`` and ``symptom_tokens``;
    # they still load, and the extra keys are dropped
    pool = small_pool(16)
    base = rand_unit(rng, 16)
    for i in range(4):
        pool.insert_episode(mk_episode(f"e{i}", jitter_unit(rng, base, 0.05)))
    pool.form_patterns(now=NOW)
    path = tmp_path / "patterns.json"
    pool.save_pattern_snapshot(str(path))
    saved = json.loads(path.read_text())
    data = json.loads(path.read_text())
    for raw in data["patterns"]:
        raw["spread"] = [0.0] * 16
        raw["max_member_angle"] = 0.25
        raw["max_member_ts"] = raw["last_updated"]
        raw["reliability"] = raw["success_members"] / len(raw["member_ids"])
        raw["member_count"] = len(raw["member_ids"])
        raw["seed_id"] = raw["member_ids"][0]
        raw["symptom_tokens"] = ["pod", "crashlooping"]
    data["config"]["index_probe_patterns"] = 8
    path.write_text(json.dumps(data))
    fresh = small_pool(16)
    for i in range(4):
        fresh.insert_episode(mk_episode(f"e{i}", pool.episode(f"e{i}").embedding))
    assert fresh.load_pattern_snapshot(str(path)) == len(pool.patterns)
    q = mk_query(base)
    assert [(m.ref, m.score, m.confidence) for m in fresh.retrieve(q, W1, NOW).memories] == [
        (m.ref, m.score, m.confidence) for m in pool.retrieve(q, W1, NOW).memories
    ]
    fresh.save_pattern_snapshot(str(path))
    assert json.loads(path.read_text()) == saved


def _snapshot_with(tmp_path, rng, edit):
    pool = small_pool(16)
    base = rand_unit(rng, 16)
    for i in range(4):
        pool.insert_episode(mk_episode(f"e{i}", jitter_unit(rng, base, 0.05)))
    pool.form_patterns(now=NOW)
    path = tmp_path / "patterns.json"
    pool.save_pattern_snapshot(str(path))
    data = json.loads(path.read_text())
    path.write_text(json.dumps(edit(data)))
    fresh = small_pool(16)
    for i in range(4):
        fresh.insert_episode(mk_episode(f"e{i}", pool.episode(f"e{i}").embedding))
    return fresh, path


def _set_centroid(data, centroid):
    data["patterns"][0]["centroid"] = centroid
    return data


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["patterns"],                              # not an object
        lambda d: {"patterns": 7},
        lambda d: _set_centroid(d, [0.6, 0.8]),               # unit, but 2-dim
        lambda d: _set_centroid(d, [0.5] + [0.0] * 15),       # 16-dim, norm 0.5
        lambda d: _set_centroid(d, [float("nan")] * 16),
        lambda d: {"patterns": [dict(d["patterns"][0], id="pat-x")]},
    ],
    ids=["list-root", "patterns-not-list", "short-centroid", "non-unit-centroid", "nan-centroid",
         "bad-id-number"],
)
def test_pattern_snapshot_rejects_bad_payload(tmp_path, rng, edit):
    fresh, path = _snapshot_with(tmp_path, rng, edit)
    with pytest.raises(SchemaViolation):
        fresh.load_pattern_snapshot(str(path))
    assert fresh.patterns == {}


def _set_counts(data, **fields):
    pat = data["patterns"][0]
    n = len(pat["member_ids"])
    pat.update({k: v(n) if callable(v) else v for k, v in fields.items()})
    return data


@pytest.mark.parametrize(
    "fields",
    [
        {"member_count": 1, "success_members": 9},
        {"success_members": lambda n: n + 1},
        {"success_members": -1},
    ],
    ids=["count-1-wins-9", "wins-above-count", "negative-wins"],
)
def test_pattern_snapshot_rejects_impossible_counts(tmp_path, rng, fields):
    fresh, path = _snapshot_with(tmp_path, rng, lambda d: _set_counts(d, **fields))
    with pytest.raises(SchemaViolation):
        fresh.load_pattern_snapshot(str(path))
    assert fresh.patterns == {}


def _set_field(data, key, value):
    pat = data["patterns"][0]
    target = pat["strategy"] if key in pat["strategy"] else pat
    target[key] = value(target[key]) if callable(value) else value
    return data


@pytest.mark.parametrize(
    "key, value",
    [
        ("context_labels", "prod"),
        ("member_ids", lambda ids: ids[:-1] + [7]),
        ("actions", "restart the pod"),
        ("resolution_path", [None]),
        ("success_members", True),
        ("success_members", 0.5),
        ("last_updated", "0"),
        ("last_updated", float("nan")),
        ("last_updated", float("inf")),
        ("id", 5),
        ("source_episode_id", 3),
    ],
    ids=["labels-string", "member-id-int", "actions-string",
         "path-null", "wins-bool", "wins-fraction", "updated-string", "updated-nan",
         "updated-inf", "id-int", "source-id-int"],
)
def test_pattern_snapshot_rejects_wrong_types(tmp_path, rng, key, value):
    # coerced, each would load as something else: a string as its
    # characters, 0.5 wins as 0, an id 5 as "5"
    fresh, path = _snapshot_with(tmp_path, rng, lambda d: _set_field(d, key, value))
    with pytest.raises(SchemaViolation):
        fresh.load_pattern_snapshot(str(path))
    assert fresh.patterns == {}


# -- store format: sparse vectors ---------------------------------------------


def pool_of_vectors(vectors, dim):
    """One episode and one pattern per vector, the pattern's centroid being
    the vector itself."""
    pool = small_pool(dim)
    for i, vec in enumerate(vectors):
        pool.insert_episode(mk_episode(f"ep-{i:06d}", vec, ts=NOW - i * DAY))
        pool.patterns[f"pat-{i + 1:06d}"] = Pattern(
            id=f"pat-{i + 1:06d}",
            centroid=np.asarray(vec, dtype=np.float64),
            actions=["restart the pod"],
            resolution_path=[f"n{i}"],
            source_episode_id=f"ep-{i:06d}",
            member_ids={f"ep-{i:06d}"},
            last_updated=NOW,
        )
    return pool


def save_and_reload(pool, tmp_path):
    memory = tmp_path / "episodes.jsonl"
    snapshot = tmp_path / "episodes.jsonl.patterns.json"
    pool.save_episodes(str(memory))
    pool.save_pattern_snapshot(str(snapshot))
    fresh = small_pool(pool.config.embedding_dim)
    fresh.load_episodes(str(memory))
    fresh.load_pattern_snapshot(str(snapshot))
    return fresh, memory, snapshot


def assert_same_bits(fresh, pool):
    assert list(fresh.episodes) == list(pool.episodes)
    for eid, ep in pool.episodes.items():
        assert fresh.episode(eid).embedding.tobytes() == ep.embedding.tobytes()
    assert set(fresh.patterns) == set(pool.patterns)
    for pid, pat in pool.patterns.items():
        assert fresh.patterns[pid].centroid.tobytes() == pat.centroid.tobytes()


ENTRY = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.0, 1.0, allow_nan=False))


@st.composite
def unit_vectors_with_zeros(draw, dim=16):
    v = np.array(draw(st.lists(ENTRY, min_size=dim, max_size=dim)), dtype=np.float64)
    norm = float(np.linalg.norm(v))
    assume(norm > 1e-3)
    return v / norm


@given(st.lists(unit_vectors_with_zeros(), min_size=1, max_size=4))
def test_store_roundtrip_is_bit_exact(tmp_path_factory, vectors):
    pool = pool_of_vectors(vectors, 16)
    fresh, _, _ = save_and_reload(pool, tmp_path_factory.mktemp("store"))
    assert_same_bits(fresh, pool)


def test_store_roundtrip_keeps_negative_zero(tmp_path):
    vec = np.zeros(16)
    vec[3], vec[7], vec[11] = 0.6, -0.0, -0.8
    pool = pool_of_vectors([vec], 16)
    fresh, memory, snapshot = save_and_reload(pool, tmp_path)
    assert_same_bits(fresh, pool)
    assert np.signbit(fresh.episode("ep-000000").embedding[7])
    stored = json.loads(memory.read_text())["embedding"]
    assert stored == {"dim": 16, "index": "03000000" "07000000" "0b000000",
                      "value": struct.pack("<3d", 0.6, -0.0, -0.8).hex()}
    assert json.loads(snapshot.read_text())["patterns"][0]["centroid"] == stored


WORDS = ("pod", "oomkilled", "crashloop", "node", "disk", "pressure", "dns", "timeout",
         "image", "pull", "backoff", "evicted", "cache-worker", "ingress", "502", "quota")


@given(st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=12), min_size=1,
                max_size=3))
def test_store_roundtrip_hashing_embeddings(tmp_path_factory, texts):
    emb = HashingEmbedder(MemoryConfig().embedding_dim)
    pool = pool_of_vectors([emb.embed(" ".join(t)) for t in texts], emb.dim)
    fresh, _, _ = save_and_reload(pool, tmp_path_factory.mktemp("store"))
    assert_same_bits(fresh, pool)


def dense_list(vec):
    """The dense list of the older store format for a sparse-list vector."""
    out = [0.0] * vec["dim"]
    for i, x in zip(vec["index"], vec["value"]):
        out[i] = x
    return out


def densify(path, key):
    """Rewrite a store's vectors as the dense lists of the older format."""
    if key == "embedding":
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        for raw in lines:
            raw[key] = dense_list(sparse_lists(raw[key]))
        path.write_text("".join(json.dumps(raw, sort_keys=True) + "\n" for raw in lines))
    else:
        data = json.loads(path.read_text())
        for raw in data["patterns"]:
            raw[key] = dense_list(sparse_lists(raw[key]))
        path.write_text(json.dumps(data, sort_keys=True, indent=2))


def test_dense_store_loads_and_is_rewritten_sparse(tmp_path, rng):
    pool = small_pool(16)
    n = 0
    for _ in range(3):
        base = rand_unit(rng, 16)
        for _ in range(4):
            pool.insert_episode(mk_episode(f"ep-{n:06d}", jitter_unit(rng, base, 0.05),
                                           ts=NOW - n * DAY, context={f"ns:{n % 2}"}))
            n += 1
    pool.form_patterns(now=NOW)
    assert pool.patterns
    sparse, memory, snapshot = save_and_reload(pool, tmp_path)
    densify(memory, "embedding")
    densify(snapshot, "centroid")
    assert isinstance(json.loads(memory.read_text().splitlines()[0])["embedding"], list)
    dense = small_pool(16)
    dense.load_episodes(str(memory))
    dense.load_pattern_snapshot(str(snapshot))
    assert_same_bits(dense, sparse)
    for _ in range(5):
        q = mk_query(rand_unit(rng, 16), context={"ns:0"})
        want = sparse.retrieve(q, W1, NOW)
        got = dense.retrieve(q, W1, NOW)
        assert [(m.ref, m.kind, m.score, m.confidence) for m in got.memories] == [
            (m.ref, m.kind, m.score, m.confidence) for m in want.memories
        ]
    dense.save_episodes(str(memory))
    dense.save_pattern_snapshot(str(snapshot))
    assert all(isinstance(json.loads(line)["embedding"]["index"], str)
               for line in memory.read_text().splitlines())
    assert all(isinstance(raw["centroid"]["index"], str)
               for raw in json.loads(snapshot.read_text())["patterns"])


def test_a_dense_entry_beyond_the_float_range_is_a_schema_violation(tmp_path, rng):
    pool = pool_of_vectors([rand_unit(rng, 16)], 16)
    memory, snapshot = tmp_path / "episodes.jsonl", tmp_path / "patterns.json"
    pool.save_episodes(str(memory))
    pool.save_pattern_snapshot(str(snapshot))
    densify(memory, "embedding")
    densify(snapshot, "centroid")
    raw = json.loads(memory.read_text())
    raw["embedding"][0] = 10 ** 400
    memory.write_text(json.dumps(raw) + "\n")
    data = json.loads(snapshot.read_text())
    data["patterns"][0]["centroid"][0] = 10 ** 400
    snapshot.write_text(json.dumps(data))
    fresh = small_pool(16)
    with pytest.raises(SchemaViolation, match="^line 1: int too large"):
        fresh.load_episodes(str(memory))
    with pytest.raises(SchemaViolation, match="int too large"):
        fresh.load_pattern_snapshot(str(snapshot))


def dense_unit_store(tmp_path):
    """An episode store and a snapshot of the unit vector ``e0`` in 16
    dimensions, written as the dense lists of the older format."""
    pool = pool_of_vectors([np.eye(16)[0]], 16)
    memory, snapshot = tmp_path / "episodes.jsonl", tmp_path / "patterns.json"
    pool.save_episodes(str(memory))
    pool.save_pattern_snapshot(str(snapshot))
    densify(memory, "embedding")
    densify(snapshot, "centroid")
    return memory, snapshot


# each would be read as e0's own entry, 1.0 or 0.0, were it coerced
NON_FLOAT_ENTRIES = [(0, True), (1, "0"), (1, 0), (1, False)]
NON_FLOAT_IDS = ["true", "string", "int", "false"]


@pytest.mark.parametrize("at,bad", NON_FLOAT_ENTRIES, ids=NON_FLOAT_IDS)
def test_a_dense_episode_entry_that_is_not_a_float_is_a_schema_violation(tmp_path, at, bad):
    memory, _ = dense_unit_store(tmp_path)
    raw = json.loads(memory.read_text())
    raw["embedding"][at] = bad
    memory.write_text(json.dumps(raw) + "\n")
    fresh = small_pool(16)
    with pytest.raises(SchemaViolation,
                       match=f"^line 1: vector value {re.escape(repr(bad))} is not a float$"):
        fresh.load_episodes(str(memory))
    assert fresh.episodes == {}


@pytest.mark.parametrize("at,bad", NON_FLOAT_ENTRIES, ids=NON_FLOAT_IDS)
def test_a_dense_centroid_entry_that_is_not_a_float_is_a_schema_violation(tmp_path, at, bad):
    memory, snapshot = dense_unit_store(tmp_path)
    fresh = small_pool(16)
    fresh.load_episodes(str(memory))
    data = json.loads(snapshot.read_text())
    data["patterns"][0]["centroid"][at] = bad
    snapshot.write_text(json.dumps(data))
    with pytest.raises(SchemaViolation, match=f"vector value {re.escape(repr(bad))} is not a float"):
        fresh.load_pattern_snapshot(str(snapshot))
    assert fresh.patterns == {}


BAD_VECTORS = {
    "index-out-of-range": lambda v: dict(v, index=v["index"][:-1] + [16]),
    "negative-index": lambda v: dict(v, index=[-1] + v["index"][1:]),
    # an entry repeated with its own value: the same vector, were it accepted
    "duplicate-index": lambda v: dict(v, index=v["index"][:2] + v["index"][1:],
                                      value=v["value"][:2] + v["value"][1:]),
    "unsorted-index": lambda v: dict(v, index=v["index"][::-1]),
    "float-index": lambda v: dict(v, index=[float(v["index"][0])] + v["index"][1:]),
    "fractional-index": lambda v: dict(v, index=[v["index"][0] + 0.5] + v["index"][1:]),
    "bool-index": lambda v: dict(v, index=[v["index"][0], True] + v["index"][2:]),
    "length-mismatch": lambda v: dict(v, value=v["value"][:-1]),
    "string-value": lambda v: dict(v, value=[str(v["value"][0])] + v["value"][1:]),
    "wrong-dim": lambda v: dict(v, dim=32),
    "bool-dim": lambda v: dict(v, dim=True),
    "huge-dim": lambda v: dict(v, dim=10**12),
    "not-an-object": lambda v: "sparse",
    "missing-key": lambda v: {"dim": v["dim"], "index": v["index"]},
}


def vector_with_nonzeros(rng):
    # entries 0 and 1 set, so every edit above changes a real index
    vec = np.zeros(16)
    vec[[0, 1, 5, 9]] = rng.standard_normal(4)
    return vec / np.linalg.norm(vec)


@pytest.mark.parametrize("case", sorted(BAD_VECTORS))
def test_corrupt_sparse_vector_rejected(tmp_path, rng, case):
    pool = pool_of_vectors([vector_with_nonzeros(rng) for _ in range(2)], 16)
    memory, snapshot = tmp_path / "episodes.jsonl", tmp_path / "patterns.json"
    pool.save_episodes(str(memory))
    pool.save_pattern_snapshot(str(snapshot))

    lines = [json.loads(line) for line in memory.read_text().splitlines()]
    lines[0]["embedding"] = BAD_VECTORS[case](sparse_lists(lines[0]["embedding"]))
    memory.write_text("".join(json.dumps(raw) + "\n" for raw in lines))
    data = json.loads(snapshot.read_text())
    data["patterns"][-1]["centroid"] = BAD_VECTORS[case](
        sparse_lists(data["patterns"][-1]["centroid"]))
    snapshot.write_text(json.dumps(data))

    fresh = small_pool(16)
    tracemalloc.start()
    try:
        with pytest.raises(SchemaViolation):
            fresh.load_episodes(str(memory))
        with pytest.raises(SchemaViolation):
            fresh.load_pattern_snapshot(str(snapshot))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**7  # nothing of the claimed dimension was allocated
    assert fresh.episodes == {} and fresh.patterns == {}


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_load_rejects_nan_embedding(tmp_path, sparse):
    nan = [float("nan")] * 16
    embedding = {"dim": 16, "index": list(range(16)), "value": nan} if sparse else nan
    raw = {
        "id": "ep-000001", "symptoms": ["pod crashlooping"], "context": [], "actions": [],
        "outcome": "success", "timestamp": NOW, "memory_value": 1.0,
        "embedding": embedding, "resolution_path": [],
    }
    path = tmp_path / "episodes.jsonl"
    path.write_text(json.dumps(raw) + "\n")
    fresh = small_pool(16)
    with pytest.raises(SchemaViolation):
        fresh.load_episodes(str(path))
    assert fresh.episodes == {}


@pytest.mark.parametrize("bad", [
    {"trials": -1, "successes": 0},
    {"trials": 2, "successes": -1},
    {"trials": 1, "successes": 9},
    {"memory_value": float("nan")},
    {"memory_value": float("inf")},
], ids=["negative-trials", "negative-successes", "successes-above-trials",
        "nan-value", "infinite-value"])
def test_load_rejects_impossible_counts_and_values(tmp_path, bad):
    pool = small_pool(16)
    pool.insert_episode(mk_episode("ep-000001", unit(16), trials=2, successes=1))
    path = tmp_path / "episodes.jsonl"
    pool.save_episodes(str(path))
    raw = json.loads(path.read_text())
    raw.update(id="ep-000002", **bad)
    with path.open("a") as fh:
        fh.write(json.dumps(raw) + "\n")
    with pytest.raises(SchemaViolation, match="line 2"):
        small_pool(16).load_episodes(str(path))


def pool_state(pool):
    """Everything a load writes: episodes, index rows, tombstones, neighbours."""
    idx = pool._index
    idx._flush()
    return {
        "rows": [ep.id for ep in pool._rows],
        "episodes": list(pool.episodes),
        "stamps": list(pool._stamps),
        "index": (idx.n, idx.row.tobytes(), idx.col.tobytes(), idx.val.tobytes()),
        "embeddings": [ep.embedding.tobytes() for ep in pool._rows],
        "fields": [repr((ep.id, ep.symptoms, sorted(ep.context), ep.actions, ep.outcome,
                         ep.timestamp, ep.memory_value, ep.resolution_path, ep.trials,
                         ep.successes)) for ep in pool._rows],
        "tombstones": set(pool._tombstones),
        "neighbours": pool._neighbours,
    }


def stored_pool(rng, n=4, **overrides):
    pool = small_pool(16, **overrides)
    for i in range(n):
        pool.insert_episode(mk_episode(f"old-{i}", rand_unit(rng, 16), ts=NOW - i * DAY))
    return pool


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


def test_failed_load_leaves_the_pool_unchanged_and_names_the_first_bad_line(tmp_path, rng):
    source = pool_of_vectors([rand_unit(rng, 16) for _ in range(5)], 16)
    path = tmp_path / "episodes.jsonl"
    source.save_episodes(str(path))
    lines = path.read_text().splitlines()
    bad_norm = json.loads(lines[1])
    vec = sparse_lists(bad_norm["embedding"])
    bad_norm["embedding"] = packed(dict(vec, value=[2.0 * x for x in vec["value"]]))
    lines[1] = json.dumps(bad_norm)
    lines[3] = "{not json"
    write_lines(path, lines)
    pool = stored_pool(rng)
    pool._neighborhood(pool.episode("old-0"))  # build the neighbour sets too
    before = pool_state(pool)
    # a bad norm is found by the file-wide pass, yet beats the later bad JSON
    with pytest.raises(SchemaViolation, match=r"^line 2: episode ep-000001: embedding norm 2\.0"):
        pool.load_episodes(str(path))
    assert pool_state(pool) == before
    lines[1] = json.dumps(dict(bad_norm, memory_value=-1.0))
    write_lines(path, lines)
    with pytest.raises(SchemaViolation, match="^line 2: .* embedding norm"):
        pool.load_episodes(str(path))  # the norm before the value, as validate checks
    lines[1] = json.dumps(dict(json.loads(lines[0]), id="ep-000001", memory_value=-1.0))
    write_lines(path, lines)
    with pytest.raises(SchemaViolation, match="^line 2: .*memory_value"):
        pool.load_episodes(str(path))
    assert pool_state(pool) == before


def test_repeated_id_in_a_file_names_the_line(tmp_path, rng):
    source = pool_of_vectors([rand_unit(rng, 16) for _ in range(3)], 16)
    path = tmp_path / "episodes.jsonl"
    source.save_episodes(str(path))
    first, second, third = path.read_text().splitlines()
    write_lines(path, [first, second, json.dumps(dict(json.loads(third), id="ep-000000"))])
    pool = small_pool(16)
    with pytest.raises(SchemaViolation, match="^line 3: episode id 'ep-000000' already used on line 1"):
        pool.load_episodes(str(path))
    assert pool.episodes == {}


def test_id_held_or_evicted_by_the_pool_stays_a_duplicate(tmp_path, rng):
    pool = small_pool(16, capacity=2)
    for i in range(3):  # evicts ep-000000, the oldest of equal value
        pool.insert_episode(mk_episode(f"ep-{i:06d}", rand_unit(rng, 16), ts=NOW + i))
    assert pool._tombstones == {"ep-000000"}
    path = tmp_path / "episodes.jsonl"
    for eid in ("ep-000002", "ep-000000"):
        source = pool_of_vectors([rand_unit(rng, 16)], 16)
        source.save_episodes(str(path))
        write_lines(path, [json.dumps(dict(json.loads(path.read_text()), id=eid))])
        before = pool_state(pool)
        with pytest.raises(DuplicateId, match=eid):
            pool.load_episodes(str(path))
        assert pool_state(pool) == before


@given(st.lists(unit_vectors_with_zeros(), min_size=1, max_size=6))
def test_norm_is_numpys_bit_for_bit(vectors):
    rng = np.random.default_rng(len(vectors))
    vectors += [rand_unit(rng, 2048) for _ in range(3)]
    for v in vectors:
        v = v.copy()
        v[v == 0.0] = -0.0
        assert memory_mod._norm(v) == float(np.linalg.norm(v))
        assert memory_mod._norm(v[::2]) == float(np.linalg.norm(v[::2]))


def load_line_by_line(pool, path):
    """The reference load: check and insert each line in turn."""
    dim = pool.config.embedding_dim
    for line in path.read_text().splitlines():
        if line.strip():
            pool.insert_episode(store._episode_from_dict(json.loads(line), dim))


@given(vectors=st.lists(unit_vectors_with_zeros(), min_size=1, max_size=8),
       repeats=st.lists(st.integers(0, 7), max_size=4),
       values=st.lists(st.floats(0.0, 2.0), min_size=12, max_size=12),
       capacity=st.integers(1, 14), linked=st.booleans(), dense=st.booleans())
def test_bulk_load_equals_inserting_line_by_line(tmp_path_factory, vectors, repeats, values,
                                                 capacity, linked, dense):
    # Repeated vectors link above the threshold; a capacity below the count
    # evicts stored and loaded episodes; built neighbour sets are linked.
    vectors += [vectors[i % len(vectors)] for i in repeats]
    source = pool_of_vectors(vectors, 16)
    for ep, value in zip(source.episodes.values(), values):
        ep.memory_value = value
    path = tmp_path_factory.mktemp("load") / "episodes.jsonl"
    source.save_episodes(str(path))
    if dense:
        densify(path, "embedding")
    pools = []
    for _ in range(2):
        pool = stored_pool(np.random.default_rng(0), n=3, capacity=capacity)
        if linked:
            pool._neighborhood(next(iter(pool.episodes.values())))
        pools.append(pool)
    assert pools[0].load_episodes(str(path)) == len(vectors)
    load_line_by_line(pools[1], path)
    assert pool_state(pools[0]) == pool_state(pools[1])


def pool_with_evicted():
    """Episodes old-0 to old-2 stored, old-3 evicted."""
    pool = MemoryPool(MemoryConfig(embedding_dim=16, capacity=3))
    for i in range(4):
        pool.insert_episode(mk_episode(f"old-{i}", unit(16, i), ts=NOW - i * DAY))
    pool.config.capacity = 64  # room for every loaded line
    assert pool._tombstones == {"old-3"}
    return pool


def with_vector(raw, **changes):
    return dict(raw, embedding=dict(raw["embedding"], **changes))


def with_entry(raw, position, entry):
    """``raw`` with ``entry`` as its ``position``-th vector index."""
    index = list(raw["embedding"]["index"])
    index[position] = entry
    return with_vector(raw, index=index)


def with_negative_zero(raw):
    vec = raw["embedding"]
    pairs = dict(zip(vec["index"], vec["value"]))
    free = min(set(range(vec["dim"])) - set(pairs), default=None)
    if free is not None:
        pairs[free] = -0.0
    return with_vector(raw, index=sorted(pairs), value=[pairs[i] for i in sorted(pairs)])


HUGE_INT = 10 ** 400

# name -> edit of one decoded line of an episode file; those in VALID_EDITS
# leave it valid
LINE_EDITS = {
    "none": lambda raw: raw,
    "trials-true": lambda raw: dict(raw, trials=True),
    "timestamp-true": lambda raw: dict(raw, timestamp=True),
    "dim-true": lambda raw: with_vector(raw, dim=True),
    "timestamp-huge": lambda raw: dict(raw, timestamp=HUGE_INT),
    "value-huge": lambda raw: dict(raw, memory_value=HUGE_INT),
    "trials-huge": lambda raw: dict(raw, trials=HUGE_INT),
    "dim-huge": lambda raw: with_vector(raw, dim=HUGE_INT),
    "index-huge": lambda raw: with_entry(raw, 0, HUGE_INT),
    "negative-zero": with_negative_zero,
    "outcome-list": lambda raw: dict(raw, outcome=["success"]),
    "outcome-unknown": lambda raw: dict(raw, outcome="resolved"),
    "id-int": lambda raw: dict(raw, id=7),
    "id-empty": lambda raw: dict(raw, id=""),
    "id-held": lambda raw: dict(raw, id="old-0"),
    "id-evicted": lambda raw: dict(raw, id="old-3"),
    "id-repeated": lambda raw: dict(raw, id="ep-000000"),
    "successes-over-trials": lambda raw: dict(raw, trials=1, successes=2),
    "trials-negative": lambda raw: dict(raw, trials=-1),
    "successes-negative": lambda raw: dict(raw, trials=1, successes=-1),
    "timestamp-negative": lambda raw: dict(raw, timestamp=-1.0),
    "value-negative": lambda raw: dict(raw, memory_value=-0.5),
    "value-nan": lambda raw: dict(raw, memory_value=float("nan")),
    "index-unsorted": lambda raw: with_vector(raw, index=raw["embedding"]["index"][::-1]),
    "index-negative": lambda raw: with_entry(raw, 0, -1),
    "index-out-of-range": lambda raw: with_entry(raw, -1, 16),
    "index-float": lambda raw: with_entry(raw, 0, 1.0),
    "index-true": lambda raw: with_entry(raw, 0, True),
    "dim-float": lambda raw: with_vector(raw, dim=16.0),
    "value-int": lambda raw: with_vector(raw, value=[1] + raw["embedding"]["value"][1:]),
    "value-int-zero": lambda raw: with_vector(
        raw, value=[0 if x == 0.0 else x for x in raw["embedding"]["value"]]),
    "value-short": lambda raw: with_vector(raw, value=raw["embedding"]["value"][1:]),
    "vector-string": lambda raw: dict(raw, embedding="[0.0, 1.0]"),
    "symptoms-string": lambda raw: dict(raw, symptoms="pod crashlooping"),
    "context-ints": lambda raw: dict(raw, context=[1, 2]),
    "norm": lambda raw: with_vector(raw, value=[2.0 * x for x in raw["embedding"]["value"]]),
    "no-counts": lambda raw: {k: v for k, v in raw.items() if k not in ("trials", "successes")},
    "no-outcome": lambda raw: {k: v for k, v in raw.items() if k != "outcome"},
    "dense": lambda raw: dict(raw, embedding=dense_list(raw["embedding"])),
    "list": lambda raw: [raw],
}
VALID_EDITS = ("dense", "negative-zero", "no-counts", "none", "trials-huge")
# an id a load rejects, and a check Episode.validate fails, for one line
ID_EDITS = ("id-empty", "id-evicted", "id-held", "id-repeated")
CHECK_EDITS = ("norm", "successes-over-trials", "timestamp-negative", "value-nan",
               "value-negative")


def load_outcome(path):
    """The loaded state of a fresh pool_with_evicted(), or the type and
    message of the load's error after checking that it left the pool as it was."""
    pool = pool_with_evicted()
    before = pool_state(pool)
    try:
        pool.load_episodes(str(path))
    except (SchemaViolation, DuplicateId) as exc:
        assert pool_state(pool) == before
        return type(exc), str(exc)
    return pool_state(pool)


def assert_load_matches_the_reference(path):
    """``load_episodes`` on ``path`` accepts the file iff the reference
    insert loop does, in its state."""
    got = load_outcome(path)
    reference = pool_with_evicted()
    if isinstance(got, tuple):
        with pytest.raises((ValueError, KeyError, TypeError, InvalidArgument, DuplicateId)):
            load_line_by_line(reference, path)
    else:
        load_line_by_line(reference, path)
        assert got == pool_state(reference)


def edited(raw, edit):
    """``raw`` edited by ``edit``, one LINE_EDITS name or several joined by "+"."""
    for name in edit.split("+"):
        raw = LINE_EDITS[name](raw)
    return raw


def with_sparse_lists(raw):
    """A saved line with its vector in the sparse-list form of older stores."""
    return dict(raw, embedding=sparse_lists(raw["embedding"]))


def write_edited(path, vectors, edits, newline="\n", blank=""):
    """A store of ``vectors`` in the sparse-list form, whose line ``i`` is
    edited by ``edits[i]``, a blank line of ``blank`` before the second line
    when it is not empty."""
    pool_of_vectors(vectors, 16).save_episodes(str(path))
    lines = [json.dumps(edited(with_sparse_lists(json.loads(line)), edits.get(i, "none")))
             for i, line in enumerate(path.read_text().splitlines())]
    if blank:
        lines.insert(1, blank)
    path.write_bytes("".join(line + newline for line in lines).encode())


def negative_zero_vectors(n, dim=16):
    """``n`` unit vectors, each with two ``-0.0`` entries and one ``+0.0``."""
    out = []
    for i in range(n):
        v = np.sin(np.arange(dim) + i)
        v[[i, dim - 1 - i]] = -0.0
        v[[2 * i + 1]] = 0.0
        out.append(v / np.linalg.norm(v))
    return out


def single_edit_file(edit, at):
    """``write_edited``'s arguments for four lines, line ``at`` edited by
    ``edit``; with the last line edited, a blank line follows the first and
    every line ends in CRLF."""
    return negative_zero_vectors(4), {at: edit}, *(("\n", "") if at == 0 else ("\r\n", " \t"))


def seeded_file(seed):
    """``write_edited``'s arguments for two to four lines with two edits,
    drawn from ``seed``: vectors with ``+0.0`` and ``-0.0`` entries, the
    edits, the line ending and the blank line.  A quarter of the files edit
    one line twice, from ID_EDITS and CHECK_EDITS, so that which of a line's
    checks runs first shows; the rest edit two lines, each edit drawn from
    VALID_EDITS half the time, so that about a third of them load."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    vectors = []
    for _ in range(n):
        v = rng.standard_normal(16)
        v[rng.random(16) < 0.3] = 0.0
        v[rng.random(16) < 0.2] = -0.0
        vectors.append(v / np.linalg.norm(v))
    if rng.random() < 0.25:
        edits = {int(rng.integers(n)): f"{rng.choice(ID_EDITS)}+{rng.choice(CHECK_EDITS)}"}
    else:
        edits = {int(at): str(rng.choice(VALID_EDITS if rng.random() < 0.5 else sorted(LINE_EDITS)))
                 for at in rng.choice(n, 2, replace=False)}
    return vectors, edits, ("\n", "\r\n")[int(rng.integers(2))], ("", " ")[int(rng.integers(2))]


def pinned_files():
    """name -> ``write_edited``'s arguments for every file whose load outcome
    ``PINNED`` records: each edit on the first and on the last line, and 400
    seeded files."""
    files = {f"{edit}@{at}": single_edit_file(edit, at)
             for edit in sorted(LINE_EDITS) for at in (0, 3)}
    files.update((f"seed-{seed:03d}", seeded_file(seed)) for seed in range(400))
    return files


def pinned_outcome(path):
    """A load of ``path`` as ``PINNED`` records it: the error's type name
    and message, or digests of the loaded state.  ``state`` leaves out the
    index's zero entries, which add exact zeros to every bound; ``index``
    is the index as it is."""
    got = load_outcome(path)
    if isinstance(got, tuple):
        return [got[0].__name__, got[1]]
    n, row, col, val = got["index"]
    row, col, val = (np.frombuffer(b, t) for b, t in ((row, np.intp), (col, np.intp),
                                                      (val, np.float64)))
    kept = val != 0.0
    state = dict(got, index=(n, row[kept].tobytes(), col[kept].tobytes(), val[kept].tobytes()),
                 tombstones=sorted(got["tombstones"]))
    return {"state": hashlib.sha256(repr(state).encode()).hexdigest(),
            "index": hashlib.sha256(repr(got["index"]).encode()).hexdigest()}


# The outcome of loading each of pinned_files(), recorded from the loader
# that read a failing file again a line at a time, before loads had one
# path.  It pins the type and message of every error and the loaded state;
# rewriting it from the current loader would pin nothing.  The files are in
# the sparse-list form, so it pins how older stores load.
PINNED = json.loads((Path(__file__).parent / "data" / "load_outcomes.json").read_text())


def assert_pinned(name, path, edits):
    """``load_episodes`` on ``path``, written with ``edits``, has the outcome
    ``PINNED`` records.  A dense line's index row lists its ``-0.0`` entries
    now, as a sparse line's did, so a file holding one differs in those alone."""
    got, want = pinned_outcome(path), PINNED[name]
    if isinstance(want, dict) and "dense" in edits.values():
        got, want = got["state"], want["state"]
    assert got == want


@pytest.mark.parametrize("at", [0, 3])
@pytest.mark.parametrize("edit", sorted(LINE_EDITS))
def test_column_load_equals_the_line_loop_and_the_reference(tmp_path, edit, at):
    path = tmp_path / "episodes.jsonl"
    write_edited(path, *single_edit_file(edit, at))
    assert_pinned(f"{edit}@{at}", path, {at: edit})
    assert_load_matches_the_reference(path)


def test_loads_of_seeded_files_give_the_pinned_outcomes(tmp_path):
    files = pinned_files()
    assert sorted(files) == sorted(PINNED)
    for name, args in files.items():
        if name.startswith("seed-"):
            path = tmp_path / f"{name}.jsonl"
            write_edited(path, *args)
            assert_pinned(name, path, args[1])
            assert_load_matches_the_reference(path)


@given(vectors=st.lists(unit_vectors_with_zeros(), min_size=1, max_size=4),
       edits=st.dictionaries(st.integers(0, 3), st.sampled_from(sorted(LINE_EDITS)), max_size=2),
       newline=st.sampled_from(["\n", "\r\n"]), blank=st.sampled_from(["", " "]))
def test_column_load_equals_the_line_loop_on_drawn_files(tmp_path_factory, vectors, edits,
                                                         newline, blank):
    path = tmp_path_factory.mktemp("load") / "episodes.jsonl"
    write_edited(path, vectors, edits, newline, blank)
    assert_load_matches_the_reference(path)


def hashing_store(path, n=150):
    """A store of ``n`` episodes of distinct 2048-dim hashing embeddings."""
    emb = HashingEmbedder(MemoryConfig().embedding_dim)
    pool = MemoryPool(MemoryConfig())
    for i in range(n):
        text = f"pod-{i} oomkilled on node-{i % 7} cache-worker-{i % 11} restarts"
        pool.insert_episode(mk_episode(f"ep-{i:06d}", emb.embed(text), ts=NOW + i))
    pool.save_episodes(str(path))


def test_part_entries_that_would_join_into_whole_ones_name_their_line(tmp_path):
    # each line must hold whole entries, though these two lines' hex, joined
    # over the file, decodes
    path = tmp_path / "episodes.jsonl"
    pool_of_vectors(negative_zero_vectors(4), 16).save_episodes(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    first, second = lines[0]["embedding"], lines[1]["embedding"]
    first["index"] += second["index"][:4]
    first["value"] += second["value"][:8]
    second["index"], second["value"] = second["index"][4:], second["value"][8:]
    write_lines(path, map(json.dumps, lines))
    with pytest.raises(SchemaViolation, match="^line 1: .*not 8 and 16 per entry"):
        small_pool(16).load_episodes(str(path))


# each stored form of a packed vector
FORMS = {"packed": lambda v: v, "lists": sparse_lists, "dense": lambda v: dense_list(sparse_lists(v))}


def in_forms(source, path, *forms):
    """``source``, an episode file, written to ``path`` with the vector of
    its line ``i`` in the form ``forms[i % len(forms)]``."""
    lines = [json.loads(line) for line in source.read_text().splitlines()]
    write_lines(path, [json.dumps(dict(raw, embedding=FORMS[forms[i % len(forms)]](
        raw["embedding"])), sort_keys=True) for i, raw in enumerate(lines)])


def test_a_load_builds_no_dense_embedding_until_one_is_read(tmp_path):
    # 150 dense 2048-float arrays alone would retain 2.4 MB; the vectors of
    # an older store are turned packed as they are decoded
    source = tmp_path / "source.jsonl"
    hashing_store(source)
    reference = MemoryPool(MemoryConfig())
    load_line_by_line(reference, source)
    for form in FORMS:
        path = tmp_path / f"{form}.jsonl"
        in_forms(source, path, form)
        pool = MemoryPool(MemoryConfig())
        tracemalloc.start()
        try:
            assert pool.load_episodes(str(path)) == 150
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 2 ** 20
        ep = pool.episode("ep-000042")
        first, second = ep.embedding, ep.embedding
        assert first is not second  # each read builds a fresh array, which nothing keeps
        assert first.tobytes() == second.tobytes()
        assert first.tobytes() == reference.episode("ep-000042").embedding.tobytes()
        assert not any(dense_embeddings(e, 2048) for e in pool.episodes.values())


@pytest.mark.parametrize("text", ["", "\n \r\n\t\n"], ids=["empty", "blank"])
def test_an_empty_or_blank_file_loads_no_episode_on_the_column_path(tmp_path, monkeypatch,
                                                                     rng, text):
    path = tmp_path / "episodes.jsonl"
    path.write_text(text)
    pool = stored_pool(rng)
    before = pool_state(pool)
    monkeypatch.setattr(store, "_first_bad_line", None)  # never called
    assert pool.load_episodes(str(path)) == 0
    assert pool_state(pool) == before


def repacked(vec, edit):
    """``vec``, a packed vector, with ``edit`` made to its sparse lists."""
    return packed(edit(sparse_lists(vec)))


def swapped_first_two(vec):
    index = list(vec["index"])
    index[0], index[1] = index[1], index[0]
    return dict(vec, index=index)


# name -> (edit of a packed vector, what the error says of it)
PACKED_EDITS = {
    "odd-length": (lambda v: dict(v, value=v["value"][:-1]), "not 8 and 16 per entry"),
    "part-entry": (lambda v: dict(v, index=v["index"] + "00", value=v["value"] + "0000"),
                   "not 8 and 16 per entry"),
    "value-not-twice-index": (lambda v: dict(v, value=v["value"][:-16]),
                              "not 8 and 16 per entry"),
    "non-hex": (lambda v: dict(v, index="0g" + v["index"][2:]), "index '0g.* is not plain hex"),
    # fromhex skips whitespace, so each would decode to one whole entry less
    "index-whitespace": (lambda v: dict(v, index=v["index"][:-8] + " " * 8), "is not plain hex"),
    "value-whitespace": (lambda v: dict(v, value="\n" * 16 + v["value"][16:]), "is not plain hex"),
    "index-negative": (lambda v: repacked(v, lambda s: dict(s, index=[-1] + s["index"][1:])),
                       r"index -1 not an increasing int in \[0, 16\)"),
    "index-out-of-range": (lambda v: repacked(v, lambda s: dict(s, index=s["index"][:-1] + [16])),
                           r"index 16 not an increasing int in \[0, 16\)"),
    "index-unsorted": (lambda v: repacked(v, swapped_first_two), "not an increasing int"),
    "index-repeated": (lambda v: repacked(v, lambda s: dict(s, index=s["index"][:1] + s["index"][:-1])),
                       "not an increasing int"),
    "dim-mismatch": (lambda v: dict(v, dim=32), "vector dim 32 != 16"),
    "norm": (lambda v: repacked(v, lambda s: dict(s, value=[2.0 * x for x in s["value"]])),
             "norm 2.0"),
    "index-number": (lambda v: dict(v, index=7), "must be hex strings"),
    "value-number": (lambda v: dict(v, value=0.5), "must be hex strings"),
}


@pytest.mark.parametrize("at", [0, 3])
@pytest.mark.parametrize("case", sorted(PACKED_EDITS))
def test_a_bad_packed_vector_is_a_schema_violation_naming_its_line(tmp_path, case, at):
    edit, says = PACKED_EDITS[case]
    pool = pool_of_vectors(negative_zero_vectors(4), 16)
    memory, snapshot = tmp_path / "episodes.jsonl", tmp_path / "patterns.json"
    pool.save_episodes(str(memory))
    pool.save_pattern_snapshot(str(snapshot))
    lines = [json.loads(line) for line in memory.read_text().splitlines()]
    lines[at]["embedding"] = edit(lines[at]["embedding"])
    write_lines(memory, map(json.dumps, lines))
    data = json.loads(snapshot.read_text())
    data["patterns"][at]["centroid"] = edit(data["patterns"][at]["centroid"])
    snapshot.write_text(json.dumps(data))
    fresh = small_pool(16)
    with pytest.raises(SchemaViolation, match=f"^line {at + 1}: .*{says}"):
        fresh.load_episodes(str(memory))
    with pytest.raises(SchemaViolation, match=f"^bad pattern snapshot: .*{says}"):
        fresh.load_pattern_snapshot(str(snapshot))
    assert fresh.episodes == {} and fresh.patterns == {}
    assert_load_matches_the_reference(memory)


def negative_zero_store(path):
    pool_of_vectors(negative_zero_vectors(4), 16).save_episodes(str(path))
    return 16


def hashing_store_dim(path):
    hashing_store(path)
    return MemoryConfig().embedding_dim


@pytest.mark.parametrize("build", [negative_zero_store, hashing_store_dim],
                         ids=["negative-zero", "hashing-150"])
def test_every_form_loads_to_the_packed_state_and_saves_packed(tmp_path, build):
    # the older forms, alone and mixed line by line, load to the state a
    # packed store loads to, index bytes included, and save back packed
    source, path, saved = (tmp_path / f"{name}.jsonl" for name in ("source", "in", "out"))
    dim = build(source)
    states = []
    for forms in (["packed"], ["lists"], ["dense"], ["lists", "packed", "dense"]):
        in_forms(source, path, *forms)
        pool = small_pool(dim)
        assert pool.load_episodes(str(path)) == len(source.read_text().splitlines())
        pool.save_episodes(str(saved))
        assert saved.read_bytes() == source.read_bytes()
        states.append(pool_state(pool))
    assert all(state == states[0] for state in states)


@pytest.mark.parametrize("module", ["kubediag.store", "kubediag.memory"])
def test_either_module_imports_first_in_a_fresh_interpreter(tmp_path, module):
    # an import cycle between the pool and its file formats would show only
    # in the interpreter that imports one of them first; the save and load
    # then reach the formats from the pool
    path = str(tmp_path / "episodes.jsonl")
    code = (f"import {module}\n"
            "from kubediag.memory import MemoryPool\n"
            f"MemoryPool().save_episodes({path!r})\n"
            f"assert MemoryPool().load_episodes({path!r}) == 0\n")
    src = str(Path(memory_mod.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)

def test_a_loaded_store_saves_back_byte_for_byte(tmp_path):
    first, second, dense = (tmp_path / f"{name}.jsonl" for name in ("first", "second", "dense"))
    pool_of_vectors(negative_zero_vectors(4), 16).save_episodes(str(first))
    lines = first.read_text().splitlines()
    stored = [x for line in lines for x in sparse_lists(json.loads(line)["embedding"])["value"]]
    assert [math.copysign(1.0, x) for x in stored if x == 0.0] == [-1.0] * 8
    # a line written elsewhere may list a +0.0 entry; a save of the dense
    # array drops it, and so must a save of the loaded episode
    extra = json.loads(lines[0])
    extra["id"] = "ep-000004"
    entries = sparse_lists(extra["embedding"])
    assert entries["index"][:2] == [0, 2]  # index 1 holds +0.0, so it is not stored
    entries["index"].insert(1, 1)
    entries["value"].insert(1, 0.0)
    extra["embedding"] = packed(entries)
    first.write_text("\n".join(lines + [json.dumps(extra, sort_keys=True)]) + "\n")
    pool, built = small_pool(16), small_pool(16)
    pool.load_episodes(str(first))
    assert not any(dense_embeddings(ep, 16) for ep in pool.episodes.values())
    pool.save_episodes(str(second))
    for ep in pool.episodes.values():
        # each vector made afresh from the dense array it reads as
        built.insert_episode(dataclasses.replace(ep, vector=SparseVector.of(ep.embedding)))
    built.save_episodes(str(dense))
    assert second.read_bytes() == dense.read_bytes()
    assert second.read_text().splitlines() == lines + [
        lines[0].replace('"ep-000000"', '"ep-000004"')]


# ---------------------------------------------------------------------------
# index consistency under interleaving


def test_retrieval_matches_oracle_after_interleaving(rng):
    pool = small_pool(16)
    n = 0
    for round_ in range(6):
        base = rand_unit(rng, 16)
        for _ in range(4):
            pool.insert_episode(mk_episode(f"e{n:03d}", jitter_unit(rng, base, 0.06)))
            n += 1
        pool.form_patterns(now=NOW)
        victim = f"e{rng.integers(0, n):03d}"
        if victim in pool.episodes:
            pool.update_outcome(victim, Outcome.FAILURE, success=False)
        q = mk_query(rand_unit(rng, 16))
        got = pool.retrieve(q, W1, NOW)
        want = scan_oracle(pool, q, W1, NOW, pool.config.retrieval_k)
        assert [(m.ref, m.kind) for m in got.memories] == [(r[0], r[1]) for r in want]


def test_make_query_embeds_symptoms():
    emb = HashingEmbedder(64)
    q = make_query(emb, ["pod oom", "cache worker"], context={"ns:a"})
    assert q.context == {"ns:a"}
    assert abs(float(np.linalg.norm(q.embedding)) - 1.0) < 1e-6
