import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from helpers import DAY, NOW, jitter_unit, mk_episode, mk_query, rand_unit, small_pool, unit
from kubediag import memory as memory_mod
from kubediag.embedding import HashingEmbedder
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
    assert pat.member_count == 3
    np.testing.assert_allclose(pat.centroid, v, atol=1e-9)
    assert pat.reliability == pytest.approx(2 / 3)
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
        pid: (p.member_ids, tuple(p.centroid), p.reliability)
        for pid, p in pool.patterns.items()
    }
    assert pool.form_patterns(now=NOW) == []
    again = {
        pid: (p.member_ids, tuple(p.centroid), p.reliability)
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
    for pat in pool.patterns.values():
        seed_vec = pool.episode(pat.seed_id).embedding
        for mid in pat.member_ids:
            cos = float(seed_vec @ pool.episode(mid).embedding)
            assert cos > pool.config.pattern_sim_threshold


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
        pid: (sorted(p.member_ids), p.seed_id, p.centroid.tolist(),
              p.source_episode_id, p.reliability)
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
    assert pool.patterns[pid].reliability == pytest.approx(1.0)
    pool.update_outcome("e1", Outcome.FAILURE, success=False)
    # recount oracle: member outcomes are now S, F, S
    want = sum(pool.episode(e).outcome is Outcome.SUCCESS for e in pool.patterns[pid].member_ids) / 3
    assert pool.patterns[pid].reliability == pytest.approx(want)
    assert want == pytest.approx(2 / 3)


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
        assert other.reliability == pytest.approx(pat.reliability)
        np.testing.assert_allclose(other.centroid, pat.centroid, atol=1e-12)
    data = json.loads(path.read_text())
    # the snapshot records every field of the producing configuration
    assert set(data["config"]) == {f.name for f in dataclasses.fields(MemoryConfig)}


def test_pattern_snapshot_ignores_retired_keys(tmp_path, rng):
    # snapshots written before the exact scan carry per-pattern ``spread`` and
    # the old index bounds; they still load, and the extra keys are dropped
    pool = small_pool(16)
    base = rand_unit(rng, 16)
    for i in range(4):
        pool.insert_episode(mk_episode(f"e{i}", jitter_unit(rng, base, 0.05)))
    pool.form_patterns(now=NOW)
    path = tmp_path / "patterns.json"
    pool.save_pattern_snapshot(str(path))
    data = json.loads(path.read_text())
    for raw in data["patterns"]:
        raw["spread"] = [0.0] * 16
        raw["max_member_angle"] = 0.25
        raw["max_member_ts"] = raw["last_updated"]
    data["config"]["index_probe_patterns"] = 8
    path.write_text(json.dumps(data))
    fresh = small_pool(16)
    for i in range(4):
        fresh.insert_episode(mk_episode(f"e{i}", pool.episode(f"e{i}").embedding))
    assert fresh.load_pattern_snapshot(str(path)) == len(pool.patterns)
    q = mk_query(base)
    assert [(m.ref, m.score) for m in fresh.retrieve(q, W1, NOW).memories] == [
        (m.ref, m.score) for m in pool.retrieve(q, W1, NOW).memories
    ]


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
            reliability=1.0,
            member_count=1,
            member_ids={f"ep-{i:06d}"},
            last_updated=NOW,
            seed_id=f"ep-{i:06d}",
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
    assert stored == {"dim": 16, "index": [3, 7, 11], "value": [0.6, -0.0, -0.8]}
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


def densify(path, key):
    """Rewrite a store's vectors as the dense lists of the older format."""
    def dense(vec):
        out = [0.0] * vec["dim"]
        for i, x in zip(vec["index"], vec["value"]):
            out[i] = x
        return out

    if key == "embedding":
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        for raw in lines:
            raw[key] = dense(raw[key])
        path.write_text("".join(json.dumps(raw, sort_keys=True) + "\n" for raw in lines))
    else:
        data = json.loads(path.read_text())
        for raw in data["patterns"]:
            raw[key] = dense(raw[key])
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
    assert all(isinstance(json.loads(line)["embedding"], dict)
               for line in memory.read_text().splitlines())
    assert all(isinstance(raw["centroid"], dict)
               for raw in json.loads(snapshot.read_text())["patterns"])


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
    lines[0]["embedding"] = BAD_VECTORS[case](lines[0]["embedding"])
    memory.write_text("".join(json.dumps(raw) + "\n" for raw in lines))
    data = json.loads(snapshot.read_text())
    data["patterns"][-1]["centroid"] = BAD_VECTORS[case](data["patterns"][-1]["centroid"])
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
