import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import NOW, jitter_unit, mk_episode, mk_query, rand_unit, small_pool
from kubediag.controller import (
    ControllerState,
    MetaController,
    OptParams,
    Pathway,
    SessionRecord,
    calibration_loss,
    coverage,
    mean_calibration_loss,
    replay_loss,
)
from kubediag.errors import EmptyHistory, SchemaViolation
from kubediag.memory import (
    Query,
    RetrievalResult,
    ScoredMemory,
    compute_factors,
    confidence_value,
)

W1 = (1.0, 1.0, 1.0, 1.0)


def hit(conf, ref="m1", tokens=()):
    return ScoredMemory(
        ref=ref,
        kind="episode",
        score=conf,
        confidence=conf,
        factors=(conf, 1.0, 1.0, 1.0),
        symptom_tokens=frozenset(tokens),
    )


def result(*confs, tokens=()):
    cards = [hit(c, ref=f"m{i}", tokens=tokens) for i, c in enumerate(confs)]
    return RetrievalResult(
        memories=cards, c_max=max(confs, default=0.0), psi=0.5, novelty=0.5, complexity=0.5
    )


def rec(c_max, fast_sufficient, factors=(0.8, 0.9, 0.7, 1.0)):
    return SessionRecord(c_max=c_max, factors=factors, fast_sufficient=fast_sufficient)


def controller_with(records, tau=0.75, weights=W1):
    c = MetaController(ControllerState(tau=tau, factor_weights=weights))
    for r in records:
        c.record(r)
    return c


# ---------------------------------------------------------------------------
# aggregation (RetrievalResult.c_max) and routing


def test_aggregate_is_max_confidence(rng):
    pool = small_pool(16)
    base = rand_unit(rng, 16)
    for i in range(6):
        pool.insert_episode(mk_episode(f"e{i}", jitter_unit(rng, base, 0.3), context={f"c{i % 2}"}))
    r = pool.retrieve(mk_query(base, context=["c0"]), W1, NOW, k=3)
    assert len({m.confidence for m in r.memories}) > 1
    assert r.c_max == max(m.confidence for m in r.memories)


def test_aggregate_empty_pool():
    assert small_pool(16).retrieve(mk_query(rand_unit(np.random.default_rng(0), 16)),
                                   W1, NOW).c_max == 0.0


def test_aggregate_matches_linear_scan(rng):
    pool = small_pool(16)
    for i in range(40):
        pool.insert_episode(mk_episode(f"e{i:02d}", rand_unit(rng, 16), trials=i % 3,
                                       successes=min(i % 2, i % 3)))
    q = mk_query(rand_unit(rng, 16))
    want = max(confidence_value(compute_factors(ep, q, NOW, pool.config), W1)
               for ep in pool.episodes.values())
    assert pool.retrieve(q, W1, NOW, k=40).c_max == want


def test_route_above_threshold_goes_intuitive():
    d = MetaController().route(0.8)
    assert d.pathway is Pathway.INTUITIVE
    assert d.tau_snapshot == 0.75


def test_route_at_threshold_goes_analytical():
    # strict inequality: equality is not enough evidence for the fast path
    d = MetaController().route(0.75)
    assert d.pathway is Pathway.ANALYTICAL


def test_route_zero_confidence():
    assert MetaController().route(0.0).pathway is Pathway.ANALYTICAL


def test_route_default_signal_mirrors_c_max():
    d = MetaController().route(0.9)
    assert (d.c_max, d.coverage) == (0.9, 0.0)


def test_route_keeps_explicit_signal():
    assert MetaController().route(0.9, 0.75).coverage == 0.75


# ---------------------------------------------------------------------------
# meta signal: the share of query tokens the retrieval covers


def q_of(*symptoms):
    return Query(symptoms=list(symptoms), context=[], embedding=np.zeros(4))


def test_meta_signal_empty_retrieval():
    assert coverage(result(), q_of("pod oomkilled")) == 0.0


def test_meta_signal_query_without_tokens():
    assert coverage(result(0.7, tokens=("pod",)), q_of("")) == 0.0


def test_meta_signal_singleton():
    assert coverage(result(0.7, tokens=("pod", "oomkilled")), q_of("pod oomkilled")) == 1.0


def test_meta_signal_without_shared_tokens():
    assert coverage(result(0.4, 0.8), q_of("x")) == 0.0


def test_meta_signal_partial_coverage():
    assert coverage(result(0.5, tokens=("oom",)), q_of("oom killed")) == 0.5


# ---------------------------------------------------------------------------
# replay loss


def test_replay_loss_everything_intuitive_and_right():
    hist = [rec(0.9, True) for _ in range(10)]
    assert replay_loss(0.0, hist, OptParams()) == pytest.approx(0.04)


def test_replay_loss_everything_analytical():
    hist = [rec(0.9, True) for _ in range(10)]
    assert replay_loss(1.0, hist, OptParams()) == pytest.approx(0.4)


def test_replay_loss_hand_mixture():
    hist = [rec(0.9, False), rec(0.8, True), rec(0.5, True), rec(0.3, False)]
    # tau 0.6: two intuitive (one wrong), two analytical
    # error 1/4; latency (1 + 1 + 10 + 10)/4/10 = 0.55
    want = 0.6 * 0.25 + 0.4 * 0.55
    assert replay_loss(0.6, hist, OptParams()) == pytest.approx(want, abs=1e-12)


def test_replay_loss_empty_history():
    with pytest.raises(EmptyHistory):
        replay_loss(0.5, [], OptParams())


@given(
    taus=st.lists(st.floats(0, 1), min_size=1, max_size=5),
    confs=st.lists(st.floats(0, 1), min_size=1, max_size=30),
    flags=st.lists(st.booleans(), min_size=30, max_size=30),
)
def test_replay_loss_bounded(taus, confs, flags):
    hist = [rec(c, f) for c, f in zip(confs, flags)]
    for tau in taus:
        assert 0.0 <= replay_loss(tau, hist, OptParams()) <= 1.0


def test_replay_loss_error_term_vanishes_when_all_sufficient():
    hist = [rec(c / 10, True) for c in range(1, 11)]
    opt = OptParams()
    for tau in (0.0, 0.35, 0.8):
        loss = replay_loss(tau, hist, opt)
        intuitive = sum(1 for r in hist if r.c_max > tau)
        latency = (intuitive * 1.0 + (10 - intuitive) * opt.analytic_cost) / 10
        assert loss == pytest.approx((1 - opt.xi) * latency / opt.analytic_cost)


# ---------------------------------------------------------------------------
# threshold adaptation


def spread_history(flag):
    # c_max on a fine grid so the probe window always straddles records
    return [rec(i / 100, flag) for i in range(1, 101)]


def test_adapt_noop_below_min_history():
    c = controller_with([rec(0.9, False)] * 9)
    assert c.adapt_threshold() == (0.75, 0.75)
    assert c.state.tau == 0.75


def test_adapt_raises_tau_when_fast_path_keeps_failing():
    c = controller_with(spread_history(False))
    before, after = c.adapt_threshold()
    assert after > before
    assert c.state.tau == after


def test_adapt_lowers_tau_when_fast_path_always_works():
    c = controller_with(spread_history(True))
    before, after = c.adapt_threshold()
    assert after < before


def test_adapt_stays_clamped():
    c = controller_with(spread_history(False), tau=1.0)
    for _ in range(200):
        c.adapt_threshold()
        assert 0.0 <= c.state.tau <= 1.0
    c = controller_with(spread_history(True), tau=0.0)
    for _ in range(200):
        c.adapt_threshold()
        assert 0.0 <= c.state.tau <= 1.0


def test_adapt_converges_toward_replay_optimum():
    # fast path is trustworthy exactly above 0.6
    hist = [rec(i / 200, i / 200 > 0.6) for i in range(1, 201)]
    c = controller_with(hist)
    for _ in range(500):
        c.adapt_threshold()
    assert abs(c.state.tau - 0.6) <= 0.05


# ---------------------------------------------------------------------------
# calibration


def test_calibration_loss_coin_flip():
    assert calibration_loss(0.5, True) == pytest.approx(math.log(2))
    assert calibration_loss(0.5, False) == pytest.approx(math.log(2))


def test_calibration_loss_confident_and_right():
    assert calibration_loss(0.9, True) == pytest.approx(-math.log(0.9))


def test_calibration_loss_confident_and_wrong():
    assert calibration_loss(0.9, False) == pytest.approx(2.302585092994046, abs=1e-9)


def test_calibration_loss_clamps_extremes():
    assert calibration_loss(0.0, True) == pytest.approx(-math.log(1e-7))
    assert calibration_loss(1.0, True) < 1e-6
    assert calibration_loss(1.0, False) == pytest.approx(-math.log(1e-7))


@given(c=st.floats(0, 1), y=st.booleans())
def test_calibration_loss_nonnegative(c, y):
    assert calibration_loss(c, y) >= 0.0


def test_mean_calibration_loss_empty():
    with pytest.raises(EmptyHistory):
        mean_calibration_loss([], W1)


# ---------------------------------------------------------------------------
# factor-weight learning


def test_update_weights_noop_below_min_history():
    c = controller_with([rec(0.9, True, factors=(0.9, 1, 1, 1))] * 9)
    before, after = c.update_factor_weights()
    assert before == after == W1


def test_update_weights_moves_informative_factor():
    # similarity factor separates outcomes; others carry no signal
    hist = [rec(0.9, True, factors=(0.9, 1.0, 1.0, 1.0)) for _ in range(10)]
    hist += [rec(0.2, False, factors=(0.2, 1.0, 1.0, 1.0)) for _ in range(10)]
    c = controller_with(hist)
    before, after = c.update_factor_weights()
    assert after[0] > before[0]
    assert after[1:] == before[1:]  # log(1.0) factors contribute zero gradient
    assert c.state.factor_weights == after


def test_update_weights_stationary_point():
    # identical factors, balanced outcomes: residuals cancel exactly
    hist = [rec(0.5, i % 2 == 0, factors=(0.5, 1, 1, 1)) for i in range(10)]
    c = controller_with(hist)
    before, after = c.update_factor_weights()
    assert after == before


def test_update_weights_never_negative():
    hist = [rec(0.9, False, factors=(0.9, 0.9, 0.9, 0.9)) for _ in range(20)]
    c = controller_with(hist)
    for _ in range(500):
        c.update_factor_weights()
        assert all(w >= 0.0 for w in c.state.factor_weights)


def test_update_weights_reduces_calibration_loss(rng):
    hist = []
    for _ in range(100):
        good = rng.random() < 0.5
        f_sim = float(rng.uniform(0.7, 1.0) if good else rng.uniform(0.05, 0.4))
        f_rest = rng.uniform(0.5, 1.0, size=3)
        factors = (f_sim, float(f_rest[0]), float(f_rest[1]), float(f_rest[2]))
        hist.append(rec(f_sim, good, factors=factors))
    c = controller_with(hist)
    before_loss = mean_calibration_loss(hist, c.state.factor_weights)
    for _ in range(100):
        c.update_factor_weights()
    after_loss = mean_calibration_loss(hist, c.state.factor_weights)
    assert after_loss < before_loss


# ---------------------------------------------------------------------------
# state management


def test_history_is_bounded_fifo():
    c = MetaController()
    for i in range(1005):
        c.record(rec(i / 2000, True))
    assert len(c.state.history) == 1000
    assert c.state.history[0].c_max == pytest.approx(5 / 2000)


RECORD_KEYS = ["c_max", "factors", "fast_sufficient"]


def assert_same_state(got, want):
    assert got.state.tau == want.state.tau
    assert got.state.factor_weights == want.state.factor_weights
    assert got.state.opt == want.state.opt
    assert list(got.state.history) == list(want.state.history)


def test_session_record_has_three_fields():
    assert [f.name for f in dataclasses.fields(SessionRecord)] == RECORD_KEYS


def test_save_load_roundtrip(tmp_path, rng):
    hist = [rec(float(rng.uniform(0, 1)), bool(rng.random() < 0.5),
                factors=tuple(float(f) for f in rng.uniform(0, 1, size=4)))
            for _ in range(30)]
    c = controller_with(hist, tau=0.6, weights=(1.2, 0.8, 1.0, 0.5))
    c.adapt_threshold()
    path = tmp_path / "controller.json"
    c.save(str(path))
    assert [sorted(r) for r in json.loads(path.read_text())["history"]] == [RECORD_KEYS] * 30
    assert_same_state(MetaController.load(str(path)), c)


def test_load_reads_seven_key_records_and_resaves_three(tmp_path):
    path = tmp_path / "controller.json"
    path.write_text(json.dumps({
        "tau": 0.7,
        "factor_weights": [1.1, 0.9, 1.0, 0.4],
        "opt_params": {"eta_meta": 0.02, "xi": 0.5, "delta_probe": 0.01,
                       "analytic_cost": 8.0, "weight_lr": 0.1},
        "history": [
            {"query_id": "q1", "c_max": 0.8125, "factors": [0.9, 0.5, 0.75, 1.0],
             "pathway": "intuitive", "fast_sufficient": True, "latency_units": 1.0,
             "outcome": "success"},
            {"query_id": "q2", "c_max": 0.25, "factors": [0.3, 1, 0.5, 0.0],
             "pathway": "analytical", "fast_sufficient": False, "latency_units": 8.0,
             "outcome": "failure"},
        ],
    }))
    c = MetaController.load(str(path))
    assert c.state.tau == 0.7
    assert c.state.factor_weights == (1.1, 0.9, 1.0, 0.4)
    assert c.state.opt == OptParams(0.02, 0.5, 0.01, 8.0, 0.1)
    assert list(c.state.history) == [rec(0.8125, True, factors=(0.9, 0.5, 0.75, 1.0)),
                                     rec(0.25, False, factors=(0.3, 1.0, 0.5, 0.0))]
    c.save(str(path))
    assert [sorted(r) for r in json.loads(path.read_text())["history"]] == [RECORD_KEYS] * 2
    assert_same_state(MetaController.load(str(path)), c)


def test_load_rejects_corrupt_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"tau": "not-a-number"}')
    with pytest.raises(SchemaViolation):
        MetaController.load(str(path))


@pytest.mark.parametrize("bad", [
    {"factors": [0.9, 0.5, 0.75]},
    {"factors": [0.9, float("nan"), 0.75, 1.0]},
    {"fast_sufficient": "false"},
    {"c_max": None},
], ids=["three-factors", "nan-factor", "string-fast-sufficient", "missing-c-max"])
def test_load_rejects_corrupt_record(tmp_path, bad):
    path = tmp_path / "controller.json"
    controller_with([rec(0.5, True)] * 3).save(str(path))
    payload = json.loads(path.read_text())
    payload["history"][1].update(bad)
    payload["history"][1] = {k: v for k, v in payload["history"][1].items() if v is not None}
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaViolation):
        MetaController.load(str(path))
