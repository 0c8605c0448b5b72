import dataclasses
import json
import math
import struct
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import NOW, cosine, jitter_unit, mk_episode, mk_query, rand_unit, small_pool
from kubediag.controller import (
    MIN_HISTORY,
    ControllerState,
    MetaController,
    OptParams,
    Pathway,
    SessionRecord,
    _predicted_confidence,
    calibration_loss,
    mean_calibration_loss,
    replay_loss,
)
from kubediag.errors import EmptyHistory, InvalidArgument, SchemaViolation
from kubediag.memory import (
    _FACTOR_FLOOR,
    FACTOR_NAMES,
    compute_factors,
    confidence_value,
)

W1 = (1.0, 1.0, 1.0, 1.0)


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
    want = max(confidence_value(compute_factors(ep, cosine(ep.vector, q.embedding), q, NOW,
                                                pool.config), W1)
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
    d = MetaController(ControllerState(tau=0.6)).route(0.9)
    assert (d.pathway, d.c_max, d.tau_snapshot) == (Pathway.INTUITIVE, 0.9, 0.6)


def test_route_decision_holds_only_pathway_c_max_and_tau():
    # routing reads c_max alone; no other signal rides along on the decision
    fields = [f.name for f in dataclasses.fields(MetaController().route(0.9))]
    assert fields == ["pathway", "c_max", "tau_snapshot"]


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


def replay_loss_loop(tau_candidate, history, opt):
    """The per-record replay loop that ``replay_loss``'s counts replace."""
    n = len(history)
    errors = 0
    latency = 0.0
    for r in history:
        if r.c_max > tau_candidate:
            errors += int(not r.fast_sufficient)
            latency += 1.0
        else:
            latency += opt.analytic_cost
    return opt.xi * (errors / n) + (1.0 - opt.xi) * ((latency / n) / opt.analytic_cost)


GRID = [i / 20 for i in range(21)]


@given(
    cost=st.integers(1, 20),
    xi=st.floats(0, 1),
    records=st.lists(st.tuples(st.sampled_from(GRID) | st.floats(0, 1), st.booleans()),
                     min_size=1, max_size=1000),
    taus=st.lists(st.sampled_from(GRID) | st.floats(0, 1), min_size=1, max_size=5),
)
def test_replay_loss_counts_equal_the_loop_bit_for_bit(cost, xi, records, taus):
    # an integer analytic_cost keeps every partial latency sum an exact
    # integer; grid values make c_max == tau common
    opt = OptParams(xi=xi, analytic_cost=float(cost))
    hist = [rec(c, f) for c, f in records]
    for tau in taus + [records[0][0]]:
        got, want = replay_loss(tau, hist, opt), replay_loss_loop(tau, hist, opt)
        assert struct.pack("<d", got) == struct.pack("<d", want)


def scanning_adapt_threshold(state):
    """``adapt_threshold``'s step with the loss of a scan of the history."""
    if len(state.history) >= MIN_HISTORY:
        d = state.opt.delta_probe
        grad = (replay_loss(state.tau + d, state.history, state.opt)
                - replay_loss(state.tau - d, state.history, state.opt)) / (2.0 * d)
        state.tau = min(1.0, max(0.0, state.tau - state.opt.eta_meta * grad))
    return state.tau


TAU_GRID = [0.0, -0.0, 0.7, 0.73, 0.75, 0.77, 0.8, 1.0, math.nan]
REPLAY_RECORD = st.tuples(st.sampled_from(TAU_GRID) | st.floats(0, 1), st.booleans())


@given(
    maxlen=st.integers(MIN_HISTORY, 40) | st.none(),
    opt=st.builds(OptParams, eta_meta=st.sampled_from([0.01, 0.5, 5.0]),
                  xi=st.floats(0, 1), delta_probe=st.sampled_from([0.02, 0.03, 0.25]),
                  analytic_cost=st.sampled_from([10.0, 3.0, 2.5])),
    prefilled=st.lists(REPLAY_RECORD, max_size=50),
    arrivals=st.lists(st.lists(REPLAY_RECORD, max_size=8), min_size=1, max_size=30),
)
def test_threshold_steps_equal_the_scanning_replay(maxlen, opt, prefilled, arrivals):
    # A history handed in already filled, records arriving between steps
    # past a small maxlen, NaN c_max, and c_max equal to a probe: every tau
    # must be the scanning step's, bit for bit.
    def state():
        return ControllerState(opt=opt, history=deque(
            (rec(c, f) for c, f in prefilled), maxlen=maxlen))

    c, ref = MetaController(state()), state()
    for batch in arrivals:
        for r in batch:
            c.record(rec(*r))
            ref.history.append(rec(*r))
        assert struct.pack("<d", c.adapt_threshold()[1]) == \
            struct.pack("<d", scanning_adapt_threshold(ref))


def test_loaded_checkpoint_steps_equal_the_scanning_replay(tmp_path, rng):
    # the live controller has its replay lists; the loaded one builds them
    # at its first step, then both roll past the 1,000-record maxlen
    live = MetaController()
    for _ in range(990):
        live.record(rec(float(rng.uniform(0, 1)), bool(rng.random() < 0.6)))
    live.adapt_threshold()
    path = tmp_path / "controller.json"
    live.save(str(path))
    loaded = MetaController.load(str(path))
    ref = ControllerState(tau=live.state.tau, opt=live.state.opt,
                          history=deque(live.state.history, maxlen=1000))
    for _ in range(60):
        r = rec(float(rng.choice([rng.uniform(0, 1), ref.tau + 0.02, 0.5])),
                bool(rng.random() < 0.6))
        for c in (live, loaded):
            c.record(r)
        ref.history.append(r)
        want = struct.pack("<d", scanning_adapt_threshold(ref))
        assert struct.pack("<d", live.adapt_threshold()[1]) == want
        assert struct.pack("<d", loaded.adapt_threshold()[1]) == want
    assert len(live.state.history) == len(loaded.state.history) == 1000


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
# exactness of the fit against the loop that recomputes every record


def reference_update_factor_weights(st):
    """``MetaController.update_factor_weights`` as written before it kept
    per-record constants, copied verbatim onto a bare ``ControllerState``."""
    before = tuple(st.factor_weights)
    if len(st.history) < MIN_HISTORY:
        return before, before
    sums = [0.0] * len(FACTOR_NAMES)
    for rec in st.history:
        c = _predicted_confidence(rec.factors, st.factor_weights)
        y = 1.0 if rec.fast_sufficient else 0.0
        for j, f in enumerate(rec.factors):
            sums[j] += (c - y) * math.log(max(_FACTOR_FLOOR, min(1.0, f)))
    n = len(st.history)
    lr = st.opt.weight_lr
    st.factor_weights = tuple(
        max(0.0, w - lr * (s / n)) for w, s in zip(st.factor_weights, sums)
    )
    return before, st.factor_weights


def bits(weights):
    return struct.pack("4d", *weights)


def reference_state(c):
    """A copy of ``c``'s state whose records carry nothing the fit cached."""
    return ControllerState(
        tau=c.state.tau, factor_weights=c.state.factor_weights, opt=c.state.opt,
        history=deque((SessionRecord(r.c_max, r.factors, r.fast_sufficient)
                       for r in c.state.history), maxlen=c.state.history.maxlen),
    )


def step_both(c, ref, steps):
    for _ in range(steps):
        got = c.update_factor_weights()
        want = reference_update_factor_weights(ref)
        assert got == want
        assert bits(got[1]) == bits(want[1])


FACTOR = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-7, 1.0, -1.0, 1.5, 0.5]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-0.5, 2.0),
)
WEIGHT = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 0.5]), st.floats(0.0, 4.0))
RECORD = st.builds(
    SessionRecord,
    c_max=st.floats(0.0, 1.0),
    factors=st.tuples(FACTOR, FACTOR, FACTOR, FACTOR),
    fast_sufficient=st.booleans(),
)


@settings(max_examples=150)
@given(
    records=st.lists(RECORD, min_size=MIN_HISTORY - 2, max_size=40),
    weights=st.tuples(WEIGHT, WEIGHT, WEIGHT, WEIGHT),
    lr=st.one_of(st.just(0.05), st.floats(0.0, 2.0)),
    arrivals=st.lists(st.lists(RECORD, max_size=3), min_size=1, max_size=20),
)
def test_update_weights_equals_reference_loop(records, weights, lr, arrivals):
    # records keep arriving between steps, so each step mixes records whose
    # constants are cached with records fitted for the first time
    c = MetaController(ControllerState(factor_weights=weights, opt=OptParams(weight_lr=lr)))
    ref = reference_state(c)
    for r in records:
        c.record(r)
        ref.history.append(SessionRecord(r.c_max, r.factors, r.fast_sufficient))
    for batch in arrivals:
        for r in batch:
            c.record(r)
            ref.history.append(SessionRecord(r.c_max, r.factors, r.fast_sufficient))
        step_both(c, ref, 1)


def test_reloaded_checkpoint_fits_like_the_live_controller(tmp_path, rng):
    hist = [rec(float(rng.uniform(0, 1)), bool(rng.random() < 0.5),
                factors=tuple(float(f) for f in rng.uniform(-0.2, 1.3, size=4)))
            for _ in range(60)]
    live = controller_with(hist, weights=(1.0, 0.5, 2.0, 0.0))
    for _ in range(3):
        live.update_factor_weights()  # the live records now carry their constants
    path = tmp_path / "controller.json"
    live.save(str(path))
    assert [sorted(r) for r in json.loads(path.read_text())["history"]] == [RECORD_KEYS] * 60
    loaded = MetaController.load(str(path))
    ref = reference_state(live)
    for _ in range(10):
        got_live = live.update_factor_weights()
        got_loaded = loaded.update_factor_weights()
        want = reference_update_factor_weights(ref)
        assert bits(got_live[1]) == bits(got_loaded[1]) == bits(want[1])


def test_update_weights_exact_past_history_maxlen(rng):
    c = MetaController()
    ref = reference_state(c)
    for i in range(1030):
        r = rec(float(rng.uniform(0, 1)), bool(rng.random() < 0.5),
                factors=tuple(float(f) for f in rng.uniform(0, 1, size=4)))
        c.record(r)
        ref.history.append(SessionRecord(r.c_max, r.factors, r.fast_sufficient))
        if i in (990, 1000, 1010, 1029):  # before, at and past the 1,000-record maxlen
            step_both(c, ref, 2)
    assert len(c.state.history) == len(ref.history) == 1000


# ---------------------------------------------------------------------------
# state management


def test_history_is_bounded_fifo():
    c = MetaController()
    for i in range(1005):
        c.record(rec(i / 2000, True))
    assert len(c.state.history) == 1000
    assert c.state.history[0].c_max == pytest.approx(5 / 2000)


@pytest.mark.parametrize("n", [20, 1000], ids=["below-maxlen", "at-maxlen"])
def test_the_steps_stay_exact_after_a_direct_append(rng, n):
    # record() is the history's only writer: the state shows a read-only
    # view, and the deque the state was built with is no longer the
    # controller's, so an append to it leaves the derived state exact
    def drawn():
        return rec(float(rng.uniform(0, 1)), bool(rng.random() < 0.5),
                   factors=tuple(float(f) for f in rng.uniform(0, 1, size=4)))

    given_history = deque((drawn() for _ in range(n)), maxlen=1000)
    c = MetaController(ControllerState(history=given_history))
    c.update_factor_weights()
    c.adapt_threshold()  # the derived state is built
    extra = drawn()
    with pytest.raises(AttributeError):
        c.state.history.append(extra)
    given_history.append(extra)
    assert len(c.state.history) == n and c.state.history.maxlen == 1000
    fresh = MetaController(reference_state(c))
    for _ in range(3):
        assert bits(c.update_factor_weights()[1]) == bits(fresh.update_factor_weights()[1])
        assert struct.pack("<d", c.adapt_threshold()[1]) == \
            struct.pack("<d", fresh.adapt_threshold()[1])
        c.record(extra)
        fresh.record(extra)


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


BAD_RECORDS = {
    "nan-c-max": {"c_max": float("nan")},
    "bool-c-max": {"c_max": True},
    "string-factor": {"factors": [0.5, "1", 0.5, 0.5]},
    "inf-factor": {"factors": [0.5, float("inf"), 0.5, 0.5]},
    "five-factors": {"factors": [0.5] * 5},
    "huge-factor": {"factors": [0.5, 10 ** 400, 0.5, 0.5]},  # math.isfinite overflows
    "factors-string": {"factors": "abcd"},
    "factors-number": {"factors": 4},
    "int-fast-sufficient": {"fast_sufficient": 1},
    "not-an-object": None,
}


# the message each case of BAD_RECORDS gets when it is record 2 of 6 and
# record 4 has five factors: the columns are checked in the order c_max,
# factors, fast_sufficient, and a failing column names its first bad value
FIRST_BAD_MESSAGES = {
    "nan-c-max": "record c_max nan is not a finite number",
    "bool-c-max": "record c_max True is not a finite number",
    "string-factor": "record factors [0.5, '1', 0.5, 0.5] are not 4 finite numbers",
    "inf-factor": "record factors [0.5, inf, 0.5, 0.5] are not 4 finite numbers",
    "five-factors": "record factors [0.5, 0.5, 0.5, 0.5, 0.5] are not 4 finite numbers",
    "huge-factor": "record factors [0.5, 1000000000000000000000...000000000000000000, 0.5, 0.5]"
                   " are not 4 finite numbers",
    "factors-string": "record factors 'abcd' are not 4 finite numbers",
    "factors-number": "record factors 4 are not 4 finite numbers",
    "int-fast-sufficient": "record factors [0.5, 0.5, 0.5, 0.5, 0.5] are not 4 finite numbers",
    "not-an-object": "list indices must be integers or slices, not str",
}


@pytest.mark.parametrize("first", sorted(BAD_RECORDS))
def test_load_names_the_first_bad_record_as_the_record_reader_does(tmp_path, first):
    path = tmp_path / "controller.json"
    controller_with([rec(0.5, True)] * 6).save(str(path))
    payload = json.loads(path.read_text())
    history = payload["history"]
    for i, case in ((2, first), (4, "five-factors")):
        edit = BAD_RECORDS[case]
        history[i] = [1, 2] if edit is None else dict(history[i], **edit)
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaViolation) as got:
        MetaController.load(str(path))
    assert str(got.value) == f"bad controller checkpoint: {FIRST_BAD_MESSAGES[first]}"


def test_load_reads_records_as_the_record_reader_does(tmp_path, rng):
    path = tmp_path / "controller.json"
    controller_with([]).save(str(path))
    payload = json.loads(path.read_text())
    payload["history"] = [
        {"c_max": int(rng.integers(2)) if i % 3 == 0 else float(rng.random()),
         "factors": [int(rng.integers(2)) if (i + j) % 4 == 0 else float(rng.random())
                     for j in range(4)],
         "fast_sufficient": bool(rng.random() < 0.5)}
        for i in range(40)
    ]
    path.write_text(json.dumps(payload))
    loaded = list(MetaController.load(str(path)).state.history)
    want = [SessionRecord(float(r["c_max"]), tuple(map(float, r["factors"])), r["fast_sufficient"])
            for r in payload["history"]]
    assert loaded == want
    assert [type(x) for r in loaded for x in (r.c_max, *r.factors)] == [float] * 200


def test_records_stay_plain_through_record_and_both_steps(rng):
    c = MetaController()
    for _ in range(30):
        c.record(rec(float(rng.uniform(0, 1)), bool(rng.random() < 0.5),
                     factors=tuple(float(f) for f in rng.uniform(0, 1, size=4))))
        c.adapt_threshold()
        c.update_factor_weights()
    assert not hasattr(SessionRecord(0.5, W1, True), "__dict__")
    for r in c.state.history:
        fresh = SessionRecord(r.c_max, r.factors, r.fast_sufficient)
        assert r == fresh and type(r) is type(fresh)


@pytest.mark.parametrize("bad", [
    {"factor_weights": [float("nan"), 1.0, 1.0, 1.0]},
    {"factor_weights": [1.0, float("inf"), 1.0, 1.0]},
    {"tau": 1.5},
    {"opt_params": {"delta_probe": 0.0}},
    {"opt_params": {"analytic_cost": 0.0}},
    {"opt_params": {"xi": 1.5}},
    {"opt_params": {"eta_meta": -0.01}},
    {"opt_params": {"weight_lr": float("nan")}},
    {"opt_params": {"delta_probe": "0.02"}},
    {"tau": True},
    {"tau": "0.5"},
    {"factor_weights": [True, "1", 1, 1]},
    {"factor_weights": "1111"},
    {"factor_weights": [1.0, 1.0, 1.0]},
    {"factor_weights": [1.0] * 5},
    {"history": {}},
    {"history": ""},
], ids=["nan-weight", "inf-weight", "tau-above-one", "zero-delta-probe",
        "zero-analytic-cost", "xi-above-one", "negative-eta", "nan-weight-lr",
        "string-delta-probe", "bool-tau", "string-tau", "bool-and-string-weights",
        "string-weights", "three-weights", "five-weights", "object-history",
        "string-history"])
def test_load_rejects_out_of_range_state(tmp_path, bad):
    path = tmp_path / "controller.json"
    controller_with([rec(0.5, True)] * 3).save(str(path))
    MetaController.load(str(path))  # loads intact
    payload = json.loads(path.read_text())
    for key, value in bad.items():
        if key == "opt_params":
            payload[key].update(value)
        else:
            payload[key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaViolation):
        MetaController.load(str(path))


def test_state_rejects_unusable_opt_params():
    with pytest.raises(InvalidArgument):
        MetaController(ControllerState(opt=OptParams(delta_probe=0.0)))
    MetaController(ControllerState(opt=OptParams(eta_meta=0.0, xi=1.0, weight_lr=0.0)))
