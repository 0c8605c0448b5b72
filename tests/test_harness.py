import json
import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kubediag.errors import InvalidArgument, ScenarioParseError
from kubediag.graph import Category, NodeType
from kubediag.scenarios import (
    _BANK,
    DEFAULT_MIX,
    FAULT_CATEGORIES,
    FaultScenario,
    apportion_largest_remainder,
    build_graph,
    build_world,
    generate_scenarios,
    load_scenarios,
    save_scenarios,
    scenario_from_dict,
    scenario_to_dict,
)
from kubediag.simulate import (
    MATCH_THRESHOLD,
    SimulationConfig,
    SimulationResult,
    TickClock,
    WindowStats,
    build_stream,
    evaluate_ablation,
    make_engine,
    run_continuous,
    run_stream,
    write_curve_csv,
)

UNIFORM = (1 / 6,) * 6


def template_key(scenario_id):
    return scenario_id.rsplit("-", 1)[0]


# ---------------------------------------------------------------------------
# apportionment


def test_apportion_default_mix_of_100():
    assert apportion_largest_remainder(100, DEFAULT_MIX) == [22, 21, 16, 15, 17, 9]


def test_apportion_hand_remainders():
    # quotas 3.5 / 2.1 / 1.4: one leftover seat goes to the .5 remainder
    assert apportion_largest_remainder(7, (0.5, 0.3, 0.2)) == [4, 2, 1]


def test_apportion_remainder_tie_prefers_earlier_class():
    assert apportion_largest_remainder(2, (0.25, 0.25, 0.25, 0.25)) == [1, 1, 0, 0]


def test_apportion_snaps_float_noise():
    # 3 * (1/3) = 0.9999... must count as a whole seat, not floor to 0
    assert apportion_largest_remainder(3, (1 / 3, 1 / 3, 1 / 3)) == [1, 1, 1]


def test_apportion_zero_total():
    assert apportion_largest_remainder(0, DEFAULT_MIX) == [0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize(
    "total,mix",
    [
        (-1, DEFAULT_MIX),
        (10, (0.5, 0.4)),          # does not sum to 1
        (10, (1.2, -0.2)),         # negative share
        (10, ()),                  # empty mix
    ],
)
def test_apportion_rejects_bad_input(total, mix):
    with pytest.raises(InvalidArgument):
        apportion_largest_remainder(total, mix)


@given(
    total=st.integers(0, 500),
    weights=st.lists(st.integers(0, 20), min_size=1, max_size=8).filter(lambda w: sum(w) > 0),
)
def test_apportion_sums_and_stays_near_quota(total, weights):
    mix = [w / sum(weights) for w in weights]
    counts = apportion_largest_remainder(total, mix)
    assert sum(counts) == total
    for count, share in zip(counts, mix):
        quota = total * share
        assert math.floor(quota) - 1e-9 <= count <= math.ceil(quota) + 1e-9


# ---------------------------------------------------------------------------
# scenario generation


def test_generate_default_mix_category_counts():
    scenarios = generate_scenarios(0, 100)
    counts = Counter(sc.category for sc in scenarios)
    assert [counts[c] for c in FAULT_CATEGORIES] == [22, 21, 16, 15, 17, 9]


def test_generate_single_image_scenario():
    scenarios = generate_scenarios(0, 1, (0, 0, 0, 1, 0, 0))
    assert len(scenarios) == 1
    assert scenarios[0].category is Category.IMAGE


def test_generate_is_deterministic_per_seed():
    a = [scenario_to_dict(sc) for sc in generate_scenarios(7, 50)]
    b = [scenario_to_dict(sc) for sc in generate_scenarios(7, 50)]
    assert a == b


def test_generate_seed_changes_payload():
    a = [scenario_to_dict(sc) for sc in generate_scenarios(1, 50)]
    b = [scenario_to_dict(sc) for sc in generate_scenarios(2, 50)]
    assert a != b


def test_generated_scenarios_are_valid_and_unique():
    scenarios = generate_scenarios(3, 60)
    ids = [sc.id for sc in scenarios]
    assert len(set(ids)) == len(ids)
    for sc in scenarios:
        sc.validate()
        assert sc.resolution_steps


def test_masked_faults_follow_their_shallow_sibling():
    by_key = {t.key: t for t in _BANK}
    scenarios = generate_scenarios(9, 120)
    first_seen: dict[str, int] = {}
    for i, sc in enumerate(scenarios):
        first_seen.setdefault(template_key(sc.id), i)
    for key, template in by_key.items():
        if template.twin_of is None or key not in first_seen:
            continue
        assert template.twin_of in first_seen
        assert first_seen[template.twin_of] < first_seen[key]


def test_generate_rejects_bad_mix():
    with pytest.raises(InvalidArgument):
        generate_scenarios(0, 10, (0.5, 0.5))  # wrong arity for six categories


# ---------------------------------------------------------------------------
# persistence


def test_scenario_dict_roundtrip():
    sc = generate_scenarios(4, 5)[2]
    assert scenario_from_dict(scenario_to_dict(sc)) == sc


def test_save_load_roundtrip(tmp_path):
    scenarios = generate_scenarios(5, 30)
    path = tmp_path / "scenarios.jsonl"
    save_scenarios(str(path), scenarios)
    loaded, errors = load_scenarios(str(path))
    assert errors == []
    assert loaded == scenarios


def test_save_load_empty(tmp_path):
    path = tmp_path / "none.jsonl"
    save_scenarios(str(path), [])
    assert load_scenarios(str(path)) == ([], [])


def test_load_collects_line_errors(tmp_path):
    good = generate_scenarios(6, 2)
    path = tmp_path / "mixed.jsonl"
    save_scenarios(str(path), good)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{ this is not json\n")
        fh.write('{"id": "x1", "category": "ResourceErrors", "symptoms": []}\n')
    loaded, errors = load_scenarios(str(path))
    assert loaded == good
    assert len(errors) == 2
    assert all(isinstance(e, ScenarioParseError) for e in errors)
    assert "line 3" in str(errors[0])
    assert "line 4" in str(errors[1])


def test_load_collects_lines_it_cannot_decode(tmp_path):
    good = generate_scenarios(6, 2)
    path = tmp_path / "mixed.jsonl"
    save_scenarios(str(path), good)
    with open(path, "ab") as fh:
        fh.write(b"[" * 100_000 + b"]" * 100_000 + b"\n")  # past the recursion limit
        fh.write(b'{"id": "\xff"}\n')
        fh.write(json.dumps(scenario_to_dict(good[0])).encode() + b"\n")
    loaded, errors = load_scenarios(str(path))
    assert loaded == good + good[:1]
    assert [e.line_no for e in errors] == [3, 4]
    assert "recursion" in str(errors[0]) and "utf-8" in str(errors[1])


@pytest.mark.parametrize("key, value", [
    ("symptoms", "oomkilled"),
    ("context", "prod"),
    ("resolution_steps", "restart"),
    ("id", 7),
    ("root_cause", 5),
    ("logs", None),
], ids=["symptoms-string", "context-string", "steps-string", "id-int", "root-cause-int",
        "logs-null"])
def test_load_reports_wrong_types(tmp_path, key, value):
    # coerced, each would load as something else: a string as its
    # characters, an id 7 as "7", null logs as "None"
    good = generate_scenarios(6, 2)
    path = tmp_path / "mixed.jsonl"
    save_scenarios(str(path), good)
    raw = dict(scenario_to_dict(good[0]), **{key: value})
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(raw) + "\n")
    loaded, errors = load_scenarios(str(path))
    assert loaded == good
    assert [e.line_no for e in errors] == [3]


def test_validate_rejects_blank_fields():
    sc = generate_scenarios(0, 1)[0]
    broken = FaultScenario(
        id=sc.id,
        category=sc.category,
        symptoms=["  "],
        context=list(sc.context),
        logs=sc.logs,
        root_cause=sc.root_cause,
        resolution_steps=list(sc.resolution_steps),
    )
    with pytest.raises(InvalidArgument):
        broken.validate()


# ---------------------------------------------------------------------------
# curated causal graph


def test_build_graph_shape():
    g = build_graph()
    # three nodes per shallow fault, entry only for each masked twin
    shallow = sum(1 for t in _BANK if t.twin_of is None)
    masked = sum(1 for t in _BANK if t.twin_of is not None)
    assert (shallow, masked) == (18, 6)
    assert len(g.nodes) == shallow * 3 + masked
    assert len(g.edges) == shallow * 2
    roots = [n for n in g.nodes.values() if n.node_type is NodeType.ROOT_CAUSE]
    assert len(roots) == shallow


def test_build_world_matches_parts():
    scenarios, graph = build_world(seed=0, total=24, mix=UNIFORM)
    assert [sc.id for sc in scenarios] == [sc.id for sc in generate_scenarios(0, 24, UNIFORM)]
    assert set(graph.nodes) == set(build_graph().nodes)


# ---------------------------------------------------------------------------
# simulation


def test_tick_clock_advances_fixed_steps():
    clock = TickClock(start=100.0, step=5.0)
    assert [clock(), clock(), clock()] == [105.0, 110.0, 115.0]


def test_build_stream_without_recurrence_never_repeats():
    corpus = generate_scenarios(0, 30)
    cfg = SimulationConfig(total_sessions=20, recurrence=0.0, seed=3)
    stream = build_stream(corpus, cfg)
    assert len(stream) == 20
    ids = [sc.id for sc in stream]
    assert len(set(ids)) == 20
    assert set(ids) <= {sc.id for sc in corpus}


def test_build_stream_full_recurrence_repeats_one():
    corpus = generate_scenarios(0, 30)
    cfg = SimulationConfig(total_sessions=15, recurrence=1.0, seed=3)
    stream = build_stream(corpus, cfg)
    assert len(stream) == 15
    assert len({sc.id for sc in stream}) == 1


def test_build_stream_deterministic():
    corpus = generate_scenarios(0, 30)
    cfg = SimulationConfig(total_sessions=25, recurrence=0.4, seed=9)
    assert [sc.id for sc in build_stream(corpus, cfg)] == [
        sc.id for sc in build_stream(corpus, cfg)
    ]


def test_cold_start_has_no_intuitive_sessions():
    scenarios, graph = build_world(seed=2, total=24, mix=UNIFORM)
    engine = make_engine(graph, clock=TickClock())
    result = run_stream(engine, scenarios, window=24)
    assert result.sessions == 24
    assert result.windows[0].intuitive_rate == 0.0
    assert 0.0 <= result.windows[0].accuracy <= 1.0


def test_full_recurrence_reaches_intuitive_window():
    scenarios, graph = build_world(seed=0, total=1, mix=(1, 0, 0, 0, 0, 0))
    engine = make_engine(graph, clock=TickClock())
    result = run_stream(engine, [scenarios[0]] * 60, window=20)
    last = result.windows[-1]
    assert last.accuracy == 1.0
    assert last.intuitive_rate == 1.0
    assert last.mean_latency_units == 1.0


def test_run_stream_window_bookkeeping():
    scenarios, graph = build_world(seed=4, total=12, mix=UNIFORM)
    engine = make_engine(graph, clock=TickClock())
    result = run_stream(engine, scenarios, window=5)
    assert [w.sessions for w in result.windows] == [5, 5, 2]
    assert [w.index for w in result.windows] == [0, 1, 2]
    assert sum(w.sessions for w in result.windows) == result.sessions == 12
    assert result.windows[-1].tau == engine.controller.state.tau
    total_latency = sum(w.mean_latency_units * w.sessions for w in result.windows)
    assert total_latency == pytest.approx(result.latency_total)
    for cat, (correct, total) in result.per_category.items():
        assert 0 <= correct <= total


def test_run_continuous_deterministic():
    cfg = SimulationConfig(total_sessions=30, corpus_size=24, window=10, seed=4)
    first, _ = run_continuous(cfg)
    second, _ = run_continuous(cfg)
    assert first.windows == second.windows
    assert (first.correct, first.no_evidence, first.intuitive) == (
        second.correct,
        second.no_evidence,
        second.intuitive,
    )
    assert first.per_category == second.per_category


def test_evaluate_ablation_runs_both_arms():
    cfg = SimulationConfig(total_sessions=30, corpus_size=24, window=10, seed=4, recurrence=0.5)
    ab = evaluate_ablation(cfg)
    assert ab.with_memory.sessions == ab.without_memory.sessions == 30
    assert ab.without_memory.intuitive == 0  # memory off: never enough confidence
    assert ab.with_memory.latency_total <= ab.without_memory.latency_total


def test_write_curve_csv_format(tmp_path):
    result = SimulationResult(
        sessions=5, correct=3, no_evidence=0, intuitive=1, latency_total=50.0,
        windows=[WindowStats(index=0, sessions=5, accuracy=0.6, intuitive_rate=0.2,
                             mean_latency_units=10.0, tau=0.75)],
    )
    path = tmp_path / "curve.csv"
    write_curve_csv(result, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "window_index,sessions,accuracy,intuitive_rate,mean_latency_units,tau"
    assert lines[1] == "0,5,0.6000,0.2000,10.0000,0.7500"


def test_write_curve_csv_is_byte_stable(tmp_path):
    result, _ = run_continuous(SimulationConfig(total_sessions=20, corpus_size=24, window=5, seed=8))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_curve_csv(result, str(a))
    write_curve_csv(result, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_match_threshold_is_a_majority_overlap():
    assert MATCH_THRESHOLD == 0.6
