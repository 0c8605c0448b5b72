"""Tests of the benchmark itself: percentile rule, span arithmetic, tracing,
tiny smoke rounds of every workload with the output checks on, and the
agreement between the code, BENCHMARK.json and the recorded fingerprints.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from kubediag.graph import KnowledgeGraph  # noqa: E402
from kubediag.simulate import make_engine, run_stream  # noqa: E402

TINY = {
    "stream-recurrent": dict(sessions=60),
    "graph-large": dict(corpus=24, nodes=400),
    "cli-oneshot": dict(prefix=40, corpus=24),
}


# ---------------------------------------------------------------------------
# percentile rule


def test_percentile_is_nearest_rank_with_ten_samples_above():
    values = list(range(1, 201))
    assert stats.percentile(values, 95) == 190
    assert sum(v > 190 for v in values) == stats.MIN_TAIL
    assert stats.percentile(list(reversed(values)), 50) == 100
    assert stats.percentile(values[:100], 90) == 90


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError):
        stats.percentile(list(range(199)), 95)
    with pytest.raises(ValueError):
        stats.percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_median_of_rounds_is_taken_per_operation():
    rounds = [[3.0, 1.0, 5.0], [2.0, 4.0, 6.0], [9.0, 9.0, 4.5]]
    assert stats.median_of_rounds(rounds) == [3.0, 4.0, 5.0]


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1, "s"),
        ("a", 1.0, 4.0, 0, "s"),
        ("a.child", 2.0, 3.0, 1, "s"),
        ("b", 5.0, 7.0, 0, "s"),
        ("other-root", 11.0, 12.0, -1, "t"),
    ]
    assert stats.self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.0]


def test_speed_factors_scale_each_chunk_by_its_median_probe():
    probes = [1.0, 1.0, 3.0, 2.0, 2.0, 0.25]
    assert stats.speed_factors(probes, 3, 0.5) == [0.5] * 3 + [0.25] * 3
    rounds = [{"op": [4.0] * 6, "diagnose": [2.0] * 6, "probe": probes, "traced": False}]
    scaled = run.at_reference_speed(rounds)[0]
    assert scaled["op"][:run.CHUNK] == [4.0 * run.REFERENCE_PROBE_MS / 1.5] * 6
    assert scaled["diagnose"][0] == 2.0 * run.REFERENCE_PROBE_MS / 1.5
    assert rounds[0]["op"] == [4.0] * 6


def test_sessions_per_s_is_the_median_of_whole_rounds():
    rounds = [{"op": [10.0, 10.0]}, {"op": [10.0, 30.0]}, {"op": [5.0, 5.0]}]
    assert run.sessions_per_s(rounds) == 100.0
    # a pause on one operation stays in that round's figure
    assert run.sessions_per_s(rounds[1:2]) == 50.0


# ---------------------------------------------------------------------------
# tracing


def test_tracer_patches_and_restores_the_resolved_names():
    import kubediag.engine as engine_mod
    import kubediag.memory as memory_mod

    before = (engine_mod.explore, memory_mod.compute_factors,
              KnowledgeGraph.__dict__["load"], memory_mod.MemoryPool.retrieve)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert engine_mod.explore is not before[0]
        assert memory_mod.compute_factors is not before[1]
        assert isinstance(KnowledgeGraph.__dict__["load"], classmethod)
    finally:
        tracer.uninstall()
    after = (engine_mod.explore, memory_mod.compute_factors,
             KnowledgeGraph.__dict__["load"], memory_mod.MemoryPool.retrieve)
    assert all(a is b for a, b in zip(before, after))


def test_spans_nest_and_pause():
    tracer = tracing.Tracer()
    inner = tracer.span("inner", lambda: 1)
    outer = tracer.span("outer", lambda: inner() + inner())
    tracer.active = True
    tracer.session = "s1"
    assert outer() == 2
    with tracer.paused():
        outer()
    names = [(row[0], row[3], row[4]) for row in tracer.spans]
    assert names == [("outer", -1, "s1"), ("inner", 0, "s1"), ("inner", 0, "s1")]
    totals = tracer.totals()
    assert totals["inner.calls"] == 2 and totals["outer.calls"] == 1
    assert totals["outer.self_ms"] <= totals["outer.ms"]


def test_untimed_work_holds_the_collector_off_and_is_not_traced():
    tracer = tracing.Tracer()
    tracer.active = True
    with harness.untimed(tracer):
        assert not gc.isenabled() and not tracer.active
    assert gc.isenabled() and tracer.active


# ---------------------------------------------------------------------------
# smoke rounds


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_rounds_pass_their_checks(name, tmp_path):
    cls = harness.WORKLOADS[name]
    extra = dict(workdir=str(tmp_path)) if cls is harness.CliOneshot else {}
    workload = cls(**TINY[name], **extra)
    state = workload.setup(workload.inputs(3))
    rec, tracer = harness.Recorder(), tracing.Tracer()
    try:
        first = workload.run_round(state, rec, tracer, 0)
        tracer.install()
        tracer.active = True
        try:
            second = workload.run_round(state, rec, tracer, 1)
        finally:
            tracer.active = False
            tracer.uninstall()
    finally:
        workload.close(state)
    assert first == second
    assert rec.problems == [] and rec.errors == 0
    assert rec.attempted == len(rec.op_ms) + rec.errors
    assert len(rec.probe_ms) == len(rec.op_ms) == len(rec.diagnose_ms)
    totals = tracer.totals()
    assert [s for s in workload.required if not totals.get(s + ".calls")] == []
    assert rec.correct / rec.attempted >= 0.5


def test_stream_round_scores_like_run_stream():
    workload = harness.StreamRecurrent(sessions=80)
    state = workload.setup(workload.inputs(5))
    rec = harness.Recorder()
    workload.run_round(state, rec, tracing.Tracer(), 0)
    reference = run_stream(make_engine(state["graph"]), state["stream"])
    assert (rec.attempted, rec.correct, rec.intuitive, rec.no_evidence) == (
        reference.sessions, reference.correct, reference.intuitive, reference.no_evidence)


def test_chain_check_rejects_a_wrong_score_and_a_wrong_order():
    workload = harness.GraphLarge(corpus=24, nodes=400)
    state = workload.setup(workload.inputs(1))
    engine = make_engine(state["graph"], memory_enabled=False)
    result = engine.diagnose(harness.query_of(state["stream"][0]))
    assert len(result.chains) >= 2
    assert harness.check_chains(engine, result) == []
    result.chains.reverse()
    assert any("rank order" in p for p in harness.check_chains(engine, result))
    result.chains.reverse()
    result.chains[0].score += 1e-9
    assert any("priority gives" in p for p in harness.check_chains(engine, result))


# ---------------------------------------------------------------------------
# agreement with BENCHMARK.json and the recorded fingerprints


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]


def test_every_input_set_is_recorded_and_set_zero_matches():
    table = json.loads(run.FINGERPRINTS.read_text(encoding="utf-8"))
    for name, cls in harness.WORKLOADS.items():
        assert sorted(table[name], key=int) == [str(s) for s in range(run.SEEDS)], name
        assert all(0 < row["accuracy"] <= 1 for row in table[name].values()), name
        workload = cls()
        got = run.fingerprint(workload.fingerprint(workload.inputs(0)))
        assert got == table[name]["0"]["inputs"], name


def test_without_the_package_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-oneshot", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
