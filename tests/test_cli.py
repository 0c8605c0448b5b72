import gc
import io
import json
import weakref
from contextlib import redirect_stderr, redirect_stdout

import pytest
from click.testing import CliRunner

from helpers import NOW, mk_episode
from kubediag.cli import main
from kubediag.controller import MetaController
from kubediag.embedding import HashingEmbedder
from kubediag.errors import SchemaViolation
from kubediag.graph import GraphEdge, GraphNode, KnowledgeGraph, NodeType, Relation
from kubediag.memory import MemoryConfig, MemoryPool
from kubediag.scenarios import FAULT_CATEGORIES, build_world, load_scenarios, scenario_to_dict

SYMPTOM = "pod oomkilled repeatedly"
EMB = HashingEmbedder(MemoryConfig().embedding_dim)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def stores(tmp_path):
    """A memory file with one strong episode and a matching two-hop graph."""
    g = KnowledgeGraph()
    entry = GraphNode("g-entry", NodeType.POD, SYMPTOM)
    mid = GraphNode("g-mid", NodeType.EVENT, "memory limit hit")
    rc = GraphNode("g-rc", NodeType.ROOT_CAUSE, "container memory limit too low")
    g.add_triple(entry, GraphEdge("g-entry", "g-mid", Relation.CAUSES, 0.9), mid)
    g.add_triple(mid, GraphEdge("g-mid", "g-rc", Relation.CAUSES, 0.9), rc)
    graph_path = tmp_path / "graph.json"
    g.save(str(graph_path))

    pool = MemoryPool(MemoryConfig())
    pool.insert_episode(
        mk_episode(
            "e1",
            EMB.embed(SYMPTOM),
            ts=NOW,
            path=["g-mid", "g-rc"],
            symptoms=(SYMPTOM,),
            actions=("raise the memory limit", "redeploy"),
            trials=8,
            successes=8,
        )
    )
    memory_path = tmp_path / "episodes.jsonl"
    pool.save_episodes(str(memory_path))
    return {"memory": str(memory_path), "graph": str(graph_path), "dir": tmp_path}


def seeded_diagnose_args(stores, *extra):
    return [
        "diagnose",
        SYMPTOM,
        "--memory",
        stores["memory"],
        "--graph",
        stores["graph"],
        "--now",
        str(NOW),
        *extra,
    ]


# ---------------------------------------------------------------------------
# diagnose


def test_diagnose_without_evidence_exits_2(runner):
    result = runner.invoke(main, ["diagnose", "entirely unknown misbehavior"])
    assert result.exit_code == 2


def test_diagnose_seeded_intuitive_json(runner, stores):
    result = runner.invoke(main, seeded_diagnose_args(stores, "--json"))
    assert result.exit_code == 0
    trace = json.loads(result.output)
    assert trace["decision"]["pathway"] == "intuitive"
    assert trace["solution"]["steps"] == ["raise the memory limit", "redeploy"]
    assert trace["solution"]["root_cause"] == "container memory limit too low"


def test_diagnose_graph_only_analytical(runner, stores):
    result = runner.invoke(main, ["diagnose", SYMPTOM, "--graph", stores["graph"]])
    assert result.exit_code == 0
    assert "pathway     analytical" in result.output
    assert "root cause  container memory limit too low" in result.output
    assert "causal step" in result.output


def test_diagnose_trace_file_matches_json_output(runner, stores):
    trace_path = stores["dir"] / "trace.json"
    result = runner.invoke(
        main, seeded_diagnose_args(stores, "--json", "--trace", str(trace_path))
    )
    assert result.exit_code == 0
    assert json.loads(trace_path.read_text()) == json.loads(result.output)


def test_diagnose_feedback_learn_persists_episode(runner, stores):
    result = runner.invoke(
        main, seeded_diagnose_args(stores, "--feedback", "success", "--learn")
    )
    assert result.exit_code == 0
    assert "recorded    success as ep-000001" in result.output
    pool = MemoryPool(MemoryConfig())
    pool.load_episodes(stores["memory"])
    assert set(pool.episodes) == {"e1", "ep-000001"}
    assert pool.episode("e1").memory_value == pytest.approx(1.1)


def test_learn_loop_adds_one_episode_per_run(runner, stores):
    # each process continues the episode numbering of the stores it loads
    for run in range(1, 4):
        result = runner.invoke(
            main, seeded_diagnose_args(stores, "--feedback", "success", "--learn")
        )
        assert result.exit_code == 0, result.output
        assert f"recorded    success as ep-{run:06d}" in result.output
        pool = MemoryPool(MemoryConfig())
        assert pool.load_episodes(stores["memory"]) == run + 1


STORE_LOADERS = {
    "memory": lambda path: MemoryPool(MemoryConfig()).load_episodes(path),
    "snapshot": lambda path: MemoryPool(MemoryConfig()).load_pattern_snapshot(path),
    "graph": KnowledgeGraph.load,
    "controller": MetaController.load,
}


@pytest.fixture
def learned_stores(runner, stores):
    """All four stores as one ``--learn`` run writes them."""
    stores["controller"] = str(stores["dir"] / "controller.json")
    stores["snapshot"] = stores["memory"] + ".patterns.json"
    result = runner.invoke(main, seeded_diagnose_args(
        stores, "--controller", stores["controller"], "--feedback", "success", "--learn"))
    assert result.exit_code == 0, result.output
    return stores


def truncate(path):
    with open(path, "r+", encoding="utf-8") as fh:
        fh.truncate(len(fh.read()) // 2)


@pytest.mark.parametrize("store", sorted(STORE_LOADERS))
def test_truncated_store_raises_schema_violation(learned_stores, store):
    STORE_LOADERS[store](learned_stores[store])  # loads intact
    truncate(learned_stores[store])
    with pytest.raises(SchemaViolation):
        STORE_LOADERS[store](learned_stores[store])


@pytest.mark.parametrize("store", sorted(STORE_LOADERS))
def test_diagnose_with_truncated_store_reports_error(runner, learned_stores, store):
    truncate(learned_stores[store])
    result = runner.invoke(main, seeded_diagnose_args(
        learned_stores, "--controller", learned_stores["controller"]))
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")


@pytest.mark.parametrize("option", ["--graph", "--memory", "--controller"])
def test_diagnose_with_directory_store_reports_error(runner, tmp_path, option):
    result = runner.invoke(main, ["diagnose", SYMPTOM, option, str(tmp_path)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_in_process_calls_release_their_streams(stores):
    # click's default-stream cache would keep every redirected stream alive
    refs = []
    for i in range(50):
        # alternate a diagnosis on stdout with a no-evidence report on stderr
        args = seeded_diagnose_args(stores, "--json") if i % 2 else ["diagnose", "zzz qqq"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit):
            main(args=args, prog_name="kubediag")
        assert out.getvalue() if i % 2 else err.getvalue().startswith("no evidence: ")
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def test_learn_requires_feedback(runner, stores):
    result = runner.invoke(main, seeded_diagnose_args(stores, "--learn"))
    assert result.exit_code == 1


def test_learn_requires_memory_store(runner):
    result = runner.invoke(
        main, ["diagnose", SYMPTOM, "--feedback", "success", "--learn"]
    )
    assert result.exit_code == 1


def test_config_tau_override_flips_routing(runner, stores):
    cfg_path = stores["dir"] / "config.json"
    cfg_path.write_text('{"tau": 0.95}')
    result = runner.invoke(
        main, seeded_diagnose_args(stores, "--config", str(cfg_path))
    )
    assert result.exit_code == 0
    assert "pathway     analytical" in result.output  # 0.9 no longer clears tau


@pytest.mark.parametrize(
    "payload",
    ['{"search": {"bogus": 1}}', '{"mystery_section": {}}', "[1, 2]"],
)
def test_config_rejects_unknown_content(runner, stores, payload):
    cfg_path = stores["dir"] / "bad.json"
    cfg_path.write_text(payload)
    result = runner.invoke(
        main, seeded_diagnose_args(stores, "--config", str(cfg_path))
    )
    assert result.exit_code == 1


# ---------------------------------------------------------------------------
# ingest


def test_ingest_empty_directory_reports_zero(runner, tmp_path):
    empty = tmp_path / "docs"
    empty.mkdir()
    result = runner.invoke(main, ["ingest", str(empty)])
    assert result.exit_code == 0
    assert "documents   0 ingested, 0 skipped" in result.output


def test_ingest_classifies_text_file(runner, tmp_path):
    doc = tmp_path / "incident.txt"
    doc.write_text("pods stuck in ImagePullBackOff after registry authentication expired")
    result = runner.invoke(main, ["ingest", str(doc), "--json"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["documents"] == 1
    assert report["failures"] == 0
    assert report["by_category"]["ImageErrors"] == 1


def test_ingest_jsonl_triples_update_graph(runner, tmp_path):
    lines = [
        json.dumps(
            {
                "id": "doc-1",
                "text": "OOMKilled containers after the memory leak regression",
                "triples": [
                    {
                        "src": {"id": "t-src", "type": "Event", "label": "memory leak"},
                        "dst": {"id": "t-dst", "type": "RootCause", "label": "bad release"},
                        "relation": "causes",
                        "weight": 0.8,
                    }
                ],
            }
        ),
        json.dumps({"id": "doc-2", "text": "dns resolution failed for the payments service"}),
    ]
    src = tmp_path / "docs.jsonl"
    src.write_text("\n".join(lines) + "\n")
    graph_path = tmp_path / "graph.json"
    result = runner.invoke(
        main, ["ingest", str(src), "--graph", str(graph_path), "--json"]
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["documents"] == 2
    assert report["triples"] == 1
    assert report["by_category"]["ResourceErrors"] == 1
    assert report["by_category"]["NetworkErrors"] == 1
    g = KnowledgeGraph.load(str(graph_path))
    assert g.edges[("t-src", "causes", "t-dst")].weight == 0.8


def test_ingest_docs_out_is_deterministic(runner, tmp_path):
    doc = tmp_path / "incident.txt"
    doc.write_text("kubelet flapping after certificate rotation")
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        result = runner.invoke(main, ["ingest", str(doc), "--docs-out", str(out)])
        assert result.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    record = json.loads(outs[0].decode())
    assert record["id"] == "incident"
    assert record["category"] == "SystemErrors"


def test_ingest_skips_bad_lines_but_keeps_good_ones(runner, tmp_path):
    src = tmp_path / "docs.jsonl"
    src.write_text(
        json.dumps({"id": "ok", "text": "node taint prevents scheduling"})
        + "\nnot json\n"
    )
    result = runner.invoke(main, ["ingest", str(src), "--json"])
    assert result.exit_code == 0
    assert "skipped" in result.output  # diagnostics for the bad line
    report = json.loads(result.output.splitlines()[-1])
    assert (report["documents"], report["failures"]) == (1, 1)


def test_ingest_all_bad_file_exits_1(runner, tmp_path):
    src = tmp_path / "docs.jsonl"
    src.write_text("garbage\n")
    assert runner.invoke(main, ["ingest", str(src)]).exit_code == 1


def test_ingest_missing_path_is_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["ingest", str(tmp_path / "absent.txt")])
    assert result.exit_code == 2
    assert "does not exist" in result.output + (result.stderr or "")


# ---------------------------------------------------------------------------
# simulate

SIM_ARGS = ["simulate", "--sessions", "30", "--corpus", "24", "--window", "10", "--seed", "4"]


def test_simulate_json_is_deterministic(runner):
    first = runner.invoke(main, [*SIM_ARGS, "--json"])
    second = runner.invoke(main, [*SIM_ARGS, "--json"])
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output
    report = json.loads(first.output)
    assert report["sessions"] == 30
    assert 0.0 <= report["accuracy"] <= 1.0


def test_simulate_csv_reruns_identically(runner, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        assert runner.invoke(main, [*SIM_ARGS, "--csv", str(p)]).exit_code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    header = paths[0].read_text().splitlines()[0]
    assert header.startswith("window_index,sessions,accuracy")


def test_simulate_traces_one_line_per_session(runner, tmp_path):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for p in paths:
        result = runner.invoke(main, [*SIM_ARGS, "--traces", str(p), "--json"])
        assert result.exit_code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    report = json.loads(result.output)
    traces = [json.loads(line) for line in paths[0].read_text().splitlines()]
    # a no-evidence query leaves no session behind
    assert len(traces) == report["sessions"] - report["no_evidence"]
    assert [t["session_id"] for t in traces] == [f"s{i:06d}" for i in range(1, len(traces) + 1)]
    assert all(t["schema_version"] == 1 for t in traces)


def test_simulate_no_memory_never_goes_intuitive(runner):
    result = runner.invoke(main, [*SIM_ARGS, "--no-memory", "--json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["intuitive_rate"] == 0.0


def test_simulate_ablation_reports_both_arms(runner):
    result = runner.invoke(
        main, [*SIM_ARGS, "--recurrence", "0.5", "--ablation", "--json"]
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert set(report) == {"with_memory", "without_memory", "relative_accuracy_gain"}
    assert report["without_memory"]["intuitive_rate"] == 0.0
    assert report["with_memory"]["sessions"] == report["without_memory"]["sessions"] == 30


def test_simulate_env_var_overrides_option(runner):
    result = runner.invoke(
        main,
        ["simulate", "--corpus", "24", "--window", "6", "--json"],
        env={"KUBEDIAG_SIMULATE_SESSIONS": "12"},
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["sessions"] == 12


def test_simulate_rejects_invalid_settings(runner):
    assert runner.invoke(main, ["simulate", "--sessions", "-5"]).exit_code == 1


# ---------------------------------------------------------------------------
# corpus


def test_corpus_writes_reloadable_files_and_prints_counts(runner, tmp_path):
    mix = (0.3, 0.2, 0.1, 0.1, 0.2, 0.1)
    scenarios_out, graph_out = tmp_path / "corpus.jsonl", tmp_path / "graph.json"
    res = runner.invoke(main, [
        "corpus", "--total", "50", "--seed", "4", "--mix", *map(str, mix),
        "--scenarios-out", str(scenarios_out), "--graph-out", str(graph_out),
    ])
    assert res.exit_code == 0, res.output
    want, graph = build_world(seed=4, total=50, mix=mix)
    loaded, errors = load_scenarios(str(scenarios_out))
    assert errors == []
    assert list(map(scenario_to_dict, loaded)) == list(map(scenario_to_dict, want))
    reloaded = KnowledgeGraph.load(str(graph_out))
    assert (len(reloaded.nodes), len(reloaded.edges)) == (len(graph.nodes), len(graph.edges))
    printed = dict(line.split() for line in res.output.splitlines() if line.startswith("  "))
    assert printed == {
        c.value: str(sum(sc.category is c for sc in want)) for c in FAULT_CATEGORIES
    }


def test_corpus_rejects_a_bad_mix(runner, tmp_path):
    res = runner.invoke(main, ["corpus", "--mix", "1", "1", "1", "1", "1", "1",
                               "--scenarios-out", str(tmp_path / "c.jsonl")])
    assert res.exit_code == 1
    assert not (tmp_path / "c.jsonl").exists()
