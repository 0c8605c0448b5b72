import gc
import hashlib
import io
import json
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from click.testing import CliRunner

from helpers import NOW, mk_episode
from kubediag.cli import _load_config, main
from kubediag.controller import MetaController
from kubediag.embedding import HashingEmbedder
from kubediag.errors import ConfigError, SchemaViolation
from kubediag.graph import GraphEdge, GraphNode, KnowledgeGraph, NodeType, Relation
from kubediag.memory import MemoryConfig, MemoryPool
from kubediag.scenarios import FAULT_CATEGORIES, build_world, load_scenarios, scenario_to_dict
from kubediag.simulate import SimulationConfig, evaluate_ablation, run_continuous

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


def test_learn_survives_an_insert_that_evicts_the_new_episode(runner, stores):
    # at capacity 1 an older --now makes the new episode the eviction victim
    config = stores["dir"] / "cap1.json"
    config.write_text(json.dumps({"memory": {"capacity": 1}}))
    args = ["diagnose", SYMPTOM, "--memory", stores["memory"], "--graph", stores["graph"],
            "--config", str(config), "--now", str(NOW - 1), "--feedback", "success", "--learn"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert "recorded    success as ep-000001" in result.output
    assert "ep-000001 (evicted: store at capacity) (tau " in result.output
    pool = MemoryPool(MemoryConfig())
    pool.load_episodes(stores["memory"])
    assert set(pool.episodes) == {"e1"}
    assert pool.episode("e1").memory_value == pytest.approx(1.1)


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


DEEP_JSON = b"[" * 100_000 + b"]" * 100_000  # nested far past the recursion limit

# name -> damage to a file's bytes that leaves nothing a JSON reader can decode
UNDECODABLE = {
    "nested-too-deep": lambda data: DEEP_JSON + b"\n",
    "not-utf8": lambda data: data[:10] + b"\xff" + data[10:],
}


@pytest.mark.parametrize("damage", sorted(UNDECODABLE))
@pytest.mark.parametrize("store", sorted(STORE_LOADERS))
def test_an_undecodable_store_raises_schema_violation(learned_stores, store, damage):
    path = Path(learned_stores[store])
    path.write_bytes(UNDECODABLE[damage](path.read_bytes()))
    with pytest.raises(SchemaViolation):
        STORE_LOADERS[store](str(path))


def assert_one_error_line(result):
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("damage", sorted(UNDECODABLE))
@pytest.mark.parametrize("store", sorted(STORE_LOADERS))
def test_diagnose_with_an_undecodable_store_reports_error(runner, learned_stores, store,
                                                          damage):
    path = Path(learned_stores[store])
    path.write_bytes(UNDECODABLE[damage](path.read_bytes()))
    assert_one_error_line(runner.invoke(main, seeded_diagnose_args(
        learned_stores, "--controller", learned_stores["controller"])))


@pytest.mark.parametrize("now", ["nan", "inf", "-inf"])
def test_diagnose_rejects_a_now_that_is_not_finite(runner, learned_stores, now):
    # a NaN clock rules out every episode and would print "created": NaN
    before = Path(learned_stores["memory"]).read_bytes()
    args = seeded_diagnose_args(learned_stores, "--json", "--feedback", "success", "--learn")
    args[args.index("--now") + 1] = now
    result = runner.invoke(main, args)
    assert_one_error_line(result)
    assert "--now must be a finite number" in result.stderr
    assert Path(learned_stores["memory"]).read_bytes() == before


def test_feedback_with_zero_delta_probe_reports_error(runner, learned_stores):
    # a checkpoint that would divide by zero in adapt_threshold fails at load
    path = learned_stores["dir"] / "controller.json"
    payload = json.loads(path.read_text())
    payload["opt_params"]["delta_probe"] = 0.0
    path.write_text(json.dumps(payload))
    result = runner.invoke(main, seeded_diagnose_args(
        learned_stores, "--controller", str(path), "--feedback", "success"))
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")
    assert "delta_probe" in result.stderr
    assert "Traceback" not in result.stderr


def test_diagnose_with_a_number_beyond_the_float_range_reports_error(runner, learned_stores):
    # a 400-digit int converts to no float; the load names it, not a traceback
    path = learned_stores["dir"] / "controller.json"
    payload = json.loads(path.read_text())
    payload["tau"] = 10 ** 400
    path.write_text(json.dumps(payload))
    result = runner.invoke(main, seeded_diagnose_args(learned_stores, "--controller", str(path)))
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: bad controller checkpoint: tau 1000")
    assert "Traceback" not in result.stderr


def edit_lines(path, edit):
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    edit(lines)
    path.write_text("".join(json.dumps(raw) + "\n" for raw in lines))


def edit_payload(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


# store -> edit of the saved file that puts a 400-digit int where a float belongs
HUGE_EDITS = {
    "memory": lambda p: edit_lines(p, lambda lines: lines[0].update(timestamp=10 ** 400)),
    "graph": lambda p: edit_payload(p, lambda d: d["edges"][0].update(weight=10 ** 400)),
    "controller": lambda p: edit_payload(p, lambda d: d.update(tau=10 ** 400)),
}


@pytest.mark.parametrize("store", sorted(HUGE_EDITS))
def test_a_huge_number_in_a_store_makes_a_short_error_line(runner, learned_stores, store):
    HUGE_EDITS[store](Path(learned_stores[store]))
    result = runner.invoke(main, seeded_diagnose_args(
        learned_stores, "--controller", learned_stores["controller"]))
    assert result.exit_code == 1
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: ") and "...000" in line
    assert len(line) < 200


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


@pytest.mark.parametrize(
    "payload, named",
    [('{"tau": 7}', "tau must be in [0, 1], got 7.0"),
     ('{"tau": "0.5"}', "tau '0.5' is not a finite number"),
     ('{"memory": {"pattern_sim_threshold": "0.5"}}', "pattern_sim_threshold '0.5'"),
     ('{"memory": {"capacity": true}}', "capacity True is not an integer"),
     ('{"memory": {"mix_weights": [1, 1, 1]}}', "mix_weights [1, 1, 1] is not a list of 2"),
     ('{"memory": []}', "section memory must be a JSON object"),
     ('{"search": {"beam": 2.5}}', "beam 2.5 is not an integer"),
     ('{"search": {"alphas": [0.5, 0.5]}}', "alphas [0.5, 0.5] is not a list of 3"),
     ('{"search": {"alphas": [0.5, 0.3, null]}}', "alphas None is not a finite number"),
     ('{"synth": {"max_retries": -1}}', "max_retries must be >= 0"),
     ('{"synth": {"token_budget": 0}}', "token_budget >= 1")],
)
def test_config_values_are_checked_when_the_file_is_loaded(runner, stores, payload, named):
    cfg_path = stores["dir"] / "bad.json"
    cfg_path.write_text(payload)
    with pytest.raises(ConfigError) as caught:
        _load_config(str(cfg_path))
    assert named in str(caught.value)
    controller = stores["dir"] / "controller.json"
    result = runner.invoke(main, seeded_diagnose_args(
        stores, "--config", str(cfg_path), "--controller", str(controller),
        "--feedback", "success", "--learn"))
    assert_one_error_line(result)
    assert named in result.stderr
    assert not controller.exists()  # nothing is learned from a run that cannot start


@pytest.mark.parametrize("damage", sorted(UNDECODABLE))
def test_config_that_cannot_be_decoded_is_a_config_error(runner, stores, damage):
    cfg_path = stores["dir"] / "bad.json"
    cfg_path.write_bytes(UNDECODABLE[damage](b'{"tau": 0.5}'))
    result = runner.invoke(main, seeded_diagnose_args(stores, "--config", str(cfg_path)))
    assert_one_error_line(result)
    assert result.stderr.startswith("error: cannot read config")


def test_logs_that_are_not_utf8_report_error(runner, stores):
    logs = stores["dir"] / "logs.txt"
    logs.write_bytes(b"OOMKilled \xff\xfe exit 137\n")
    result = runner.invoke(main, seeded_diagnose_args(stores, "--logs", str(logs)))
    assert_one_error_line(result)
    assert result.stderr.startswith("error: cannot read logs")


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


@pytest.mark.parametrize("edit", [
    lambda t: t["src"].update(label=None),
    lambda t: t["dst"].update(label=7),
    lambda t: t.update(weight=True),
    lambda t: t.update(weight="0.7"),
    lambda t: t["dst"].update(type="Pod"),
    lambda t: t["src"].update(id=None),
    lambda t: t["dst"].update(id=5),
], ids=["null-label", "int-label", "bool-weight", "string-weight", "retyped-node",
        "null-id", "int-id"])
def test_ingest_skips_a_document_with_a_bad_triple(runner, tmp_path, edit):
    # coerced, the label would be "None" or "7", the weight 1.0 or 0.7 and
    # the node ids "None" or "5";
    # a node retyped by a later triple used to fail after the first was added
    good = {"src": {"id": "t-a", "type": "Event", "label": "memory leak"},
            "dst": {"id": "t-b", "type": "RootCause", "label": "bad release"},
            "relation": "causes", "weight": 0.8}
    bad = json.loads(json.dumps(good).replace("t-a", "t-c"))
    edit(bad)
    src = tmp_path / "docs.jsonl"
    src.write_text(
        json.dumps({"id": "doc-1", "text": "OOMKilled after a leak", "triples": [good, bad]})
        + "\n" + json.dumps({"id": "doc-2", "text": "dns resolution failed"}) + "\n"
    )
    graph_path = tmp_path / "graph.json"
    result = runner.invoke(main, ["ingest", str(src), "--graph", str(graph_path), "--json"])
    assert result.exit_code == 0
    assert "skipped 'doc-1'" in result.stderr
    report = json.loads(result.stdout)
    assert (report["documents"], report["failures"], report["triples"]) == (1, 1, 0)
    # the document's good triple is not added either
    assert KnowledgeGraph.load(str(graph_path)).nodes == {}


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


# name -> (file name, bytes) of an input that ingest skips as one failure
UNREADABLE_INPUTS = {
    "text-not-utf8": ("incident.txt", b"pods evicted \xff under disk pressure"),
    "jsonl-not-utf8": ("docs.jsonl", b'{"id": "d", "text": "dns \xff failed"}\n'),
    "jsonl-line-too-deep": ("docs.jsonl", DEEP_JSON + b"\n"),
    "jsonl-triples-not-a-list": ("docs.jsonl", b'{"id": "d", "text": "dns", "triples": 5}\n'),
    # coerced with str(), these loaded as document "5" with the text "None",
    # and with a list's repr as the text
    "jsonl-int-id-null-text": ("docs.jsonl", b'{"id": 5, "text": null}\n'),
    "jsonl-list-text": ("docs.jsonl", b'{"id": "d", "text": ["dns", "failed"]}\n'),
    # past the int conversion limit that json.loads enforces
    "jsonl-int-too-long": ("docs.jsonl", b'{"id": ' + b"1" * 5000 + b', "text": "dns"}\n'),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
def test_ingest_skips_an_input_it_cannot_read(runner, tmp_path, case):
    name, data = UNREADABLE_INPUTS[case]
    (tmp_path / name).write_bytes(data)
    good = tmp_path / "good.txt"
    good.write_text("node taint prevents scheduling")
    result = runner.invoke(main, ["ingest", str(tmp_path / name), str(good), "--json"])
    assert result.exit_code == 0, result.output
    assert result.stderr.startswith(f"skipped {name}")
    report = json.loads(result.stdout)
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
    assert all(t["schema_version"] == 2 for t in traces)
    assert not any("coverage" in t["decision"] for t in traces)


# SHA-256 of what ``simulate --sessions 600 --recurrence 0.5 --csv --traces``
# writes: its standard output, the learning-curve CSV and the trace JSONL.
# The traces were re-recorded when every cosine became a stored vector's
# products added in entry order: scores, confidences, novelty, psi and c_max
# moved by at most 4.4e-16, and no id, order or routing decision changed.
SIMULATE_600_DIGESTS = {
    "text": "6e4d99e9120a0a8fe72d074ec3abf5aad205aedb394843fb300185fd8c76ed43",
    "csv": "dcdcdd3c2b67b052785065dce46641d432405cd9e07e0d384cc46f852ea4c35e",
    "traces": "e218fd9cb028bc4d4a386405511d747f6bc973f177b7226be9b764525acad44a",
}


# the same for ``simulate --sessions 400 --recurrence 0.5`` at capacity 20,
# where all but 20 of the episodes are evicted
SIMULATE_CAPACITY_20_DIGESTS = {
    "text": "82c938e2778fdd8a5daab9da28a8035dfc02c1294ed88d1335e4f4cc16e5592a",
    "csv": "d9032bf11cf28aa370b33a0b713047983d962ee7561e1197615dd54e642764b3",
    "traces": "9c7fefae347b8d98d68c197a5c80bbb29cda8f1aea3619e917a5f2d3d42f229d",
}


# the same for ``simulate --sessions 1100 --recurrence 0.5 --corpus 1100``,
# whose pool holds 578 distinct embeddings and whose controller
# history passes its 1,000-record limit
SIMULATE_1100_DIGESTS = {
    "text": "294e8560bb322a7bb4a503e6dd3917e9adc7046f5a2ecd074bb1b439499f2a88",
    "csv": "875657f3f4d9eff64fd7cb5540cde0bff02d833e195c444e2790051f73a4f2aa",
    "traces": "841cc06363e153eecbdd633d8e8127b3a454b0516ebd82a541d050c8ef4d661f",
}


def simulate_digests(runner, tmp_path, *args):
    """SHA-256 of the text, CSV and traces that ``simulate *args`` writes."""
    csv_path, traces_path = tmp_path / "curve.csv", tmp_path / "traces.jsonl"
    result = runner.invoke(main, ["simulate", *args,
                                  "--csv", str(csv_path), "--traces", str(traces_path)])
    assert result.exit_code == 0, result.output
    got = {
        "text": result.output.encode("utf-8"),
        "csv": csv_path.read_bytes(),
        "traces": traces_path.read_bytes(),
    }
    return {k: hashlib.sha256(v).hexdigest() for k, v in got.items()}


def test_simulate_outputs_match_recorded_digests(runner, tmp_path):
    """The 600-session stream's text, CSV and traces stay byte for byte what
    they were when the digests were recorded.

    A change that alters them on purpose re-records the digests, and only
    together with the output change declared in CHANGES.md.
    """
    got = simulate_digests(runner, tmp_path, "--sessions", "600", "--recurrence", "0.5")
    assert got == SIMULATE_600_DIGESTS


def test_simulate_with_evictions_matches_recorded_digests(runner, tmp_path):
    """Like the 600-session digests, for a run that evicts on 380 of its
    inserts, so eviction and the removal of the evicted rows from the
    episode index are pinned byte for byte too."""
    config = tmp_path / "capacity.json"
    config.write_text(json.dumps({"memory": {"capacity": 20}}))
    got = simulate_digests(runner, tmp_path, "--sessions", "400", "--recurrence", "0.5",
                           "--config", str(config))
    assert got == SIMULATE_CAPACITY_20_DIGESTS


def test_simulate_long_stream_matches_recorded_digests(runner, tmp_path):
    """Like the 600-session digests, for a stream of 1,100 distinct
    scenarios: patterns grow to 12-112 members by appends, and the threshold
    replay runs on after the history starts dropping its oldest records."""
    got = simulate_digests(runner, tmp_path, "--sessions", "1100", "--recurrence", "0.5",
                           "--corpus", "1100")
    assert got == SIMULATE_1100_DIGESTS


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


@pytest.mark.parametrize(
    "payload, named",
    [('{"tau": 0.05}', ["tau"]),
     ('{"synth": {"token_budget": 20}}', ["synth"]),
     ('{"tau": 0.05, "synth": {"token_budget": 20}}', ["tau", "synth"])],
    ids=["tau", "synth", "both"],
)
def test_simulate_rejects_config_sections_it_does_not_read(runner, tmp_path, payload, named):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(payload)
    result = runner.invoke(main, [*SIM_ARGS, "--config", str(cfg_path), "--json"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert all(name in result.stderr for name in named)


def _report(res) -> dict:
    """The numbers ``simulate --json`` prints for one arm."""
    return {
        "sessions": res.sessions,
        "accuracy": round(res.accuracy, 6),
        "intuitive_rate": round(res.intuitive_rate, 6),
        "mean_latency_units": round(res.mean_latency_units, 6),
        "no_evidence": res.no_evidence,
        "per_category": {k: list(v) for k, v in sorted(res.per_category.items())},
    }


LIB_SIM = SimulationConfig(total_sessions=30, recurrence=0.5, window=10, seed=4, corpus_size=24)


@pytest.fixture
def k1_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"memory": {"retrieval_k": 1, "hint_k": 1}}')
    return str(path)


def test_simulate_memory_config_matches_run_continuous(runner, k1_config):
    args = [*SIM_ARGS, "--recurrence", "0.5", "--json"]
    result = runner.invoke(main, [*args, "--config", k1_config])
    assert result.exit_code == 0
    res, _ = run_continuous(LIB_SIM, MemoryConfig(retrieval_k=1, hint_k=1))
    assert json.loads(result.stdout) == _report(res)
    # the section reaches the run: it routes differently from the defaults
    default = json.loads(runner.invoke(main, args).stdout)
    assert default["intuitive_rate"] != _report(res)["intuitive_rate"]


def test_simulate_with_a_full_pool_completes(runner, tmp_path):
    config = tmp_path / "cap.json"
    config.write_text(json.dumps({"memory": {"capacity": 10}}))
    result = runner.invoke(main, ["simulate", "--sessions", "400", "--recurrence", "0.5",
                                  "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert "sessions      400" in result.stdout


def test_simulate_ablation_matches_evaluate_ablation(runner, k1_config):
    result = runner.invoke(main, [*SIM_ARGS, "--recurrence", "0.5", "--ablation", "--json",
                                  "--config", k1_config])
    assert result.exit_code == 0
    ab = evaluate_ablation(LIB_SIM, MemoryConfig(retrieval_k=1, hint_k=1))
    assert json.loads(result.stdout) == {
        "with_memory": _report(ab.with_memory),
        "without_memory": _report(ab.without_memory),
        "relative_accuracy_gain": round(ab.relative_accuracy_gain, 6),
    }


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


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_corpus_rejects_a_mix_weight_that_is_not_finite(runner, tmp_path, weight):
    res = runner.invoke(main, ["corpus", "--mix", weight, "1", "1", "1", "1", "1",
                               "--scenarios-out", str(tmp_path / "c.jsonl")])
    assert_one_error_line(res)
    assert "finite" in res.stderr
    assert not (tmp_path / "c.jsonl").exists()


def test_corpus_rejects_a_bad_mix(runner, tmp_path):
    res = runner.invoke(main, ["corpus", "--mix", "1", "1", "1", "1", "1", "1",
                               "--scenarios-out", str(tmp_path / "c.jsonl")])
    assert res.exit_code == 1
    assert not (tmp_path / "c.jsonl").exists()
