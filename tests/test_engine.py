import json

import pytest

from helpers import NOW, dense_embeddings, mk_episode
from kubediag.controller import MetaController, Pathway
from kubediag.embedding import HashingEmbedder
from kubediag.engine import DiagnosticQuery, Engine, Feedback
from kubediag.errors import (
    AlreadyRecorded,
    InvalidArgument,
    NoEvidence,
    NotFound,
    SchemaViolation,
    StageFailure,
)
from kubediag.graph import GraphEdge, GraphNode, KnowledgeGraph, NodeType, Relation, SearchConfig
from kubediag.memory import MemoryConfig, MemoryPool, Outcome, make_query
from kubediag.simulate import SimulationConfig, run_continuous
from kubediag.synthesizer import SynthConfig, TemplateStubClient

DIM = 256
EMB = HashingEmbedder(DIM)
SYMPTOM = "pod oomkilled repeatedly"


def tiny_graph():
    g = KnowledgeGraph()
    entry = GraphNode("g-entry", NodeType.POD, SYMPTOM)
    mid = GraphNode("g-mid", NodeType.EVENT, "memory limit hit")
    rc = GraphNode("g-rc", NodeType.ROOT_CAUSE, "container memory limit too low")
    g.add_triple(entry, GraphEdge("g-entry", "g-mid", Relation.CAUSES, 0.9), mid)
    g.add_triple(mid, GraphEdge("g-mid", "g-rc", Relation.CAUSES, 0.9), rc)
    return g


def fresh_engine(graph=None, seed_memory=False, trials=8, successes=8, **kwargs):
    pool = MemoryPool(MemoryConfig(embedding_dim=DIM))
    if seed_memory:
        q = make_query(EMB, [SYMPTOM])
        pool.insert_episode(
            mk_episode(
                "e1",
                q.embedding,
                ts=NOW,
                path=["g-mid", "g-rc"],
                symptoms=(SYMPTOM,),
                actions=("raise the memory limit", "redeploy"),
                trials=trials,
                successes=successes,
            )
        )
    return Engine(
        pool=pool,
        graph=graph if graph is not None else tiny_graph(),
        controller=MetaController(),
        client=TemplateStubClient(),
        embedder=EMB,
        search_config=SearchConfig(),
        clock=lambda: NOW,
        **kwargs,
    )


def ask(engine, symptoms=(SYMPTOM,), qid="q1", force=None):
    return engine.diagnose(DiagnosticQuery(id=qid, symptoms=list(symptoms)), force_pathway=force)


# ---------------------------------------------------------------------------
# diagnosis pathways


def test_cold_start_routes_analytical():
    session = ask(fresh_engine())
    assert session.decision.pathway is Pathway.ANALYTICAL
    assert session.decision.c_max == 0.0
    assert session.chains
    assert session.chains[0].node_ids == ["g-entry", "g-mid", "g-rc"]
    assert session.context.mode == "analytical"
    assert session.solution.root_cause == "container memory limit too low"
    assert session.latency_units == 10.0


def test_strong_memory_routes_intuitive():
    session = ask(fresh_engine(seed_memory=True))
    # Laplace success factor (8+1)/(8+2) with perfect similarity/recency
    assert session.decision.c_max == pytest.approx(0.9)
    assert session.decision.pathway is Pathway.INTUITIVE
    assert session.chains is None
    assert session.context.mode == "intuitive"
    assert session.solution.steps == ["raise the memory limit", "redeploy"]
    assert session.solution.sources == ["e1"]
    assert session.latency_units == 1.0


def test_confidence_stays_consistent_with_routing():
    fast = ask(fresh_engine(seed_memory=True))
    assert fast.solution.confidence <= fast.decision.c_max + 1e-12
    slow = ask(fresh_engine())
    assert slow.solution.confidence >= slow.decision.c_max - 1e-12
    assert 0.0 <= fast.solution.confidence <= 1.0


def test_session_ids_are_sequential():
    eng = fresh_engine()
    a, b = ask(eng, qid="q1"), ask(eng, qid="q2")
    assert (a.id, b.id) == ("s000001", "s000002")
    assert set(eng.sessions) == {"s000001", "s000002"}


def test_fresh_engines_produce_identical_traces():
    t1 = ask(fresh_engine(seed_memory=True)).to_trace()
    t2 = ask(fresh_engine(seed_memory=True)).to_trace()
    assert json.dumps(t1, sort_keys=True) == json.dumps(t2, sort_keys=True)


def test_trace_schema():
    trace = ask(fresh_engine(seed_memory=True)).to_trace()
    assert trace["schema_version"] == 2
    assert set(trace) >= {
        "session_id",
        "query",
        "retrieval",
        "decision",
        "chains",
        "solution",
        "latency_units",
        "created",
    }
    # the routing rule must be recomputable from the trace alone, and is all
    # the decision records
    decision = trace["decision"]
    assert set(decision) == {"pathway", "c_max", "tau_snapshot"}
    assert (decision["pathway"] == "intuitive") == (decision["c_max"] > decision["tau_snapshot"])
    assert "wall_latency_s" not in json.dumps(trace)
    json.dumps(trace)  # fully serializable


def test_forced_analytical_sees_everything_intuitive_saw():
    eng = fresh_engine(seed_memory=True)
    fast = ask(eng, qid="q-fast", force=Pathway.INTUITIVE)
    slow = ask(eng, qid="q-slow", force=Pathway.ANALYTICAL)
    fast_ids = {m.id for m in fast.context.memories}
    slow_ids = {m.id for m in slow.context.memories}
    assert fast_ids <= slow_ids
    assert slow.solution.confidence >= fast.solution.confidence - 1e-12


def test_no_evidence_raised_on_empty_world():
    eng = fresh_engine(graph=KnowledgeGraph())
    with pytest.raises(NoEvidence):
        ask(eng)


def test_memory_disabled_ignores_seeded_pool():
    eng = fresh_engine(seed_memory=True, memory_enabled=False)
    session = ask(eng)
    assert session.retrieval.memories == []
    assert session.decision.pathway is Pathway.ANALYTICAL
    assert session.solution.root_cause == "container memory limit too low"
    report = eng.feedback(Feedback(session_id=session.id, outcome=Outcome.SUCCESS))
    assert report.episode_id is None
    assert len(eng.pool) == 1  # untouched seed


class ExplodingClient:
    def complete(self, request_json):
        raise RuntimeError("backend down")


def test_broken_client_surfaces_stage_name():
    eng = fresh_engine()
    eng.client = ExplodingClient()
    with pytest.raises(StageFailure) as exc_info:
        ask(eng)
    assert "synthesize" in str(exc_info.value)
    assert "backend down" in str(exc_info.value)


# ---------------------------------------------------------------------------
# feedback and learning


def test_feedback_unknown_session():
    with pytest.raises(NotFound):
        fresh_engine().feedback(Feedback(session_id="s999999", outcome=Outcome.SUCCESS))


def test_feedback_twice_rejected():
    eng = fresh_engine()
    session = ask(eng)
    eng.feedback(Feedback(session_id=session.id, outcome=Outcome.SUCCESS))
    with pytest.raises(AlreadyRecorded):
        eng.feedback(Feedback(session_id=session.id, outcome=Outcome.FAILURE))


def test_feedback_success_reinforces_cited_memory():
    eng = fresh_engine(seed_memory=True)
    session = ask(eng)
    report = eng.feedback(Feedback(session_id=session.id, outcome=Outcome.SUCCESS))
    assert report.value_updates == {"e1": pytest.approx(1.1)}
    episode = eng.pool.episode("e1")
    assert (episode.trials, episode.successes) == (9, 9)


def test_feedback_inserts_episode_from_session():
    eng = fresh_engine(seed_memory=True)
    session = ask(eng)
    report = eng.feedback(Feedback(session_id=session.id, outcome=Outcome.SUCCESS))
    assert report.episode_id == "ep-000001"
    episode = eng.pool.episode("ep-000001")
    assert episode.symptoms == [SYMPTOM]
    assert episode.actions == session.solution.steps
    assert (episode.trials, episode.successes) == (1, 1)
    assert episode.resolution_path == ["g-mid", "g-rc"]  # copied from the cited memory
    assert episode.vector.dense().tobytes() == EMB.embed(SYMPTOM).tobytes()
    assert session.query_embedding is None  # the episode's vector is all that is kept


def test_feedback_failure_stores_no_resolution_path():
    eng = fresh_engine(seed_memory=True)
    session = ask(eng)
    report = eng.feedback(Feedback(session_id=session.id, outcome=Outcome.FAILURE))
    episode = eng.pool.episode(report.episode_id)
    assert episode.resolution_path == []
    assert (episode.trials, episode.successes) == (1, 0)


def test_feedback_analytical_success_stores_chain_path():
    eng = fresh_engine()
    session = ask(eng)
    report = eng.feedback(Feedback(session_id=session.id, outcome=Outcome.SUCCESS))
    episode = eng.pool.episode(report.episode_id)
    assert episode.resolution_path == ["g-entry", "g-mid", "g-rc"]


def test_feedback_records_controller_history():
    eng = fresh_engine(seed_memory=True)
    session = ask(eng)
    report = eng.feedback(Feedback(session_id=session.id, outcome=Outcome.SUCCESS))
    assert report.history_len == len(eng.controller.state.history) == 1
    record = eng.controller.state.history[0]
    assert session.decision.pathway is Pathway.INTUITIVE
    assert record.c_max == session.decision.c_max == session.retrieval.c_max
    assert record.factors == session.retrieval.memories[0].factors
    assert record.fast_sufficient is True


def test_feedback_without_memories_records_floor_factors():
    eng = fresh_engine(memory_enabled=False)
    session = ask(eng)
    eng.feedback(Feedback(session_id=session.id, outcome=Outcome.SUCCESS))
    record = eng.controller.state.history[0]
    assert (record.c_max, record.factors, record.fast_sufficient) == (0.0, (1e-7,) * 4, False)


def test_repeated_failures_raise_threshold():
    # seed at Laplace (2+1)/(2+2) so c_max sits right at the initial threshold
    eng = fresh_engine(graph=KnowledgeGraph(), seed_memory=True, trials=2, successes=2)
    taus = []
    for i in range(12):
        session = ask(eng, qid=f"q{i}")
        report = eng.feedback(Feedback(session_id=session.id, outcome=Outcome.FAILURE))
        taus.append(report.tau_after)
        assert report.tau_after >= report.tau_before  # never drops on failures
    assert taus[-1] > 0.75


def test_repeated_successes_form_pattern():
    eng = fresh_engine(seed_memory=True)
    touched = []
    for i in range(3):
        session = ask(eng, qid=f"q{i}")
        report = eng.feedback(Feedback(session_id=session.id, outcome=Outcome.SUCCESS))
        touched.extend(report.patterns_touched)
    assert touched
    assert eng.pool.patterns


def test_discovered_relations_swap_graph_atomically():
    eng = fresh_engine()
    old = eng.graph
    session = ask(eng)
    a = GraphNode("fb-src", NodeType.EVENT, "kernel oom killer fired")
    b = GraphNode("fb-dst", NodeType.ROOT_CAUSE, "host memory exhausted")
    report = eng.feedback(
        Feedback(
            session_id=session.id,
            outcome=Outcome.SUCCESS,
            discovered_relations=[(a, Relation.CAUSES, b)],
        )
    )
    assert report.edges_confirmed == ["fb-src -(causes)-> fb-dst @ 0.5"]
    assert eng.graph is not old
    assert "fb-src" not in old.nodes
    assert eng.graph.edges[("fb-src", "causes", "fb-dst")].weight == pytest.approx(0.5)
    # a second confirmation reinforces rather than resets
    session2 = ask(eng, qid="q2")
    report2 = eng.feedback(
        Feedback(
            session_id=session2.id,
            outcome=Outcome.SUCCESS,
            discovered_relations=[(a, Relation.CAUSES, b)],
        )
    )
    assert report2.edges_confirmed == ["fb-src -(causes)-> fb-dst @ 0.6"]


def _store_state(eng):
    return (
        {eid: (ep.trials, ep.successes, ep.memory_value) for eid, ep in eng.pool.episodes.items()},
        {pid: set(p.member_ids) for pid, p in eng.pool.patterns.items()},
        list(eng.controller.state.history),
        eng.controller.tau,
        eng.controller.factor_weights,
        {nid: n.node_type for nid, n in eng.graph.nodes.items()},
        {key: e.weight for key, e in eng.graph.edges.items()},
    )


OOM = GraphNode("fb-src", NodeType.EVENT, "kernel oom killer fired")
HOST = GraphNode("fb-dst", NodeType.ROOT_CAUSE, "host memory exhausted")


@pytest.mark.parametrize(
    "bad, error",
    [
        # g-mid is an event in the graph
        ([(OOM, Relation.CAUSES, GraphNode("g-mid", NodeType.ROOT_CAUSE, "limit hit"))],
         SchemaViolation),
        # fb-src is new, but typed differently by two relations of one list
        ([(OOM, Relation.CAUSES, HOST),
          (GraphNode("fb-src", NodeType.POD, "oom"), Relation.CAUSES, HOST)],
         SchemaViolation),
        ([(OOM, Relation.CAUSES, HOST), (HOST, Relation.CAUSES, HOST)], InvalidArgument),
    ],
    ids=["retypes-graph-node", "retypes-within-list", "self-loop"],
)
def test_rejected_relations_change_no_store(bad, error):
    eng = fresh_engine(seed_memory=True)
    for i in range(10):  # past the history minimum, so tau and weights would move
        session = ask(eng, qid=f"q{i}")
        eng.feedback(Feedback(session_id=session.id, outcome=Outcome.SUCCESS))
    session = ask(eng, qid="q-bad")
    before = _store_state(eng)
    graph = eng.graph
    with pytest.raises(error):
        eng.feedback(Feedback(session_id=session.id, outcome=Outcome.SUCCESS,
                              discovered_relations=bad))
    assert _store_state(eng) == before
    assert eng.graph is graph
    # the session was not marked fed: a corrected feedback goes through
    report = eng.feedback(Feedback(session_id=session.id, outcome=Outcome.SUCCESS,
                                   discovered_relations=[(OOM, Relation.CAUSES, HOST)]))
    assert report.edges_confirmed == ["fb-src -(causes)-> fb-dst @ 0.5"]
    assert report.history_len == len(before[2]) + 1
    assert report.episode_id not in before[0]


class DoublingEmbedder:
    """Returns twice the unit vector, so the feedback's episode fails its
    norm check."""

    dim = DIM

    def embed(self, text):
        return 2.0 * EMB.embed(text)


def test_feedback_whose_episode_fails_its_check_changes_no_store():
    seeded = fresh_engine(seed_memory=True)
    eng = Engine(pool=seeded.pool, graph=tiny_graph(), embedder=DoublingEmbedder(),
                 clock=lambda: NOW)
    session = ask(eng)
    before = _store_state(eng)
    seq = eng._episode_seq
    # the first call must not mark the session fed: a retry raises the same
    # error, not AlreadyRecorded
    for _ in range(2):
        with pytest.raises(InvalidArgument, match="norm"):
            eng.feedback(Feedback(session_id=session.id, outcome=Outcome.SUCCESS))
        assert _store_state(eng) == before
        assert eng._episode_seq == seq
        assert session.query_embedding is not None


def test_feedback_whose_episode_its_own_insert_evicts():
    # the stored episode outvalues the new one, so a full pool evicts the
    # new episode on insert; feedback must not form patterns around it
    pool = MemoryPool(MemoryConfig(embedding_dim=DIM, capacity=1))
    pool.insert_episode(mk_episode("e1", EMB.embed(SYMPTOM), value=2.0, path=["g-mid", "g-rc"],
                                   symptoms=(SYMPTOM,), trials=8, successes=8))
    eng = Engine(pool=pool, graph=tiny_graph(), embedder=EMB, clock=lambda: NOW)
    report = eng.feedback(Feedback(session_id=ask(eng).id, outcome=Outcome.SUCCESS))
    assert report.episode_id == "ep-000001"
    assert set(eng.pool.episodes) == {"e1"}
    assert report.patterns_touched == []
    assert report.value_updates == {"e1": pytest.approx(2.2)}
    assert report.history_len == 1


def test_engine_rejects_an_embedder_of_another_dimension():
    # caught at construction, not at the first feedback's insert
    with pytest.raises(InvalidArgument, match="64"):
        Engine(pool=MemoryPool(MemoryConfig()), embedder=HashingEmbedder(64), graph=tiny_graph())


@pytest.mark.parametrize("build, named", [
    (lambda: Engine(graph=tiny_graph(), search_config=SearchConfig(beam=2.5)),
     "beam 2.5 is not an integer"),
    (lambda: Engine(graph=tiny_graph(), search_config=SearchConfig(alphas=(0.5, 0.5))),
     "alphas (0.5, 0.5) is not a list of 3"),
    (lambda: Engine(graph=tiny_graph(), synth_config=SynthConfig(max_retries=-1)),
     "max_retries must be >= 0"),
    (lambda: MemoryPool(MemoryConfig(retrieval_k=10.5)), "retrieval_k 10.5 is not an integer"),
], ids=["float-beam", "two-alphas", "negative-retries", "float-retrieval-k"])
def test_configs_are_checked_when_their_user_is_built(build, named):
    # not at the first diagnosis, as a failure of the stage that reads them
    with pytest.raises(InvalidArgument) as caught:
        build()
    assert named in str(caught.value)


@pytest.mark.parametrize("capacity", [3, 5, 10])
def test_full_pool_accepts_every_feedback(capacity):
    # feedback reads each hit's own memory, which the new episode's insert
    # may just have evicted
    for seed in range(4):
        sim = SimulationConfig(total_sessions=400, recurrence=0.5, seed=seed)
        res, engine = run_continuous(sim, MemoryConfig(capacity=capacity))
        assert res.sessions == 400
        assert len(engine.sessions) == 400 - res.no_evidence
        assert all(s.query_embedding is None for s in engine.sessions.values())
        assert len(engine.pool.episodes) == capacity


def test_no_stored_episode_or_fed_session_keeps_a_dense_embedding():
    # 2,048 floats are 16 KB, and the engine keeps every session and up to
    # capacity episodes
    res, engine = run_continuous(SimulationConfig(total_sessions=400, recurrence=0.5, seed=0))
    dim = engine.pool.config.embedding_dim
    assert all(s.query_embedding is None for s in engine.sessions.values())
    assert len(engine.pool.episodes) == len(engine.sessions) == 400 - res.no_evidence
    holders = [*engine.pool.episodes.values(), *engine.sessions.values()]
    assert [obj for obj in holders if dense_embeddings(obj, dim)] == []
    embedder = HashingEmbedder(dim)
    for ep in engine.pool.episodes.values():
        assert ep.vector.dense().tobytes() == embedder.embed(" ".join(ep.symptoms)).tobytes()
