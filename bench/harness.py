"""The benchmark's three workloads: inputs from a seed, one round, output checks.

Every workload is a closed loop with one client and no threads: each
diagnosis is followed by its feedback before the next query is sent.  A round
replays the workload's whole input sequence against fresh engine state, so
every round does identical work and yields identical diagnoses; a run repeats
whole rounds until its time is up.  The benchmark calls only the public API:
``Engine.diagnose``, ``Engine.feedback``, the package's world and stream
builders, and the ``kubediag.cli.main`` entry point.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

from kubediag import cli
from kubediag.controller import Pathway
from kubediag.engine import MATCH_THRESHOLD, DiagnosticQuery, Engine, Feedback
from kubediag.errors import NoEvidence
from kubediag.graph import GraphEdge, GraphNode, NodeType, Relation, priority
from kubediag.memory import Outcome
from kubediag.scenarios import build_world, scenario_to_dict
from kubediag.simulate import SimulationConfig, TickClock, build_stream, make_engine, run_stream
from kubediag.text import token_overlap, tokenize

RECURRENCE = 0.5
CORPUS = 120


def _probe_work() -> int:
    total, table = 0, {}
    for i in range(5000):
        total += i * i
        table[i & 255] = total
    return total


@contextmanager
def collector_off():
    """Hold the cyclic collector off inside the block; a pass that
    allocations here would start runs at the next allocation after it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def probe_ms() -> float:
    """Time of a fixed piece of pure-Python work: the host's speed right now.

    The host's speed drifts by up to 1.5x over seconds to minutes, CPU time
    included, so the benchmark times this probe next to the program's work
    and scales the program's timings by it.  The collector is held off, so
    none of its passes land here.
    """
    with collector_off():
        t0 = perf_counter()
        _probe_work()
        return (perf_counter() - t0) * 1e3


@dataclass
class Recorder:
    """Timings and outcomes of every operation in a run."""

    diagnose_ms: list[float] = field(default_factory=list)
    op_ms: list[float] = field(default_factory=list)  # diagnose plus feedback
    probe_ms: list[float] = field(default_factory=list)  # the probe after each operation
    attempted: int = 0
    correct: int = 0
    intuitive: int = 0
    no_evidence: int = 0
    errors: int = 0
    problems: list[str] = field(default_factory=list)  # failed output checks

    def timed(self, diagnose_ms: float, op_ms: float) -> None:
        """Record one operation's times, then probe the host's speed."""
        self.diagnose_ms.append(diagnose_ms)
        self.op_ms.append(op_ms)
        self.probe_ms.append(probe_ms())

    def error(self, where: str) -> None:
        """Count a failed operation; the first one is reported on stderr."""
        self.errors += 1
        if self.errors == 1:
            detail = traceback.format_exc() if sys.exc_info()[0] else ""
            print(f"error in {where}\n{detail}", file=sys.stderr)


def matches(proposed: str, truth: str) -> bool:
    """The simulator's scoring rule: token overlap at the engine match threshold."""
    return token_overlap(proposed, truth) >= MATCH_THRESHOLD


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def query_of(sc) -> DiagnosticQuery:
    return DiagnosticQuery(id=sc.id, symptoms=list(sc.symptoms), context=set(sc.context),
                           logs=sc.logs)


@contextmanager
def untimed(tracer):
    """The benchmark's own work between timed calls.

    It is not traced, and the cyclic collector is held off, so a pass that
    allocations here would start runs in the program's next timed call and
    stays in the measured time.
    """
    with collector_off(), tracer.paused():
        yield


def _stream_payload(stream) -> list[dict]:
    return [scenario_to_dict(sc) for sc in stream]


def _timed_pair(engine: Engine, sc, rec: Recorder, tracer, session, make_feedback, check=None):
    """One closed-loop operation: diagnose, score, feed back.

    Returns ``(pathway, root cause, correct)`` for the round digest.  Scoring
    and output checks run between the two calls, outside both timings.
    """
    tracer.session = session
    rec.attempted += 1
    t0 = perf_counter()
    try:
        result = engine.diagnose(query_of(sc))
    except NoEvidence:
        ms = (perf_counter() - t0) * 1e3
        rec.timed(ms, ms)
        rec.no_evidence += 1
        return ("no-evidence", "", False)
    except Exception:  # counted as an error; the loop must keep measuring
        rec.error(f"diagnose {sc.id}")
        return ("error", "", False)
    diag = (perf_counter() - t0) * 1e3
    with untimed(tracer):
        ok = matches(result.solution.root_cause, sc.root_cause)
        if check is not None:
            rec.problems.extend(check(engine, result))
        fb = make_feedback(result, sc, ok)
    t2 = perf_counter()
    try:
        engine.feedback(fb)
    except Exception:
        rec.error(f"feedback {sc.id}")
        return ("error", result.solution.root_cause, ok)
    fbk = (perf_counter() - t2) * 1e3
    rec.timed(diag, diag + fbk)
    rec.correct += ok
    rec.intuitive += result.decision.pathway is Pathway.INTUITIVE
    return (result.decision.pathway.value, result.solution.root_cause, ok)


def _scored_feedback(result, sc, ok: bool) -> Feedback:
    """Feedback exactly as ``run_stream`` builds it."""
    return Feedback(
        session_id=result.id,
        outcome=Outcome.SUCCESS if ok else Outcome.FAILURE,
        confirmed_root_cause=sc.root_cause if ok else "",
    )


# ---------------------------------------------------------------------------
# stream-recurrent


class StreamRecurrent:
    """The paper's continuous-operation loop on a fresh default engine."""

    name = "stream-recurrent"
    setup_repeats = 5
    required = (
        "engine.diagnose", "engine.feedback", "memory.retrieve", "memory.novelty",
        "memory.hints", "memory.insert_episode", "memory.update_outcome",
        "memory.form_patterns_incremental", "memory.compute_factors",
        "controller.adapt_threshold", "controller.update_factor_weights",
        "embedding.embed", "graph.seed_nodes", "graph.explore",
        "synthesizer.build_context", "synthesizer.synthesize", "synthesizer.complete",
    )

    def __init__(self, sessions: int = 400) -> None:
        self.sessions = sessions

    def inputs(self, seed: int) -> dict:
        scenarios, graph = build_world(seed, CORPUS)
        cfg = SimulationConfig(total_sessions=self.sessions, recurrence=RECURRENCE,
                               seed=seed, corpus_size=CORPUS)
        return {"graph": graph, "stream": build_stream(scenarios, cfg)}

    def fingerprint(self, inputs) -> object:
        return {"stream": _stream_payload(inputs["stream"]), "graph": inputs["graph"].to_dict()}

    def setup(self, inputs) -> dict:
        return inputs

    def run_round(self, state, rec: Recorder, tracer, round_no: int) -> str:
        with tracer.paused():
            engine = make_engine(state["graph"])
        lines = []
        for i, sc in enumerate(state["stream"]):
            out = _timed_pair(engine, sc, rec, tracer, (round_no, i), _scored_feedback)
            lines.append("|".join(map(str, (sc.id,) + out)))
        tracer.gauges["memory.episodes"] = len(engine.pool.episodes)
        tracer.gauges["memory.patterns"] = len(engine.pool.patterns)
        return digest(lines)

    def close(self, state) -> None:
        pass


# ---------------------------------------------------------------------------
# graph-large

_RELATIONS = sorted(Relation, key=lambda r: r.value)
_ENTITY_TYPES = sorted((t for t in NodeType if t is not NodeType.ROOT_CAUSE),
                       key=lambda t: t.value)


def _topics(scenarios) -> list[list[str]]:
    """Distinct symptom token sets of the corpus, without the per-instance suffix."""
    seen = set()
    for sc in scenarios:
        base = sc.symptoms[0] + " " + sc.symptoms[1].rsplit(" replica ", 1)[0]
        seen.add(tuple(sorted(set(tokenize(base)))))
    return [list(t) for t in sorted(seen)]


def synthetic_graph_spec(seed: int, scenarios, nodes: int, out_degree: int = 6,
                         layers: int = 4, per_layer_topic: int = 2):
    """A layered causal graph: ``layers`` equal layers, the last of root causes,
    each other node linked to ``out_degree`` nodes of the next layer.

    Labels come from the corpus's symptom vocabulary.  For every incident
    template, ``per_layer_topic`` nodes in each non-root layer take 5-7 of its
    symptom tokens, enough to be seeded by its queries; so every query seeds
    the same number of nodes at the same depths, whatever the seed, and the
    search cost varies little from query to query.  The other nodes take 2-4
    random tokens and are seeded rarely.  Weights stay in [0.1, 0.6], below the
    world graph's chains.  Returns ``(nodes, edges)`` as plain tuples.
    """
    rng = random.Random(f"graph-large/{seed}")
    topics = _topics(scenarios)
    vocab = sorted({tok for t in topics for tok in t})
    per_layer = nodes // layers
    topical: dict[int, list[str]] = {}
    for layer in range(layers - 1):
        slots = rng.sample(range(layer * per_layer, (layer + 1) * per_layer),
                           per_layer_topic * len(topics))
        topical.update(zip(slots, [t for t in topics for _ in range(per_layer_topic)]))
    node_rows, edge_rows = [], []
    by_layer: list[list[str]] = [[] for _ in range(layers)]
    for i in range(per_layer * layers):
        layer = i // per_layer
        nid = f"syn:{i:05d}"
        ntype = NodeType.ROOT_CAUSE if layer == layers - 1 else rng.choice(_ENTITY_TYPES)
        if i in topical:
            words = rng.sample(topical[i], min(len(topical[i]), rng.randint(5, 7)))
        else:
            words = rng.sample(vocab, rng.randint(2, 4))
        node_rows.append((nid, ntype.value, " ".join(words)))
        by_layer[layer].append(nid)
    for layer in range(layers - 1):
        for src in by_layer[layer]:
            for dst in rng.sample(by_layer[layer + 1], out_degree):
                edge_rows.append((src, dst, rng.choice(_RELATIONS).value,
                                  round(rng.uniform(0.1, 0.6), 3)))
    return node_rows, edge_rows


def check_chains(engine: Engine, result) -> list[str]:
    """Every chain is a simple path over existing edges ending at its only
    root cause within ``max_hops``, scores as ``graph.priority`` recomputes it,
    and the chains come back in rank order."""
    graph, cfg = engine.graph, engine.search_config
    memory_paths = engine.pool.memory_paths(result.retrieval)
    problems = []
    keys = []
    for chain in result.chains or []:
        ids = chain.node_ids
        rels = [rel for _, rel in chain.steps[1:]]
        where = f"{result.query.id}: chain {ids}"
        if len(set(ids)) != len(ids):
            problems.append(f"{where} is not a simple path")
        if chain.steps[0][1] is not None or not 1 <= chain.hop_count <= cfg.max_hops:
            problems.append(f"{where} has a bad shape")
        if any((a, r.value, b) not in graph.edges for a, r, b in zip(ids, rels, ids[1:])):
            problems.append(f"{where} uses a missing edge")
            continue
        types = [graph.nodes[n].node_type for n in ids]
        if types[-1] is not NodeType.ROOT_CAUSE or NodeType.ROOT_CAUSE in types[:-1]:
            problems.append(f"{where} does not end at its only root cause")
        expect = priority(ids, memory_paths, ids[:-1], graph, cfg, rels)
        if chain.score != expect:
            problems.append(f"{where} scores {chain.score!r}, priority gives {expect!r}")
        keys.append((-chain.score, -chain.path_score, tuple(ids)))
    if keys != sorted(keys):
        problems.append(f"{result.query.id}: chains are not in rank order")
    if len(keys) > cfg.n_chains:
        problems.append(f"{result.query.id}: more than n_chains chains")
    return problems


class GraphLarge:
    """Memory disabled; every diagnosis searches a ~5k-node graph and every
    feedback writes the top chain's edges back into it."""

    name = "graph-large"
    setup_repeats = 3
    required = (
        "engine.diagnose", "engine.feedback", "graph.seed_nodes", "graph.explore",
        "graph.path_score", "graph.copy", "graph.confirm_relation",
        "controller.adapt_threshold", "controller.update_factor_weights", "embedding.embed",
        "synthesizer.build_context", "synthesizer.synthesize", "synthesizer.complete",
    )

    def __init__(self, corpus: int = CORPUS, nodes: int = 5000) -> None:
        self.corpus = corpus
        self.nodes = nodes

    def inputs(self, seed: int) -> dict:
        scenarios, world = build_world(seed, self.corpus)
        return {"world": world, "stream": scenarios,
                "synthetic": synthetic_graph_spec(seed, scenarios, self.nodes)}

    def fingerprint(self, inputs) -> object:
        return {"stream": _stream_payload(inputs["stream"]), "world": inputs["world"].to_dict(),
                "synthetic": inputs["synthetic"]}

    def setup(self, inputs) -> dict:
        graph = inputs["world"].copy()
        node_rows, edge_rows = inputs["synthetic"]
        for nid, ntype, label in node_rows:
            graph.upsert_node(GraphNode(nid, NodeType(ntype), label))
        for src, dst, rel, w in edge_rows:
            graph.add_triple(graph.nodes[src], GraphEdge(src, dst, Relation(rel), w),
                             graph.nodes[dst])
        # warm-up: one diagnosis embeds every node label into the graph's cache
        Engine(graph=graph, memory_enabled=False, clock=TickClock()).diagnose(
            query_of(inputs["stream"][0]))
        return {"graph": graph, "stream": inputs["stream"]}

    def run_round(self, state, rec: Recorder, tracer, round_no: int) -> str:
        with tracer.paused():
            engine = make_engine(state["graph"], memory_enabled=False)

        def feedback(result, sc, ok):
            fb = _scored_feedback(result, sc, ok)
            if result.chains:
                steps = result.chains[0].steps
                for (src, _), (dst, rel) in zip(steps, steps[1:]):
                    fb.discovered_relations.append((_copy_node(engine, src), rel,
                                                    _copy_node(engine, dst)))
            return fb

        lines = []
        for i, sc in enumerate(state["stream"]):
            out = _timed_pair(engine, sc, rec, tracer, (round_no, i), feedback, check_chains)
            lines.append("|".join(map(str, (sc.id,) + out)))
        tracer.gauges["memory.episodes"] = len(engine.pool.episodes)
        tracer.gauges["memory.patterns"] = len(engine.pool.patterns)
        return digest(lines)

    def close(self, state) -> None:
        pass


def _copy_node(engine: Engine, nid: str) -> GraphNode:
    n = engine.graph.nodes[nid]
    return GraphNode(n.id, n.node_type, n.label)


# ---------------------------------------------------------------------------
# cli-oneshot


def _invoke_cli(args: list[str]) -> int:
    try:
        cli.main(args=args, prog_name="kubediag")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return 0


class CliOneshot:
    """One in-process ``kubediag diagnose ... --json`` call per operation
    against stores saved from a stream prefix.

    Read-only: ``--feedback ... --learn`` against a non-empty store fails with
    ``DuplicateId`` at this commit, because every process numbers episodes
    from ``ep-000001``.
    """

    name = "cli-oneshot"
    setup_repeats = 3
    required = (
        "cli.diagnose", "engine.diagnose", "memory.load_episodes",
        "memory.load_pattern_snapshot", "memory.retrieve", "memory.novelty",
        "memory.compute_factors", "graph.load", "controller.load", "embedding.embed",
        "synthesizer.build_context", "synthesizer.synthesize", "synthesizer.complete",
    )

    def __init__(self, prefix: int = 150, corpus: int = CORPUS, workdir: str = ".") -> None:
        self.prefix = prefix
        self.corpus = corpus
        self.workdir = workdir

    def inputs(self, seed: int) -> dict:
        scenarios, graph = build_world(seed, self.corpus)
        cfg = SimulationConfig(total_sessions=self.prefix, recurrence=RECURRENCE,
                               seed=seed, corpus_size=self.corpus)
        return {"graph": graph, "prefix": build_stream(scenarios, cfg), "queries": scenarios}

    def fingerprint(self, inputs) -> object:
        return {"prefix": _stream_payload(inputs["prefix"]), "graph": inputs["graph"].to_dict(),
                "queries": _stream_payload(inputs["queries"])}

    def setup(self, inputs) -> dict:
        engine = make_engine(inputs["graph"])
        run_stream(engine, inputs["prefix"])
        os.makedirs(self.workdir, exist_ok=True)
        store = tempfile.mkdtemp(prefix="cli-stores-", dir=self.workdir)
        memory = os.path.join(store, "episodes.jsonl")
        graph = os.path.join(store, "graph.json")
        controller = os.path.join(store, "controller.json")
        engine.pool.save_episodes(memory)
        engine.pool.save_pattern_snapshot(memory + ".patterns.json")
        engine.graph.save(graph)
        engine.controller.save(controller)
        # the simulator's clock one tick after the prefix, so recency is reproducible
        now = engine.clock.now + engine.clock.step
        store_args = ["--memory", memory, "--graph", graph, "--controller", controller,
                      "--now", repr(now), "--json"]
        calls = []
        for sc in inputs["queries"]:
            ctx = [a for label in sorted(sc.context) for a in ("--context", label)]
            calls.append((sc, ["diagnose", *sc.symptoms, *ctx, *store_args]))
        return {"store": store, "calls": calls}

    def run_round(self, state, rec: Recorder, tracer, round_no: int) -> str:
        lines = []
        for i, (sc, args) in enumerate(state["calls"]):
            tracer.session = (round_no, i)
            rec.attempted += 1
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                code = tracer.call("cli.diagnose", _invoke_cli, args)
            ms = (perf_counter() - t0) * 1e3
            if code == 2:
                rec.no_evidence += 1
                result = ("no-evidence", "", False)
            elif code != 0:
                rec.error(f"kubediag {' '.join(args)} exited {code}: {err.getvalue()}")
                continue
            else:
                try:
                    with untimed(tracer):
                        trace = json.loads(out.getvalue())
                    pathway = trace["decision"]["pathway"]
                    root = trace["solution"]["root_cause"]
                except (ValueError, KeyError, TypeError) as exc:
                    rec.problems.append(f"{sc.id}: unparsable --json trace: {exc}")
                    continue
                ok = matches(root, sc.root_cause)
                rec.correct += ok
                rec.intuitive += pathway == Pathway.INTUITIVE.value
                result = (pathway, root, ok)
            rec.timed(ms, ms)
            lines.append("|".join(map(str, (sc.id,) + result)))
        return digest(lines)

    def close(self, state) -> None:
        shutil.rmtree(state["store"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (StreamRecurrent, GraphLarge, CliOneshot)}
