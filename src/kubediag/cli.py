"""Command line entry points: one-shot diagnosis, document ingest, simulation,
corpus generation.

Exit codes: 0 on success, 1 on any diagnostic, configuration or file error,
2 when a query yields no usable evidence.  All options can also be supplied
through ``KUBEDIAG_*`` environment variables.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

import click

from .controller import MetaController
from .embedding import HashingEmbedder
from .engine import DiagnosticQuery, Engine, Feedback
from .errors import ConfigError, InvalidArgument, InvalidQuery, KubeDiagError, NoEvidence
from .files import as_string, is_finite, short_repr
from .graph import (
    Category,
    GraphEdge,
    GraphNode,
    KnowledgeGraph,
    NodeType,
    Relation,
    SearchConfig,
    checked_field,
    classify_document,
)
from .memory import MemoryConfig, MemoryPool, Outcome
from .scenarios import DEFAULT_MIX, FAULT_CATEGORIES, build_world, save_scenarios
from .simulate import SimulationConfig, evaluate_ablation, run_continuous, write_curve_csv
from .synthesizer import SynthConfig, TemplateStubClient


def _replace_fields(cfg, overrides: dict, section: str):
    if not isinstance(overrides, dict):
        raise ConfigError(f"config section {section} must be a JSON object")
    unknown = sorted(set(overrides) - {f.name for f in dataclasses.fields(cfg)})
    if unknown:
        raise ConfigError(f"unknown {section} config keys: {', '.join(unknown)}")
    cfg = dataclasses.replace(cfg, **overrides)
    try:
        cfg.validate()
    except InvalidArgument as exc:
        raise ConfigError(f"config {section}: {exc}") from exc
    return cfg


def _load_config(path: str | None) -> dict:
    """Optional JSON config with ``memory``, ``search``, ``synth`` and ``tau``
    sections layered over the defaults."""
    memory, search, synth = MemoryConfig(), SearchConfig(), SynthConfig()
    tau = None
    if path:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = sorted(set(raw) - {"memory", "search", "synth", "tau"})
        if unknown:
            raise ConfigError(f"unknown config sections: {', '.join(unknown)}")
        memory = _replace_fields(memory, raw.get("memory", {}), "memory")
        search = _replace_fields(search, raw.get("search", {}), "search")
        synth = _replace_fields(synth, raw.get("synth", {}), "synth")
        if "tau" in raw:
            if not is_finite(raw["tau"]):
                raise ConfigError(f"config tau {short_repr(raw['tau'])} is not a finite number")
            tau = float(raw["tau"])
            if not 0.0 <= tau <= 1.0:
                raise ConfigError(f"config tau must be in [0, 1], got {tau}")
    return {"memory": memory, "search": search, "synth": synth, "tau": tau}


def _triple(raw: dict, category: Category) -> tuple[GraphNode, GraphEdge, GraphNode]:
    """One ingested ``{"src", "dst", "relation", "weight"}`` triple, its ids,
    label and weight checked as a graph file's are."""
    src, dst = (
        GraphNode(as_string(raw[end]["id"], f"triple {end} id"), NodeType(raw[end]["type"]),
                  checked_field(raw[end], "label", f"triple {end}", ""), category=category)
        for end in ("src", "dst")
    )
    edge = GraphEdge(src.id, dst.id, Relation(raw["relation"]),
                     checked_field(raw, "weight", "triple", 0.5))
    edge.validate()
    return src, edge, dst


def _echo(message: str, err: bool = False) -> None:
    # The stream is passed explicitly: click's default-stream cache keeps
    # every ``sys.stdout`` it has seen alive, one per in-process call.
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _guard(fn):
    try:
        fn()
    except NoEvidence as exc:
        _echo(f"no evidence: {exc}", err=True)
        sys.exit(2)
    except (KubeDiagError, OSError) as exc:
        _echo(f"error: {exc}", err=True)
        sys.exit(1)


@click.group(context_settings={"auto_envvar_prefix": "KUBEDIAG"})
def main() -> None:
    """Experience-guided fault diagnosis for Kubernetes clusters."""


@main.command()
@click.argument("symptoms", nargs=-1, required=True)
@click.option("--context", "contexts", multiple=True, help="context label, repeatable")
@click.option("--logs", "logs_path", type=click.Path(exists=True, dir_okay=False),
              help="file with log excerpts")
@click.option("--memory", "memory_path", type=click.Path(), help="episode store (JSONL)")
@click.option("--graph", "graph_path", type=click.Path(), help="knowledge graph (JSON)")
@click.option("--controller", "controller_path", type=click.Path(),
              help="routing controller checkpoint (JSON)")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--now", type=float, default=None,
              help="synthetic timestamp; defaults to wall clock")
@click.option("--feedback", "feedback_outcome",
              type=click.Choice([o.value for o in Outcome]), default=None,
              help="record this outcome for the session")
@click.option("--learn", is_flag=True, help="persist updated stores (needs --feedback)")
@click.option("--trace", "trace_path", type=click.Path(), help="write the session trace JSON")
@click.option("--json", "as_json", is_flag=True, help="machine readable output")
def diagnose(symptoms, contexts, logs_path, memory_path, graph_path, controller_path,
             config_path, now, feedback_outcome, learn, trace_path, as_json) -> None:
    """Diagnose one incident described by SYMPTOMS."""

    def run() -> None:
        if learn and not feedback_outcome:
            raise ConfigError("--learn requires --feedback")
        if learn and not memory_path:
            raise ConfigError("--learn requires --memory to persist episodes")
        if now is not None and not is_finite(now):
            # a NaN would rule out every episode and print "created": NaN
            raise ConfigError(f"--now must be a finite number, got {now}")
        cfg = _load_config(config_path)

        pool = MemoryPool(cfg["memory"])
        if memory_path and os.path.exists(memory_path):
            pool.load_episodes(memory_path)
            snap = memory_path + ".patterns.json"
            if os.path.exists(snap):
                pool.load_pattern_snapshot(snap)
        graph = (
            KnowledgeGraph.load(graph_path)
            if graph_path and os.path.exists(graph_path)
            else KnowledgeGraph()
        )
        controller = (
            MetaController.load(controller_path)
            if controller_path and os.path.exists(controller_path)
            else MetaController()
        )
        if cfg["tau"] is not None:
            controller.state.tau = cfg["tau"]

        engine = Engine(
            pool=pool,
            graph=graph,
            controller=controller,
            client=TemplateStubClient(),
            embedder=HashingEmbedder(cfg["memory"].embedding_dim),
            search_config=cfg["search"],
            synth_config=cfg["synth"],
            clock=(lambda: now) if now is not None else time.time,
        )
        try:
            logs = Path(logs_path).read_text(encoding="utf-8") if logs_path else ""
        except UnicodeDecodeError as exc:
            raise InvalidQuery(f"cannot read logs {logs_path!r}: {exc}") from exc
        query = DiagnosticQuery(
            id="cli", symptoms=list(symptoms), context=set(contexts), logs=logs
        )
        session = engine.diagnose(query)

        trace = session.to_trace() if trace_path or as_json else None
        if trace_path:
            Path(trace_path).write_text(
                json.dumps(trace, sort_keys=True, indent=2) + "\n", encoding="utf-8",
            )
        if as_json:
            _echo(json.dumps(trace, sort_keys=True))
        else:
            sol = session.solution
            _echo(f"pathway     {session.decision.pathway.value}")
            _echo(
                f"confidence  {sol.confidence:.4f}  "
                f"(c_max {session.decision.c_max:.4f}, tau {session.decision.tau_snapshot:.4f})"
            )
            _echo(f"root cause  {sol.root_cause}")
            _echo("steps:")
            for i, step in enumerate(sol.steps, 1):
                _echo(f"  {i}. {step}")
            if sol.reasoning:
                _echo("reasoning:")
                for line in sol.reasoning:
                    _echo(f"  - {line}")
            if sol.sources:
                _echo(f"sources     {', '.join(sol.sources)}")

        if feedback_outcome:
            report = engine.feedback(
                Feedback(session_id=session.id, outcome=Outcome(feedback_outcome))
            )
            if learn:
                pool.save_episodes(memory_path)
                pool.save_pattern_snapshot(memory_path + ".patterns.json")
                if controller_path:
                    controller.save(controller_path)
                if graph_path:
                    engine.graph.save(graph_path)
            if not as_json:
                evicted = (" (evicted: store at capacity)"
                           if report.episode_id and report.episode_id not in pool.episodes
                           else "")
                _echo(
                    f"recorded    {feedback_outcome} as {report.episode_id or 'no episode'}"
                    f"{evicted} (tau {report.tau_before:.4f} -> {report.tau_after:.4f})"
                )

    _guard(run)


@main.command()
@click.argument("inputs", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", type=click.Path(), help="knowledge graph to update")
@click.option("--docs-out", "docs_out", type=click.Path(), help="write cleaned documents (JSONL)")
@click.option("--json", "as_json", is_flag=True)
def ingest(inputs, graph_path, docs_out, as_json) -> None:
    """Classify troubleshooting documents and fold explicit triples into the graph.

    Inputs are ``.jsonl`` files (objects with ``id``, ``text`` and an optional
    ``triples`` list), plain text files (one document per file), or
    directories scanned for the same.  An empty directory yields a zero-count
    report.
    """

    def run() -> None:
        graph = (
            KnowledgeGraph.load(graph_path)
            if graph_path and os.path.exists(graph_path)
            else KnowledgeGraph()
        )
        docs, failures = [], 0
        counts: dict[str, int] = {c.value: 0 for c in Category}
        triples_added = 0

        def one(doc_id: str, text: str, source: str, triples: list) -> None:
            nonlocal triples_added, failures
            try:
                doc = classify_document(doc_id, text, source=source)
                # every triple is checked before the first is added
                parsed = [_triple(t, doc.category) for t in triples]
                graph.check_relations((src, edge.relation, dst) for src, edge, dst in parsed)
                for src, edge, dst in parsed:
                    graph.add_triple(src, edge, dst)
                    triples_added += 1
            except (KubeDiagError, KeyError, TypeError, ValueError) as exc:
                failures += 1
                _echo(f"skipped {doc_id!r}: {exc}", err=True)
                return
            counts[doc.category.value] += 1
            docs.append(doc)

        expanded: list[Path] = []
        explicit_dir = False
        for path in inputs:
            p = Path(path)
            if p.is_dir():
                explicit_dir = True
                expanded.extend(sorted(c for c in p.iterdir() if c.is_file()))
            else:
                expanded.append(p)

        for p in expanded:
            try:
                content = p.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                failures += 1
                _echo(f"skipped {p.name}: {exc}", err=True)
                continue
            if p.suffix == ".jsonl":
                for line_no, line in enumerate(content.splitlines(), 1):
                    if not line.strip():
                        continue
                    try:
                        raw = json.loads(line)
                        doc_id = as_string(raw["id"], "id")
                        text = as_string(raw["text"], "text")
                        triples = raw.get("triples", [])
                        if not isinstance(triples, list):  # list() reads "" or {} as no triples
                            raise TypeError(f"triples {short_repr(triples)} is not a list")
                    except (ValueError, KeyError, TypeError, RecursionError) as exc:
                        failures += 1
                        _echo(f"skipped {p.name}:{line_no}: {exc}", err=True)
                        continue
                    one(doc_id, text, f"{p.name}:{line_no}", triples)
            else:
                one(p.stem, content, p.name, [])

        if docs_out:
            with open(docs_out, "w", encoding="utf-8") as fh:
                for doc in docs:
                    fh.write(
                        json.dumps(
                            {
                                "id": doc.id,
                                "category": doc.category.value,
                                "cleaned_text": doc.cleaned_text,
                                "metadata": doc.metadata,
                            },
                            sort_keys=True,
                        )
                        + "\n"
                    )
        if graph_path:
            graph.save(graph_path)

        if as_json:
            _echo(json.dumps(
                {"documents": len(docs), "failures": failures, "triples": triples_added,
                 "by_category": counts},
                sort_keys=True,
            ))
        else:
            _echo(f"documents   {len(docs)} ingested, {failures} skipped")
            _echo(f"triples     {triples_added}")
            for name in sorted(counts):
                if counts[name]:
                    _echo(f"  {name:<22} {counts[name]}")
        if not docs and not explicit_dir:
            raise ConfigError("no documents ingested")

    _guard(run)


@main.command()
@click.option("--sessions", default=500, show_default=True, help="stream length")
@click.option("--recurrence", default=0.3, show_default=True,
              help="replay probability per slot")
@click.option("--window", default=50, show_default=True, help="learning-curve window size")
@click.option("--seed", default=0, show_default=True)
@click.option("--corpus", default=120, show_default=True, help="distinct scenarios")
@click.option("--no-memory", is_flag=True, help="disable the memory system")
@click.option("--ablation", is_flag=True, help="run paired with/without-memory engines")
@click.option("--csv", "csv_path", type=click.Path(), help="write the learning-curve CSV")
@click.option("--traces", "traces_path", type=click.Path(),
              help="write one session trace per line (JSONL)")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True)
def simulate(sessions, recurrence, window, seed, corpus, no_memory, ablation,
             csv_path, traces_path, config_path, as_json) -> None:
    """Stream generated fault scenarios through a fresh engine.

    With ``--ablation`` the identical stream also runs through a
    memory-disabled twin; ``--csv`` and ``--traces`` then describe the
    memory-enabled engine.
    """

    def run() -> None:
        cfg = _load_config(config_path)
        ignored = [k for k, default in (("tau", None), ("synth", SynthConfig()))
                   if cfg[k] != default]
        if ignored:
            raise ConfigError(f"simulate does not read config sections: {', '.join(ignored)}")
        sim = SimulationConfig(
            total_sessions=sessions, recurrence=recurrence, window=window,
            seed=seed, corpus_size=corpus, memory_enabled=not no_memory,
        )

        def summary(tag: str, res) -> None:
            _echo(f"{tag}sessions      {res.sessions}")
            _echo(f"{tag}accuracy      {res.accuracy:.4f}")
            _echo(f"{tag}intuitive     {res.intuitive_rate:.4f}")
            _echo(f"{tag}mean latency  {res.mean_latency_units:.4f}")
            _echo(f"{tag}no evidence   {res.no_evidence}")

        def as_dict(res) -> dict:
            return {
                "sessions": res.sessions,
                "accuracy": round(res.accuracy, 6),
                "intuitive_rate": round(res.intuitive_rate, 6),
                "mean_latency_units": round(res.mean_latency_units, 6),
                "no_evidence": res.no_evidence,
                "per_category": {k: list(v) for k, v in sorted(res.per_category.items())},
            }

        def write_outputs(engine: Engine, res) -> None:
            if csv_path:
                write_curve_csv(res, csv_path)
            if traces_path:
                with open(traces_path, "w", encoding="utf-8") as fh:
                    for session in engine.sessions.values():
                        fh.write(json.dumps(session.to_trace(), sort_keys=True) + "\n")

        if ablation:
            ab = evaluate_ablation(sim, cfg["memory"], cfg["search"])
            write_outputs(ab.engine, ab.with_memory)
            if as_json:
                _echo(json.dumps(
                    {"with_memory": as_dict(ab.with_memory),
                     "without_memory": as_dict(ab.without_memory),
                     "relative_accuracy_gain": round(ab.relative_accuracy_gain, 6)},
                    sort_keys=True,
                ))
            else:
                _echo("with memory:")
                summary("  ", ab.with_memory)
                _echo("without memory:")
                summary("  ", ab.without_memory)
                _echo(f"relative accuracy gain  {ab.relative_accuracy_gain:.4f}")
                _echo(f"latency delta           {ab.latency_delta:+.4f}")
            return

        res, engine = run_continuous(sim, cfg["memory"], cfg["search"])
        write_outputs(engine, res)
        if as_json:
            _echo(json.dumps(as_dict(res), sort_keys=True))
        else:
            summary("", res)
            _echo("per category:")
            for name, (correct, seen) in sorted(res.per_category.items()):
                _echo(f"  {name:<22} {correct}/{seen}")

    _guard(run)


@main.command()
@click.option("--total", default=120, show_default=True, help="number of scenarios")
@click.option("--seed", default=0, show_default=True)
@click.option("--mix", type=float, nargs=len(DEFAULT_MIX), default=DEFAULT_MIX,
              show_default=True, metavar="SHARE...",
              help="per-category shares (resource network scheduling image configuration system)")
@click.option("--scenarios-out", default="corpus.jsonl", show_default=True,
              type=click.Path(), help="scenario JSONL, reloadable with load_scenarios")
@click.option("--graph-out", type=click.Path(), help="also write the curated causal graph")
def corpus(total, seed, mix, scenarios_out, graph_out) -> None:
    """Generate a fault-scenario corpus and its curated causal graph."""

    def run() -> None:
        scenarios, graph = build_world(seed=seed, total=total, mix=tuple(mix))
        save_scenarios(scenarios_out, scenarios)
        _echo(f"wrote {len(scenarios)} scenarios to {scenarios_out}")
        if graph_out:
            graph.save(graph_out)
            _echo(f"wrote graph ({len(graph.nodes)} nodes, {len(graph.edges)} edges)"
                  f" to {graph_out}")
        counts = Counter(sc.category for sc in scenarios)
        for category in FAULT_CATEGORIES:
            _echo(f"  {category.value:<22} {counts[category]}")

    _guard(run)


if __name__ == "__main__":
    main()
