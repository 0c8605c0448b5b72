"""Dual-path diagnosis engine: retrieval, routing, synthesis and feedback.

A diagnosis either takes the fast path (memory retrieval straight into
synthesis) or the deliberate path (retrieval, exploration hints, causal graph
search, then synthesis).  Feedback stores a new episode, revalues the source
memories and replays the controller's history.  Graph edges are confirmed
only from ``Feedback.discovered_relations``, which neither ``simulate`` nor
``diagnose --learn`` passes yet.  An accepted feedback drops the session's
query embedding, which marks it fed; the pool's insert checks the episode
first, so a rejected one leaves every store and the session as they were.
"""

from __future__ import annotations

import dataclasses
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .controller import MetaController, Pathway, RoutingDecision, SessionRecord
from .embedding import Embedder, HashingEmbedder, SparseVector
from .errors import AlreadyRecorded, InvalidArgument, NoEvidence, NotFound, StageFailure
from .graph import CausalChain, GraphNode, KnowledgeGraph, Relation, SearchConfig, explore
from .memory import (
    Episode,
    MemoryConfig,
    MemoryPool,
    Outcome,
    Pattern,
    RetrievalResult,
    _FACTOR_FLOOR,
    complexity,
    make_query,
)
from .synthesizer import (
    ChainCard,
    MemoryCard,
    PromptContext,
    Solution,
    SynthConfig,
    SynthesisClient,
    TemplateStubClient,
    build_context,
    synthesize,
)
from .text import token_overlap

MATCH_THRESHOLD = 0.6  # token overlap treated as "same root cause"
TRACE_SCHEMA_VERSION = 2
_EPISODE_ID = re.compile(r"ep-(\d+)")


@dataclass
class DiagnosticQuery:
    id: str
    symptoms: list[str]
    context: set[str] = field(default_factory=set)
    logs: str = ""


@dataclass(eq=False)
class DiagnosisSession:
    id: str
    query: DiagnosticQuery
    retrieval: RetrievalResult
    decision: RoutingDecision
    chains: list[CausalChain] | None   # None on the fast path
    solution: Solution
    context: PromptContext
    latency_units: float
    created: float
    # dense, set by diagnose; feedback stores its SparseVector, and None marks it fed
    query_embedding: object = None

    def to_trace(self) -> dict:
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "session_id": self.id,
            "query": {
                "id": self.query.id,
                "symptoms": list(self.query.symptoms),
                "context": sorted(self.query.context),
            },
            "retrieval": {
                "memories": [
                    {"ref": m.ref, "kind": m.kind, "score": m.score, "confidence": m.confidence}
                    for m in self.retrieval.memories
                ],
                "c_max": self.retrieval.c_max,
                "psi": self.retrieval.psi,
                "novelty": self.retrieval.novelty,
                "complexity": self.retrieval.complexity,
            },
            "decision": {
                "pathway": self.decision.pathway.value,
                "c_max": self.decision.c_max,
                "tau_snapshot": self.decision.tau_snapshot,
            },
            "chains": None
            if self.chains is None
            else [[n for n in c.node_ids] for c in self.chains],
            "solution": {
                "root_cause": self.solution.root_cause,
                "steps": self.solution.steps,
                "reasoning": self.solution.reasoning,
                "confidence": self.solution.confidence,
                "sources": self.solution.sources,
            },
            "latency_units": self.latency_units,
            "created": self.created,
        }


@dataclass
class Feedback:
    session_id: str
    outcome: Outcome
    confirmed_root_cause: str = ""  # nothing reads it yet
    discovered_relations: list[tuple[GraphNode, Relation, GraphNode]] = field(default_factory=list)


@dataclass
class LearningReport:
    session_id: str
    episode_id: str | None
    value_updates: dict[str, float]
    tau_before: float
    tau_after: float
    weights_before: tuple[float, ...]
    weights_after: tuple[float, ...]
    edges_confirmed: list[str]
    patterns_touched: list[str]
    history_len: int


def _last_episode_seq(pool: MemoryPool) -> int:
    """Highest ``ep-NNNNNN`` number among the pool's episodes, the ids it
    has evicted and its patterns' members (which may name episodes evicted
    before a reload), so new ids never collide."""
    ids = set(pool.episodes).union(pool._tombstones,
                                   *(p.member_ids for p in pool.patterns.values()))
    return max((int(m[1]) for m in map(_EPISODE_ID.fullmatch, ids) if m), default=0)


class Engine:
    """Owns the stores and runs the diagnose/feedback cycle."""

    def __init__(
        self,
        pool: MemoryPool | None = None,
        graph: KnowledgeGraph | None = None,
        controller: MetaController | None = None,
        client: SynthesisClient | None = None,
        embedder: Embedder | None = None,
        search_config: SearchConfig | None = None,
        synth_config: SynthConfig | None = None,
        clock: Callable[[], float] = time.time,
        memory_enabled: bool = True,
    ) -> None:
        # explicit "is None" checks: an empty pool or graph is falsy but still
        # a deliberately provided store that must not be swapped for a default
        self.pool = pool if pool is not None else MemoryPool(MemoryConfig())
        self.graph = graph if graph is not None else KnowledgeGraph()
        self.controller = controller if controller is not None else MetaController()
        self.client = client if client is not None else TemplateStubClient()
        self.embedder = (
            embedder if embedder is not None else HashingEmbedder(self.pool.config.embedding_dim)
        )
        if self.embedder.dim != self.pool.config.embedding_dim:
            raise InvalidArgument(
                f"embedder dim {self.embedder.dim} != memory embedding_dim"
                f" {self.pool.config.embedding_dim}"
            )
        self.search_config = search_config if search_config is not None else SearchConfig()
        self.synth_config = synth_config if synth_config is not None else SynthConfig()
        self.search_config.validate()
        self.synth_config.validate()
        self.clock = clock
        self.memory_enabled = memory_enabled
        self.sessions: dict[str, DiagnosisSession] = {}
        self._session_seq = 0
        # the last ep-NNNNNN number used, scanned for at the first feedback
        # that writes memory, which a read-only diagnosis never makes
        self._episode_seq: int | None = None

    # -- diagnosis ----------------------------------------------------------

    @contextmanager
    def _stage(self, name: str) -> Iterator[None]:
        """Report an error raised inside the block as a failure of stage ``name``."""
        try:
            yield
        except NoEvidence:
            raise
        except Exception as exc:
            raise StageFailure(name, exc) from exc

    def _memory_cards(self, result: RetrievalResult) -> list[MemoryCard]:
        cards = []
        for m in result.memories:
            path = m.memory.resolution_path
            hint = ""
            if path and path[-1] in self.graph.nodes:
                hint = self.graph.nodes[path[-1]].label
            cards.append(
                MemoryCard(
                    id=m.ref,
                    score=m.score,
                    confidence=m.confidence,
                    actions=list(m.memory.actions),
                    resolution_path=list(path),
                    root_cause_hint=hint,
                )
            )
        return cards

    def _chain_cards(self, chains: Sequence[CausalChain]) -> list[ChainCard]:
        cards = []
        for i, chain in enumerate(chains):
            hops = []
            for (src, _), (dst, rel) in zip(chain.steps, chain.steps[1:]):
                src_label = self.graph.nodes[src].label or src
                dst_label = self.graph.nodes[dst].label or dst
                hops.append(f"{src_label} -({rel.value})-> {dst_label}")
            terminal = chain.steps[-1][0]
            cards.append(
                ChainCard(
                    id=f"chain-{i}",
                    hops=hops,
                    terminal_label=self.graph.nodes[terminal].label or terminal,
                    priority=chain.score,
                    prior=chain.prior,
                )
            )
        return cards

    def diagnose(
        self, query: DiagnosticQuery, force_pathway: Pathway | None = None
    ) -> DiagnosisSession:
        """Run one diagnosis; read-only with respect to every store.

        ``force_pathway`` bypasses routing (used by invariant tests); normal
        callers leave it unset.
        """
        now = self.clock()
        weights = self.controller.factor_weights

        with self._stage("retrieve"):
            q = make_query(self.embedder, query.symptoms, query.context)
            if self.memory_enabled:
                result = self.pool.retrieve(q, weights, now)
            else:
                result = RetrievalResult(
                    memories=[], c_max=0.0, psi=0.5, novelty=1.0,
                    complexity=complexity(q.symptoms),
                )
        with self._stage("route"):
            decision = self.controller.route(result.c_max)
            if force_pathway is not None:
                decision = dataclasses.replace(decision, pathway=force_pathway)
        with self._stage("context"):
            cards = self._memory_cards(result)

        chains: list[CausalChain] | None = None
        chain_cards: list[ChainCard] = []
        if decision.pathway is Pathway.ANALYTICAL:
            with self._stage("explore"):
                hint_nodes = self.pool.hints(result) if self.memory_enabled else set()
                chains = explore(
                    self.graph, q.embedding, self.pool.memory_paths(result),
                    self.search_config, self.embedder, extra_seeds=hint_nodes,
                )
            if not chains and not cards:
                raise NoEvidence(f"no memories and no causal chains for query {query.id!r}")
            chain_cards = self._chain_cards(chains)
        # an analytical diagnosis without chains degrades to memory-only evidence
        mode = "analytical" if chain_cards else "intuitive"
        with self._stage("context"):
            ctx = build_context(
                query.symptoms, sorted(query.context), query.logs,
                cards, chain_cards, mode, self.synth_config.token_budget,
            )
        with self._stage("synthesize"):
            solution = synthesize(ctx, self.client, self.synth_config.max_retries)

        # reported confidence stays consistent with the routing signal
        if decision.pathway is Pathway.INTUITIVE:
            reported = min(solution.confidence, decision.c_max)
        else:
            reported = max(solution.confidence, decision.c_max)
        solution.confidence = min(1.0, max(0.0, reported))

        self._session_seq += 1
        opt = self.controller.state.opt
        session = DiagnosisSession(
            id=f"s{self._session_seq:06d}",
            query=query,
            retrieval=result,
            decision=decision,
            chains=chains,
            solution=solution,
            context=ctx,
            latency_units=1.0 if decision.pathway is Pathway.INTUITIVE else opt.analytic_cost,
            created=now,
            query_embedding=q.embedding,
        )
        self.sessions[session.id] = session
        return session

    # -- feedback -----------------------------------------------------------

    def _resolution_path_for(
        self, session: DiagnosisSession, cited: list[Episode | Pattern]
    ) -> list[str]:
        if session.chains:
            return list(session.chains[0].node_ids)
        return list(cited[0].resolution_path) if cited else []

    def _fast_sufficient(self, session: DiagnosisSession, outcome: Outcome) -> bool:
        if session.decision.pathway is Pathway.INTUITIVE:
            return outcome is Outcome.SUCCESS
        if not session.retrieval.memories:
            return False
        top = max(session.retrieval.memories, key=lambda m: (m.confidence, m.score, m.ref))
        path = top.memory.resolution_path
        if not path or path[-1] not in self.graph.nodes:
            return False
        hint = self.graph.nodes[path[-1]].label
        return token_overlap(hint, session.solution.root_cause) >= MATCH_THRESHOLD

    def feedback(self, fb: Feedback) -> LearningReport:
        """Fold a confirmed outcome back into memory, controller and graph."""
        session = self.sessions.get(fb.session_id)
        if session is None:
            raise NotFound(f"unknown session {fb.session_id!r}")
        if session.query_embedding is None:
            raise AlreadyRecorded(f"session {fb.session_id!r} already has feedback")
        # reject a bad relation or episode before any store changes, so a
        # corrected feedback for the same session can still be applied
        self.graph.check_relations(fb.discovered_relations)

        now = self.clock()
        value_updates: dict[str, float] = {}
        patterns_touched: list[str] = []
        episode_id: str | None = None

        if self.memory_enabled:
            # a cited source is a memory iff this diagnosis retrieved it; the
            # other sources are chain cards
            retrieved = {m.ref: m.memory for m in session.retrieval.memories}
            cited = [retrieved[ref] for ref in session.solution.sources if ref in retrieved]
            seq = self._episode_seq
            if seq is None:
                seq = _last_episode_seq(self.pool)
            episode_id = f"ep-{seq + 1:06d}"
            episode = Episode(
                id=episode_id,
                symptoms=list(session.query.symptoms),
                context=set(session.query.context),
                actions=list(session.solution.steps),
                outcome=fb.outcome,
                timestamp=now,
                memory_value=1.0,
                vector=SparseVector.of(session.query_embedding),
                # a failed diagnosis has no trajectory worth recommending
                resolution_path=[] if fb.outcome is Outcome.FAILURE
                else self._resolution_path_for(session, cited),
                trials=1,
                successes=int(fb.outcome is Outcome.SUCCESS),
            )
            # checks the episode before it changes anything
            self.pool.insert_episode(episode)
            self._episode_seq = seq + 1
        session.query_embedding = None

        if self.memory_enabled:
            for mem in cited:
                target = mem.id if isinstance(mem, Episode) else mem.source_episode_id
                try:
                    self.pool.update_outcome(target, fb.outcome)
                    value_updates[target] = self.pool.episode(target).memory_value
                except NotFound:
                    continue

            # the insert may have evicted the new episode itself
            if episode_id in self.pool.episodes:
                patterns_touched = self.pool.form_patterns_incremental(episode_id)

        best = max(
            session.retrieval.memories, key=lambda m: m.confidence, default=None
        )
        self.controller.record(SessionRecord(
            c_max=session.decision.c_max,
            factors=best.factors if best else (_FACTOR_FLOOR,) * 4,
            fast_sufficient=self._fast_sufficient(session, fb.outcome),
        ))
        tau_before, tau_after = self.controller.adapt_threshold()
        weights_before, weights_after = self.controller.update_factor_weights()

        edges_confirmed: list[str] = []
        if fb.discovered_relations:
            # edit a copy, then swap atomically so readers never see partial edits;
            # the copy shares the graph's records and costs three dict copies,
            # one entry per node each
            g2 = self.graph.copy()
            for src, rel, dst in fb.discovered_relations:
                w = g2.confirm_relation(src, rel, dst)
                edges_confirmed.append(f"{src.id} -({rel.value})-> {dst.id} @ {w:.1f}")
            self.graph = g2

        return LearningReport(
            session_id=fb.session_id,
            episode_id=episode_id,
            value_updates=value_updates,
            tau_before=tau_before,
            tau_after=tau_after,
            weights_before=weights_before,
            weights_after=weights_after,
            edges_confirmed=edges_confirmed,
            patterns_touched=patterns_touched,
            history_len=len(self.controller.state.history),
        )
