"""Continuous-operation simulator: scenario streams, auto-scoring, ablation.

Scenarios are streamed in corpus order with probabilistic replays of
already-seen incidents; every completed diagnosis is auto-scored against the
scenario's ground-truth root cause and fed straight back into the engine, so
learning happens online.  The ablation runner plays the identical stream
through a memory-enabled and a memory-disabled engine.

``kubediag simulate`` prints what :func:`run_continuous` and
:func:`evaluate_ablation` return.  Of a ``--config`` file it reads the
``memory`` and ``search`` sections; every engine starts from the default
controller and synthesis settings, so a ``tau`` or ``synth`` section is
rejected there.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from .controller import MetaController, Pathway
from .embedding import HashingEmbedder
from .engine import Engine, DiagnosticQuery, Feedback, MATCH_THRESHOLD
from .errors import InvalidArgument, NoEvidence
from .files import check_fields
from .graph import KnowledgeGraph, SearchConfig
from .memory import MemoryConfig, MemoryPool, Outcome
from .scenarios import FaultScenario, build_world
from .synthesizer import SynthConfig, TemplateStubClient
from .text import token_overlap


class TickClock:
    """Deterministic clock: advances a fixed step on every read."""

    def __init__(self, start: float = 1_700_000_000.0, step: float = 60.0) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


@dataclass
class SimulationConfig:
    total_sessions: int = 500
    recurrence: float = 0.3     # probability a slot replays an already-seen scenario
    window: int = 50            # sessions per learning-curve window
    seed: int = 0
    corpus_size: int = 120
    memory_enabled: bool = True

    def validate(self) -> None:
        check_fields(self)
        if self.total_sessions < 1 or self.window < 1 or self.corpus_size < 1:
            raise InvalidArgument("total_sessions, window and corpus_size must be >= 1")
        if not 0.0 <= self.recurrence <= 1.0:
            raise InvalidArgument(f"recurrence must be in [0, 1], got {self.recurrence}")


@dataclass
class WindowStats:
    index: int
    sessions: int
    accuracy: float
    intuitive_rate: float
    mean_latency_units: float
    tau: float


@dataclass
class SimulationResult:
    sessions: int
    correct: int
    no_evidence: int
    intuitive: int
    latency_total: float
    windows: list[WindowStats] = field(default_factory=list)
    per_category: dict[str, tuple[int, int]] = field(default_factory=dict)  # (correct, seen)

    @property
    def accuracy(self) -> float:
        return self.correct / self.sessions if self.sessions else 0.0

    @property
    def mean_latency_units(self) -> float:
        return self.latency_total / self.sessions if self.sessions else 0.0

    @property
    def intuitive_rate(self) -> float:
        return self.intuitive / self.sessions if self.sessions else 0.0


def make_engine(
    graph: KnowledgeGraph,
    clock: Callable[[], float] | None = None,
    memory_enabled: bool = True,
    memory_config: MemoryConfig | None = None,
    search_config: SearchConfig | None = None,
) -> Engine:
    """Fresh engine over a private copy of the world graph."""
    cfg = memory_config or MemoryConfig()
    return Engine(
        pool=MemoryPool(cfg),
        graph=graph.copy(),
        controller=MetaController(),
        client=TemplateStubClient(),
        embedder=HashingEmbedder(cfg.embedding_dim),
        search_config=search_config or SearchConfig(),
        synth_config=SynthConfig(),
        clock=clock or TickClock(),
        memory_enabled=memory_enabled,
    )


def build_stream(scenarios: Sequence[FaultScenario], cfg: SimulationConfig) -> list[FaultScenario]:
    """Corpus order with replays: each slot is replaced, with probability
    ``recurrence``, by a uniformly drawn already-seen scenario."""
    rng = random.Random(cfg.seed + 1)
    stream: list[FaultScenario] = []
    seen: list[FaultScenario] = []
    for t in range(cfg.total_sessions):
        sc = scenarios[t % len(scenarios)]
        if seen and rng.random() < cfg.recurrence:
            sc = seen[rng.randrange(len(seen))]
        else:
            seen.append(sc)
        stream.append(sc)
    return stream


def run_stream(
    engine: Engine, stream: Sequence[FaultScenario], window: int = 50
) -> SimulationResult:
    """Diagnose, auto-score and feed back every scenario in order.

    A diagnosis counts as correct when the proposed root cause overlaps the
    scenario's ground truth by at least the engine match threshold.  A
    no-evidence failure is scored incorrect, costs the deliberate-path
    latency budget (the search did run), and produces no feedback.
    """
    result = SimulationResult(sessions=0, correct=0, no_evidence=0, intuitive=0, latency_total=0.0)
    win_sessions = win_correct = win_intuitive = 0
    win_latency = 0.0
    analytic_cost = engine.controller.state.opt.analytic_cost

    def close_window() -> None:
        nonlocal win_sessions, win_correct, win_intuitive, win_latency
        if win_sessions == 0:
            return
        result.windows.append(
            WindowStats(
                index=len(result.windows),
                sessions=win_sessions,
                accuracy=win_correct / win_sessions,
                intuitive_rate=win_intuitive / win_sessions,
                mean_latency_units=win_latency / win_sessions,
                tau=engine.controller.state.tau,
            )
        )
        win_sessions = win_correct = win_intuitive = 0
        win_latency = 0.0

    for sc in stream:
        query = DiagnosticQuery(
            id=sc.id, symptoms=list(sc.symptoms), context=set(sc.context), logs=sc.logs
        )
        correct = False
        try:
            session = engine.diagnose(query)
        except NoEvidence:
            result.no_evidence += 1
            latency = analytic_cost
        else:
            latency = session.latency_units
            if session.decision.pathway is Pathway.INTUITIVE:
                result.intuitive += 1
                win_intuitive += 1
            correct = token_overlap(session.solution.root_cause, sc.root_cause) >= MATCH_THRESHOLD
            engine.feedback(
                Feedback(
                    session_id=session.id,
                    outcome=Outcome.SUCCESS if correct else Outcome.FAILURE,
                    confirmed_root_cause=sc.root_cause if correct else "",
                )
            )
        result.sessions += 1
        result.latency_total += latency
        win_sessions += 1
        win_latency += latency
        if correct:
            result.correct += 1
            win_correct += 1
        got, seen_n = result.per_category.get(sc.category.value, (0, 0))
        result.per_category[sc.category.value] = (got + (1 if correct else 0), seen_n + 1)
        if win_sessions == window:
            close_window()
    close_window()
    return result


def run_continuous(
    cfg: SimulationConfig | None = None,
    memory_config: MemoryConfig | None = None,
    search_config: SearchConfig | None = None,
) -> tuple[SimulationResult, Engine]:
    """Generate a world, stream it through a fresh engine, return both."""
    cfg = cfg or SimulationConfig()
    cfg.validate()
    scenarios, graph = build_world(cfg.seed, cfg.corpus_size)
    engine = make_engine(
        graph, memory_enabled=cfg.memory_enabled,
        memory_config=memory_config, search_config=search_config,
    )
    stream = build_stream(scenarios, cfg)
    return run_stream(engine, stream, cfg.window), engine


@dataclass
class AblationResult:
    with_memory: SimulationResult
    without_memory: SimulationResult
    engine: Engine  # the memory-enabled arm's

    @property
    def relative_accuracy_gain(self) -> float:
        base = self.without_memory.accuracy
        return (self.with_memory.accuracy - base) / base if base else float("inf")

    @property
    def latency_delta(self) -> float:
        return self.with_memory.mean_latency_units - self.without_memory.mean_latency_units


def evaluate_ablation(
    cfg: SimulationConfig | None = None,
    memory_config: MemoryConfig | None = None,
    search_config: SearchConfig | None = None,
) -> AblationResult:
    """Identical stream through memory-enabled and memory-disabled engines.

    Each arm builds its own world; ``build_world`` is deterministic per seed,
    so both see the same graph and stream.
    """
    cfg = cfg or SimulationConfig(recurrence=0.5)
    with_memory, engine = run_continuous(
        replace(cfg, memory_enabled=True), memory_config, search_config
    )
    without, _ = run_continuous(replace(cfg, memory_enabled=False), memory_config, search_config)
    return AblationResult(with_memory=with_memory, without_memory=without, engine=engine)


def write_curve_csv(result: SimulationResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["window_index", "sessions", "accuracy", "intuitive_rate", "mean_latency_units", "tau"]
        )
        for w in result.windows:
            writer.writerow(
                [w.index, w.sessions, f"{w.accuracy:.4f}", f"{w.intuitive_rate:.4f}",
                 f"{w.mean_latency_units:.4f}", f"{w.tau:.4f}"]
            )
