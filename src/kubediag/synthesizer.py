"""Solution synthesis from retrieved memories and causal chains.

The synthesis client is pluggable: it receives a serialized context document
and must return a solution as JSON.  The bundled stub is a pure function of
the context — template mode copies the strategy of the best memory, the
analytical mode walks the top causal chain — so the whole engine stays
deterministic and testable offline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Protocol, Sequence

from .errors import InvalidArgument, InvalidContext, NoEvidence, SynthesisError
from .files import check_fields


@dataclass
class SynthConfig:
    token_budget: int = 4096   # whitespace tokens of the rendered context
    max_retries: int = 2

    def validate(self) -> None:
        check_fields(self)
        if self.max_retries < 0 or self.token_budget < 1:
            raise InvalidArgument("max_retries must be >= 0 and token_budget >= 1")


@dataclass(eq=False)
class MemoryCard:
    """Synthesizer-facing view of one retrieved memory."""

    id: str
    score: float
    confidence: float
    actions: list[str]
    resolution_path: list[str]
    root_cause_hint: str = ""


@dataclass(eq=False)
class ChainCard:
    """Synthesizer-facing view of one causal chain."""

    id: str
    hops: list[str]            # rendered "src -(relation)-> dst" lines
    terminal_label: str
    priority: float
    prior: float


@dataclass(eq=False)
class PromptContext:
    mode: str                  # "intuitive" | "analytical"
    symptoms: list[str]
    context_labels: list[str]
    logs: str
    memories: list[MemoryCard]
    chains: list[ChainCard]

    def item_ids(self) -> set[str]:
        return {m.id for m in self.memories} | {c.id for c in self.chains}

    def to_json(self) -> str:
        payload = {
            "mode": self.mode,
            "query": {
                "symptoms": self.symptoms,
                "context_labels": self.context_labels,
                "logs": self.logs,
            },
            "memories": [
                {
                    "id": m.id,
                    "score": m.score,
                    "confidence": m.confidence,
                    "actions": m.actions,
                    "resolution_path": m.resolution_path,
                    "root_cause_hint": m.root_cause_hint,
                }
                for m in self.memories
            ],
            "chains": [
                {
                    "id": c.id,
                    "hops": c.hops,
                    "terminal_label": c.terminal_label,
                    "priority": c.priority,
                    "prior": c.prior,
                }
                for c in self.chains
            ],
        }
        return json.dumps(payload, sort_keys=True)


@dataclass(eq=False)
class Solution:
    root_cause: str
    steps: list[str]
    reasoning: list[str]
    confidence: float
    sources: list[str]

    def validate(self, ctx: PromptContext | None = None) -> None:
        if not self.steps:
            raise SynthesisError("solution must contain at least one step")
        if not 0.0 <= self.confidence <= 1.0:
            raise SynthesisError(f"solution confidence {self.confidence} outside [0, 1]")
        if ctx is not None:
            unknown = set(self.sources) - ctx.item_ids()
            if unknown:
                raise SynthesisError(f"solution cites unknown sources {sorted(unknown)}")


class SynthesisClient(Protocol):
    def complete(self, request_json: str) -> str: ...


def _rendered_tokens(ctx: PromptContext) -> int:
    """The whitespace-split tokens of every rendered field: the texts joined
    by spaces (which splits none of them differently) and split once, plus
    one token per ``.6f`` float, a memory's score and confidence and a
    chain's priority, as one holds no whitespace (``nan`` and ``inf`` too)."""
    parts = [ctx.mode, *ctx.symptoms, *ctx.context_labels, ctx.logs]
    for m in ctx.memories:
        parts += (m.id, m.root_cause_hint, *m.actions, *m.resolution_path)
    for c in ctx.chains:
        parts += (c.id, c.terminal_label, *c.hops)
    return len(" ".join(parts).split()) + 2 * len(ctx.memories) + len(ctx.chains)


def build_context(
    symptoms: Sequence[str],
    context_labels: Sequence[str],
    logs: str,
    memories: Sequence[MemoryCard],
    chains: Sequence[ChainCard],
    mode: str,
    token_budget: int = 4096,
) -> PromptContext:
    """Assemble the synthesis context, trimming lowest-ranked items to budget.

    Memories arrive in retrieval order and chains in search order; when the
    rendered size exceeds the budget the globally weakest item (by score or
    priority) is dropped first.  The mode/chain pairing is enforced: the
    analytical mode requires at least one chain, the intuitive mode forbids
    them.
    """
    if mode not in ("intuitive", "analytical"):
        raise InvalidContext(f"unknown mode {mode!r}")
    if mode == "analytical" and not chains:
        raise InvalidContext("analytical context requires at least one causal chain")
    if mode == "intuitive" and chains:
        raise InvalidContext("intuitive context must not carry causal chains")
    ctx = PromptContext(
        mode=mode,
        symptoms=list(symptoms),
        context_labels=sorted(context_labels),
        logs=logs,
        memories=list(memories),
        chains=list(chains),
    )
    while _rendered_tokens(ctx) > token_budget:
        droppable: list[tuple[float, int, str]] = []
        if len(ctx.memories) > (1 if mode == "intuitive" and ctx.memories else 0):
            worst = len(ctx.memories) - 1
            droppable.append((ctx.memories[worst].score, worst, "memory"))
        if len(ctx.chains) > (1 if mode == "analytical" else 0):
            worst = len(ctx.chains) - 1
            droppable.append((ctx.chains[worst].priority, worst, "chain"))
        if not droppable:
            break
        droppable.sort()
        _, idx, kind = droppable[0]
        if kind == "memory":
            ctx.memories.pop(idx)
        else:
            ctx.chains.pop(idx)
    return ctx


class TemplateStubClient:
    """Deterministic offline synthesizer.

    Intuitive requests copy root cause and steps from the best memory;
    analytical requests additionally walk the top chain, one reasoning entry
    per hop, and take the chain's terminal node as the root cause.
    """

    def complete(self, request_json: str) -> str:
        ctx = json.loads(request_json)
        memories = ctx["memories"]
        chains = ctx["chains"]
        sources: list[str] = []
        reasoning: list[str] = []
        if memories:
            # anchor on the most trustworthy precedent, not the first listed:
            # tier scaling can rank a fresh-but-unrelated pattern above a
            # weaker-scored memory that actually matches the incident, and a
            # memory without a root-cause hint has nothing to copy from
            usable = [m for m in memories if m["root_cause_hint"]] or memories
            top = max(usable, key=lambda m: (m["confidence"], m["score"], m["id"]))
            root_cause = top["root_cause_hint"] or "undetermined root cause"
            steps = list(top["actions"]) or [f"review prior incident {top['id']}"]
            confidence = float(top["confidence"])
            sources.append(top["id"])
        else:
            root_cause = "undetermined root cause"
            steps = []
            confidence = 0.0
        if ctx["mode"] == "analytical" and chains:
            top_chain = chains[0]
            root_cause = top_chain["terminal_label"] or root_cause
            reasoning = [f"causal step {i + 1}: {hop}" for i, hop in enumerate(top_chain["hops"])]
            if not steps:
                steps = [f"inspect {hop}" for hop in top_chain["hops"]]
            confidence = max(confidence, min(1.0, float(top_chain["priority"])))
            sources.append(top_chain["id"])
        return json.dumps(
            {
                "root_cause": root_cause,
                "steps": steps,
                "reasoning": reasoning,
                "confidence": max(0.0, min(1.0, confidence)),
                "sources": sources,
            },
            sort_keys=True,
        )


def synthesize(ctx: PromptContext, client: SynthesisClient, max_retries: int = 2) -> Solution:
    """Run the client against a context and validate the returned solution."""
    if not ctx.memories and not ctx.chains:
        raise NoEvidence("context offers neither memories nor causal chains")
    request = ctx.to_json()
    last: SynthesisError | None = None
    for _ in range(max_retries + 1):
        try:
            raw = client.complete(request)
            payload = json.loads(raw)
            solution = Solution(
                root_cause=str(payload["root_cause"]),
                steps=[str(s) for s in payload["steps"]],
                reasoning=[str(r) for r in payload.get("reasoning", [])],
                confidence=float(payload["confidence"]),
                sources=[str(s) for s in payload.get("sources", [])],
            )
            solution.validate(ctx)
            return solution
        except SynthesisError as exc:
            last = exc
            if not exc.retryable:
                raise
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise SynthesisError(f"client returned malformed solution: {exc}") from exc
    assert last is not None
    raise last
