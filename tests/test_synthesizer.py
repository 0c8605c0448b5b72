import json

import pytest
from hypothesis import given, strategies as st

from kubediag.errors import InvalidContext, NoEvidence, SynthesisError
from kubediag.synthesizer import (
    ChainCard,
    MemoryCard,
    PromptContext,
    TemplateStubClient,
    build_context,
    synthesize,
    _rendered_tokens,
)

STUB = TemplateStubClient()


def mcard(mid, score=0.9, conf=0.8, actions=("restart the pod",), path=("n1", "rc"), hint="memory pressure"):
    return MemoryCard(
        id=mid,
        score=score,
        confidence=conf,
        actions=list(actions),
        resolution_path=list(path),
        root_cause_hint=hint,
    )


def ccard(cid, hops=("pod -(causes)-> oom", "oom -(causes)-> limit"), terminal="memory limit too low", pri=0.7, prior=0.5):
    return ChainCard(id=cid, hops=list(hops), terminal_label=terminal, priority=pri, prior=prior)


def intuitive_ctx(*memories, symptoms=("pod restarting",), labels=("prod", "batch"), logs=""):
    return build_context(symptoms, labels, logs, list(memories), [], "intuitive")


# ---------------------------------------------------------------------------
# context assembly


def per_part_tokens(ctx):
    """The context's tokens counted part by part, each float rendered."""
    parts = [ctx.mode, *ctx.symptoms, *ctx.context_labels, ctx.logs]
    for m in ctx.memories:
        parts.extend([m.id, f"{m.score:.6f}", f"{m.confidence:.6f}", m.root_cause_hint])
        parts.extend(m.actions)
        parts.extend(m.resolution_path)
    for c in ctx.chains:
        parts.extend([c.id, f"{c.priority:.6f}", c.terminal_label])
        parts.extend(c.hops)
    return sum(len(p.split()) for p in parts)


# words, Unicode whitespace (str.split splits at each) and empty parts
TEXT = st.lists(st.sampled_from(["", "a", "pod", "x-y", " ", "\t", "\n", "\x1c", "\x85",
                                 "\u3000", "\u00a0", "\u200b"]), max_size=6).map("".join)
TEXTS = st.lists(TEXT, max_size=3)
SCORE = st.floats(allow_nan=True, allow_infinity=True)


@given(mode=st.sampled_from(["intuitive", "analytical"]), symptoms=TEXTS, labels=TEXTS,
       logs=TEXT, memories=st.lists(st.builds(
           MemoryCard, id=TEXT, score=SCORE, confidence=SCORE, actions=TEXTS,
           resolution_path=TEXTS, root_cause_hint=TEXT), max_size=3),
       chains=st.lists(st.builds(
           ChainCard, id=TEXT, hops=TEXTS, terminal_label=TEXT, priority=SCORE,
           prior=SCORE), max_size=3))
def test_rendered_tokens_match_the_per_part_count(mode, symptoms, labels, logs, memories, chains):
    ctx = PromptContext(mode=mode, symptoms=symptoms, context_labels=labels, logs=logs,
                        memories=memories, chains=chains)
    assert _rendered_tokens(ctx) == per_part_tokens(ctx)


def test_build_context_single_memory():
    m = mcard("e1")
    ctx = intuitive_ctx(m)
    assert ctx.mode == "intuitive"
    assert ctx.symptoms == ["pod restarting"]
    assert ctx.context_labels == ["batch", "prod"]  # sorted
    assert ctx.memories == [m]
    assert ctx.chains == []
    assert ctx.item_ids() == {"e1"}


@pytest.mark.parametrize(
    "mode,chains",
    [
        ("analytical", []),                # needs a chain
        ("intuitive", [ccard("c1")]),      # must not carry chains
        ("hunch", []),                     # unknown mode
    ],
)
def test_build_context_mode_pairing_enforced(mode, chains):
    with pytest.raises(InvalidContext):
        build_context(["s"], [], "", [mcard("e1")], chains, mode)


def test_build_context_trims_weakest_memories_to_budget():
    mems = [mcard(f"e{i}", score=1.0 - i / 10) for i in range(10)]
    keep_five = build_context(["s"], [], "", mems[:5], [], "intuitive")
    budget = _rendered_tokens(keep_five)
    ctx = build_context(["s"], [], "", mems, [], "intuitive", token_budget=budget)
    assert [m.id for m in ctx.memories] == ["e0", "e1", "e2", "e3", "e4"]
    assert min(m.score for m in ctx.memories) >= max(m.score for m in mems[5:])


def test_build_context_keeps_one_memory_when_intuitive():
    ctx = build_context(["s"], [], "", [mcard(f"e{i}") for i in range(4)], [], "intuitive", token_budget=1)
    assert len(ctx.memories) == 1
    assert ctx.memories[0].id == "e0"


def test_build_context_analytical_keeps_chain_over_memories():
    ctx = build_context(
        ["s"], [], "", [mcard("e0"), mcard("e1")], [ccard("c0"), ccard("c1")], "analytical", token_budget=1
    )
    assert len(ctx.chains) == 1
    assert ctx.chains[0].id == "c0"
    assert ctx.memories == []


def test_context_serialization_is_canonical():
    a = build_context(["s"], ["b", "a"], "log", [mcard("e1")], [], "intuitive")
    b = build_context(["s"], ["a", "b"], "log", [mcard("e1")], [], "intuitive")
    assert a.to_json() == b.to_json()
    assert json.loads(a.to_json())["mode"] == "intuitive"


# ---------------------------------------------------------------------------
# stub synthesis: intuitive mode


def test_stub_copies_best_memory():
    weak = mcard("e-weak", score=0.5, conf=0.4, actions=("do nothing",), hint="wrong cause")
    strong = mcard("e-strong", score=0.9, conf=0.8, actions=("raise memory limit", "redeploy"))
    sol = synthesize(intuitive_ctx(weak, strong), STUB)
    assert sol.root_cause == "memory pressure"
    assert sol.steps == ["raise memory limit", "redeploy"]
    assert sol.confidence == 0.8
    assert sol.sources == ["e-strong"]
    assert sol.reasoning == []


def test_stub_prefers_memory_with_root_cause_hint():
    confident_but_blank = mcard("e-blank", conf=0.95, hint="")
    hinted = mcard("e-hint", conf=0.6, hint="node disk pressure")
    sol = synthesize(intuitive_ctx(confident_but_blank, hinted), STUB)
    assert sol.sources == ["e-hint"]
    assert sol.root_cause == "node disk pressure"


def test_stub_falls_back_when_memory_has_no_actions():
    sol = synthesize(intuitive_ctx(mcard("e1", actions=())), STUB)
    assert sol.steps == ["review prior incident e1"]


def test_stub_without_any_hint_reports_undetermined():
    sol = synthesize(intuitive_ctx(mcard("e1", hint="")), STUB)
    assert sol.root_cause == "undetermined root cause"


def test_stub_is_pure():
    ctx = intuitive_ctx(mcard("e1"), mcard("e2", conf=0.6))
    first = synthesize(ctx, STUB)
    second = synthesize(ctx, STUB)
    assert (first.root_cause, first.steps, first.confidence, first.sources) == (
        second.root_cause,
        second.steps,
        second.confidence,
        second.sources,
    )
    assert STUB.complete(ctx.to_json()) == STUB.complete(ctx.to_json())


# ---------------------------------------------------------------------------
# stub synthesis: analytical mode


def analytical_ctx(memories, chains):
    return build_context(["pod restarting"], [], "", memories, chains, "analytical")


def test_stub_analytical_walks_top_chain():
    mem = mcard("e1", conf=0.5, actions=("bump limits",))
    chain = ccard("c1", pri=0.7)
    sol = synthesize(analytical_ctx([mem], [chain]), STUB)
    assert sol.root_cause == "memory limit too low"  # terminal wins over hint
    assert sol.reasoning == [
        "causal step 1: pod -(causes)-> oom",
        "causal step 2: oom -(causes)-> limit",
    ]
    assert sol.steps == ["bump limits"]  # memory steps kept when present
    assert sol.confidence == pytest.approx(0.7)  # max(memory, chain priority)
    assert sol.sources == ["e1", "c1"]


def test_stub_analytical_sources_cover_intuitive_sources():
    mem = mcard("e1")
    fast = synthesize(intuitive_ctx(mem), STUB)
    slow = synthesize(analytical_ctx([mem], [ccard("c1")]), STUB)
    assert set(fast.sources) <= set(slow.sources)


def test_stub_analytical_without_memories():
    sol = synthesize(analytical_ctx([], [ccard("c1", pri=0.55)]), STUB)
    assert sol.steps == [
        "inspect pod -(causes)-> oom",
        "inspect oom -(causes)-> limit",
    ]
    assert sol.confidence == pytest.approx(0.55)
    assert sol.sources == ["c1"]


# ---------------------------------------------------------------------------
# synthesize: contract and retries


def test_synthesize_no_evidence():
    ctx = build_context(["s"], [], "", [], [], "intuitive")
    with pytest.raises(NoEvidence):
        synthesize(ctx, STUB)


class FlakyClient:
    def __init__(self, failures, retryable=True):
        self.failures = failures
        self.retryable = retryable
        self.calls = 0

    def complete(self, request_json):
        self.calls += 1
        if self.calls <= self.failures:
            raise SynthesisError("transient backend error", retryable=self.retryable)
        return STUB.complete(request_json)


def test_synthesize_retries_transient_failures():
    client = FlakyClient(failures=2)
    sol = synthesize(intuitive_ctx(mcard("e1")), client, max_retries=2)
    assert client.calls == 3
    assert sol.sources == ["e1"]


def test_synthesize_gives_up_after_retry_budget():
    client = FlakyClient(failures=99)
    with pytest.raises(SynthesisError):
        synthesize(intuitive_ctx(mcard("e1")), client, max_retries=2)
    assert client.calls == 3


def test_synthesize_does_not_retry_permanent_failures():
    client = FlakyClient(failures=99, retryable=False)
    with pytest.raises(SynthesisError):
        synthesize(intuitive_ctx(mcard("e1")), client, max_retries=5)
    assert client.calls == 1


class CannedClient:
    def __init__(self, payload):
        self.payload = payload

    def complete(self, request_json):
        return self.payload


@pytest.mark.parametrize(
    "payload",
    [
        "not json at all",
        '{"steps": ["x"]}',  # missing keys
        json.dumps({"root_cause": "x", "steps": ["x"], "confidence": "high", "sources": []}),
    ],
)
def test_synthesize_rejects_malformed_output(payload):
    with pytest.raises(SynthesisError):
        synthesize(intuitive_ctx(mcard("e1")), CannedClient(payload))


def test_synthesize_rejects_unknown_sources():
    payload = json.dumps(
        {"root_cause": "x", "steps": ["x"], "reasoning": [], "confidence": 0.5, "sources": ["ghost"]}
    )
    with pytest.raises(SynthesisError) as exc_info:
        synthesize(intuitive_ctx(mcard("e1")), CannedClient(payload))
    assert "ghost" in str(exc_info.value)


@pytest.mark.parametrize("confidence", [-0.1, 1.5])
def test_synthesize_rejects_out_of_range_confidence(confidence):
    payload = json.dumps(
        {"root_cause": "x", "steps": ["x"], "reasoning": [], "confidence": confidence, "sources": ["e1"]}
    )
    with pytest.raises(SynthesisError):
        synthesize(intuitive_ctx(mcard("e1")), CannedClient(payload))


def test_synthesize_rejects_empty_steps():
    payload = json.dumps(
        {"root_cause": "x", "steps": [], "reasoning": [], "confidence": 0.5, "sources": ["e1"]}
    )
    with pytest.raises(SynthesisError):
        synthesize(intuitive_ctx(mcard("e1")), CannedClient(payload))
