"""Episodic and pattern memory for diagnostic experience.

The pool stores concrete diagnostic trajectories (episodes) and abstracted
recurring structures (patterns).  Retrieval blends embedding similarity with
recency, splits attention between the two tiers with a novelty/complexity
mixing weight, and attaches a multi-factor confidence to every returned
memory.  Retrieval is one exact linear scan: every memory is scored, and the
confidence, which only breaks ties, is computed for the rows at or above the
k-th best score alone.

Pattern formation reads each episode's neighbourhood (the episodes whose
cosine with it exceeds ``pattern_sim_threshold``) from sets the pool keeps
current.  They are built by one pass over the episode pairs on the first
formation, then each insert scans the pool once and each eviction unlinks its
victim, so a feedback costs one cosine per stored episode instead of a pool
rescan per neighbour.

Scalar math along the scoring path deliberately avoids vectorized shortcuts:
reference implementations and the scan must order candidates identically,
so both use the same per-candidate arithmetic.

Episodes persist as JSONL, one object per line; patterns as one JSON
snapshot.  Each embedding and centroid is stored sparse, as
``{"dim": D, "index": [...], "value": [...]}`` listing every entry that is
not ``+0.0`` (a hashing embedding has about 14 of 2048), and is rebuilt bit
for bit on load.  The dense lists of older stores still load; the next save
rewrites them sparse.  Every save replaces its file atomically.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import math
import threading
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .embedding import DEFAULT_DIM, Embedder
from .errors import DuplicateId, InvalidArgument, InvalidQuery, NotFound, SchemaViolation
from .files import write_atomic
from .text import tokenize

SECONDS_PER_DAY = 86_400.0

#: Order of the confidence factors everywhere in the package.
FACTOR_NAMES = ("similarity", "temporal", "success", "context")

_FACTOR_FLOOR = 1e-7  # avoids log(0) downstream when weights are fitted


class Outcome(str, Enum):
    SUCCESS = "success"
    FAILURE = "failure"
    PARTIAL = "partial"


@dataclass
class MemoryConfig:
    """Tunables for storage, scoring and pattern formation."""

    pattern_sim_threshold: float = 0.85   # cosine floor for joining a neighborhood
    pattern_min_members: int = 3          # neighborhood size needed to form a pattern
    retrieval_k: int = 10
    similarity_weight: float = 0.7        # balance between similarity and recency
    recency_tau_s: float = 30.0 * SECONDS_PER_DAY
    sim_scale: float = 1.0                # distance scale in the similarity factor
    temporal_tau_s: float = 30.0 * SECONDS_PER_DAY
    hint_k: int = 5
    hint_min_confidence: float = 0.1      # relevance gate for exported paths/hints
    mix_weights: tuple[float, float] = (1.0, 1.0)  # (novelty, complexity)
    mix_bias: float = 0.0
    embedding_dim: int = DEFAULT_DIM
    capacity: int = 5000
    outcome_delta: float = 0.1            # memory value multiplier step on feedback

    def validate(self) -> None:
        if not 0.0 < self.pattern_sim_threshold < 1.0:
            raise InvalidArgument("pattern_sim_threshold must be in (0, 1)")
        if self.pattern_min_members < 2:
            raise InvalidArgument("pattern_min_members must be >= 2")
        if not 0.0 <= self.similarity_weight <= 1.0:
            raise InvalidArgument("similarity_weight must be in [0, 1]")
        if self.recency_tau_s <= 0 or self.temporal_tau_s <= 0 or self.sim_scale <= 0:
            raise InvalidArgument("time constants and sim_scale must be positive")
        if self.retrieval_k < 1 or self.hint_k < 1 or self.capacity < 1:
            raise InvalidArgument("retrieval_k, hint_k and capacity must be >= 1")
        if self.hint_k > self.retrieval_k:
            # hints are read off the diagnosis's own retrieval
            raise InvalidArgument("hint_k must be <= retrieval_k")
        if not 0.0 <= self.hint_min_confidence <= 1.0:
            raise InvalidArgument("hint_min_confidence must be in [0, 1]")


@dataclass
class Query:
    """A diagnostic query: symptom text, context labels, and its embedding."""

    symptoms: tuple[str, ...]
    context: frozenset[str]
    embedding: np.ndarray


def make_query(embedder: Embedder, symptoms: Sequence[str], context: Iterable[str] = ()) -> Query:
    symptoms = tuple(symptoms)
    if not symptoms or not any(s.strip() for s in symptoms):
        raise InvalidQuery("query symptoms must be non-empty")
    return Query(
        symptoms=symptoms,
        context=frozenset(context),
        embedding=embedder.embed(" ".join(symptoms)),
    )


@dataclass(eq=False)
class Episode:
    """One concrete diagnostic trajectory."""

    id: str
    symptoms: list[str]
    context: set[str]
    actions: list[str]
    outcome: Outcome
    timestamp: float
    memory_value: float
    embedding: np.ndarray
    resolution_path: list[str]
    trials: int = 0      # feedback updates received
    successes: int = 0   # ... of which were successes

    def validate(self) -> None:
        if not self.id:
            raise InvalidArgument("episode id must be non-empty")
        norm = float(np.linalg.norm(self.embedding))
        if not abs(norm - 1.0) <= 1e-6:  # NaN fails too
            raise InvalidArgument(f"episode {self.id}: embedding norm {norm:.8f} != 1")
        if not 0.0 <= self.memory_value < math.inf:  # NaN fails too
            raise InvalidArgument(f"episode {self.id}: memory_value must be finite and >= 0")
        if not 0 <= self.successes <= self.trials:
            raise InvalidArgument(
                f"episode {self.id}: need 0 <= successes <= trials,"
                f" got {self.successes} of {self.trials}"
            )
        if not math.isfinite(self.timestamp) or self.timestamp < 0:
            raise InvalidArgument(f"episode {self.id}: timestamp must be finite and >= 0")

    @property
    def symptom_tokens(self) -> frozenset[str]:
        return frozenset(t for s in self.symptoms for t in tokenize(s))


@dataclass(eq=False)
class Pattern:
    """Abstraction over a neighborhood of mutually similar episodes.

    ``actions`` and ``resolution_path`` are copied from the member with the
    highest memory value, ``source_episode_id``.
    """

    id: str
    centroid: np.ndarray
    actions: list[str]
    resolution_path: list[str]
    source_episode_id: str
    reliability: float              # member success fraction
    member_count: int
    member_ids: set[str]
    last_updated: float
    seed_id: str                    # episode whose neighborhood formed the pattern
    symptom_tokens: frozenset[str] = frozenset()
    context_labels: frozenset[str] = frozenset()
    success_members: int = 0


@dataclass(eq=False)
class ScoredMemory:
    """One retrieval hit: reference, tier, scaled score and confidence."""

    ref: str
    kind: str                      # "episode" | "pattern"
    score: float
    confidence: float
    factors: tuple[float, float, float, float]
    symptom_tokens: frozenset[str] = frozenset()


@dataclass(eq=False)
class RetrievalResult:
    memories: list[ScoredMemory]
    c_max: float
    psi: float
    novelty: float
    complexity: float

    def to_json(self) -> str:
        payload = {
            "memories": [
                {
                    "ref": m.ref,
                    "kind": m.kind,
                    "score": m.score,
                    "confidence": m.confidence,
                    "factors": list(m.factors),
                    "symptom_tokens": sorted(m.symptom_tokens),
                }
                for m in self.memories
            ],
            "c_max": self.c_max,
            "psi": self.psi,
            "novelty": self.novelty,
            "complexity": self.complexity,
        }
        return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# scoring primitives


def recency(delta_t: float, tau: float) -> float:
    """Exponential freshness decay exp(-dt/tau) for dt >= 0."""
    if delta_t < 0:
        raise InvalidArgument(f"delta_t must be >= 0, got {delta_t}")
    if tau <= 0:
        raise InvalidArgument(f"tau must be > 0, got {tau}")
    return math.exp(-delta_t / tau)


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _cos(a: np.ndarray, b: np.ndarray) -> float:
    # unit vectors by construction; plain dot, scalar on purpose
    return float(np.dot(a, b))


def raw_score(vec: np.ndarray, ts: float, q: Query, now: float, cfg: MemoryConfig) -> float:
    """Similarity/recency blend for a single memory, before tier scaling."""
    lam = cfg.similarity_weight
    dt = max(0.0, now - ts)
    return lam * _cos(vec, q.embedding) + (1.0 - lam) * recency(dt, cfg.recency_tau_s)


def complexity(symptoms: Sequence[str]) -> float:
    """Token-entropy of the symptom text, normalized to [0, 1]."""
    tokens = [t for s in symptoms for t in tokenize(s)]
    if not tokens:
        raise InvalidQuery("cannot measure complexity of empty symptoms")
    counts = Counter(tokens)
    if len(counts) == 1:
        return 0.0
    total = len(tokens)
    h = -sum((c / total) * math.log(c / total) for c in counts.values())
    return h / math.log(len(counts))


def confidence_value(factors: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted factor product: prod_j f_j ** zeta_j."""
    if len(factors) != len(weights):
        raise InvalidArgument("factor/weight length mismatch")
    out = 1.0
    for f, z in zip(factors, weights):
        if z < 0:
            raise InvalidArgument(f"factor weights must be >= 0, got {z}")
        out *= max(0.0, f) ** z
    return out


def context_overlap(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard overlap of two label sets; two empty sets count as a full match."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    union = sa | sb
    return len(sa & sb) / len(union)


def _success_factor(successes: float, trials: float) -> float:
    # Laplace smoothing: an untried memory sits at 0.5
    return (successes + 1.0) / (trials + 2.0)


def compute_factors(
    memory: Episode | Pattern, q: Query, now: float, cfg: MemoryConfig
) -> tuple[float, float, float, float]:
    """The (similarity, temporal, success, context) confidence factors."""
    if isinstance(memory, Episode):
        vec, ts = memory.embedding, memory.timestamp
        f_succ = _success_factor(memory.successes, memory.trials)
        labels: Iterable[str] = memory.context
    else:
        vec, ts = memory.centroid, memory.last_updated
        f_succ = _success_factor(memory.success_members, memory.member_count)
        labels = memory.context_labels
    f_sim = math.exp(-(1.0 - _cos(vec, q.embedding)) / cfg.sim_scale)
    f_temp = math.exp(-max(0.0, now - ts) / cfg.temporal_tau_s)
    f_ctx = context_overlap(labels, q.context)
    return (f_sim, f_temp, f_succ, f_ctx)


# ---------------------------------------------------------------------------
# the pool


class MemoryPool:
    """Bounded store of episodes and patterns with exact retrieval.

    Single writer: mutations take an internal lock, but reads iterate the
    live dicts without it, so readers must not run concurrently with a
    writer.  Episodes iterate in insertion order.

    ``_neighbours`` maps every stored episode id to the ids whose scalar
    ``_cos`` with it exceeds ``pattern_sim_threshold``, itself included: one
    id per ordered pair above the threshold (about 8.5k ids after a
    400-session recurring stream, 184k after 2,000 sessions).  It stays
    ``None`` until the first pattern formation, so loading a store for a
    read-only diagnosis never pays the quadratic build.  The pair cosine is
    symmetric, so the sets equal a per-seed rescan exactly.
    """

    def __init__(self, config: MemoryConfig | None = None) -> None:
        self.config = config or MemoryConfig()
        self.config.validate()
        self._episodes: dict[str, Episode] = {}
        self._patterns: dict[str, Pattern] = {}
        self._tombstones: dict[str, Outcome] = {}  # evicted id -> final outcome
        self._pattern_seq = 0
        self._neighbours: dict[str, set[str]] | None = None  # built on first formation
        self._lock = threading.RLock()

    # -- basic introspection ------------------------------------------------

    def __len__(self) -> int:
        return len(self._episodes) + len(self._patterns)

    @property
    def episodes(self) -> dict[str, Episode]:
        return self._episodes

    @property
    def patterns(self) -> dict[str, Pattern]:
        return self._patterns

    def episode(self, episode_id: str) -> Episode:
        try:
            return self._episodes[episode_id]
        except KeyError:
            raise NotFound(f"unknown episode id {episode_id!r}") from None

    def get_memory(self, ref: str) -> Episode | Pattern:
        if ref in self._episodes:
            return self._episodes[ref]
        if ref in self._patterns:
            return self._patterns[ref]
        raise NotFound(f"unknown memory ref {ref!r}")

    # -- mutation -----------------------------------------------------------

    def insert_episode(self, episode: Episode) -> None:
        with self._lock:
            if episode.id in self._episodes or episode.id in self._tombstones:
                raise DuplicateId(f"episode id {episode.id!r} already used")
            episode.validate()
            if len(episode.embedding) != self.config.embedding_dim:
                raise InvalidArgument(
                    f"episode {episode.id}: embedding dim {len(episode.embedding)}"
                    f" != {self.config.embedding_dim}"
                )
            self._episodes[episode.id] = episode
            while len(self._episodes) > self.config.capacity:
                self._evict_one()
            if self._neighbours is not None and episode.id in self._episodes:
                self._link(episode)

    def _evict_one(self) -> None:
        victim = min(
            self._episodes.values(), key=lambda e: (e.memory_value, e.timestamp, e.id)
        )
        self._tombstones[victim.id] = victim.outcome
        del self._episodes[victim.id]
        if self._neighbours is not None:
            # the victim may be an insert not linked yet
            for nid in self._neighbours.pop(victim.id, ()):
                if nid != victim.id:
                    self._neighbours[nid].discard(victim.id)

    def update_outcome(self, episode_id: str, outcome: Outcome, success: bool) -> None:
        """Record a feedback trial and scale the episode's retention value."""
        with self._lock:
            ep = self.episode(episode_id)
            ep.outcome = outcome
            ep.trials += 1
            ep.successes += int(success)
            delta = self.config.outcome_delta
            factor = (1.0 + delta) if success else (1.0 - delta)
            ep.memory_value = max(0.0, ep.memory_value * factor)
            for pat in self._patterns.values():
                if episode_id in pat.member_ids:
                    self._recount_reliability(pat)

    def _recount_reliability(self, pat: Pattern) -> None:
        wins = 0
        for mid in pat.member_ids:
            if mid in self._episodes:
                wins += int(self._episodes[mid].outcome is Outcome.SUCCESS)
            elif mid in self._tombstones:
                wins += int(self._tombstones[mid] is Outcome.SUCCESS)
        pat.success_members = wins
        pat.reliability = wins / len(pat.member_ids) if pat.member_ids else 0.0

    # -- pattern formation --------------------------------------------------

    def form_patterns(self, now: float | None = None) -> list[str]:
        """Full clustering pass; returns ids of patterns created or updated.

        Re-running on an unchanged pool is a no-op apart from refreshing the
        same pattern contents (idempotent end state).
        """
        with self._lock:
            return self._form_for_seeds(sorted(self._episodes), now)

    def form_patterns_incremental(self, new_episode_id: str, now: float | None = None) -> list[str]:
        """Re-cluster only the neighborhoods affected by one new episode.

        The seeds are the new episode and its neighbours, read from the
        neighbour sets (built here on the first formation, kept current by
        ``insert_episode`` afterwards), so no cosine is computed here.
        """
        with self._lock:
            ep = self.episode(new_episode_id)
            return self._form_for_seeds(sorted(self._neighborhood(ep) | {ep.id}), now)

    def _neighborhood(self, seed: Episode) -> set[str]:
        """The live neighbour set of ``seed``; callers must not keep or mutate it."""
        if self._neighbours is None:
            self._neighbours = {}
            for ep in self._episodes.values():
                self._link(ep)
        return self._neighbours[seed.id]

    def _link(self, ep: Episode) -> None:
        # one scalar cosine against every linked episode and ``ep`` itself
        th = self.config.pattern_sim_threshold
        nbrs = self._neighbours
        mine = nbrs[ep.id] = set()
        for oid in nbrs:
            if _cos(ep.embedding, self._episodes[oid].embedding) > th:
                mine.add(oid)
                nbrs[oid].add(ep.id)

    def _form_for_seeds(self, seed_ids: Sequence[str], now: float | None) -> list[str]:
        touched: dict[str, None] = {}  # insertion-ordered de-dup
        for sid in seed_ids:
            seed = self._episodes.get(sid)
            if seed is None:
                continue
            members = self._neighborhood(seed)
            if len(members) < self.config.pattern_min_members:
                continue
            target = self._best_overlap(members)
            if target is None:
                self._pattern_seq += 1
                target = Pattern(
                    id=f"pat-{self._pattern_seq:06d}",
                    centroid=np.zeros(self.config.embedding_dim),
                    actions=[],
                    resolution_path=[],
                    source_episode_id="",
                    reliability=0.0,
                    member_count=0,
                    member_ids=set(),
                    last_updated=0.0,
                    seed_id=sid,
                )
                self._patterns[target.id] = target
                changed = True
            else:
                changed = members != target.member_ids
            if changed:
                self._refresh_pattern(target, members, sid)
                touched[target.id] = None
        return list(touched)

    def _best_overlap(self, members: set[str]) -> Pattern | None:
        best: Pattern | None = None
        best_frac = 0.5  # strict majority overlap required to merge
        for pat in sorted(self._patterns.values(), key=lambda p: p.id):
            frac = len(members & pat.member_ids) / max(len(members), len(pat.member_ids))
            if frac > best_frac:
                best, best_frac = pat, frac
        return best

    def _refresh_pattern(self, pat: Pattern, members: set[str], seed_id: str) -> None:
        rows = np.stack([self._episodes[m].embedding for m in sorted(members)])
        centroid = rows.mean(axis=0)
        norm = float(np.linalg.norm(centroid))
        if norm == 0.0:
            centroid = rows[0].copy()
            norm = 1.0
        centroid = centroid / norm
        eps = [self._episodes[m] for m in sorted(members)]
        donor = max(eps, key=lambda e: (e.memory_value, e.id))
        pat.centroid = centroid
        pat.actions = list(donor.actions)
        pat.resolution_path = list(donor.resolution_path)
        pat.source_episode_id = donor.id
        pat.member_ids = set(members)
        pat.member_count = len(members)
        pat.seed_id = seed_id
        pat.last_updated = max(e.timestamp for e in eps)
        pat.symptom_tokens = frozenset().union(*(e.symptom_tokens for e in eps))
        ctx_sets = [set(e.context) for e in eps]
        pat.context_labels = frozenset(set.intersection(*ctx_sets)) if ctx_sets else frozenset()
        pat.success_members = sum(e.outcome is Outcome.SUCCESS for e in eps)
        pat.reliability = pat.success_members / pat.member_count

    # -- retrieval ----------------------------------------------------------

    def novelty(self, q: Query) -> float:
        """Minimum cosine distance from the query to any stored memory; 1.0 when empty."""
        best = None
        for ep in self._episodes.values():
            d = 1.0 - _cos(ep.embedding, q.embedding)
            if best is None or d < best:
                best = d
        for pat in self._patterns.values():
            d = 1.0 - _cos(pat.centroid, q.embedding)
            if best is None or d < best:
                best = d
        return 1.0 if best is None else max(0.0, best)

    def mixing(self, q: Query) -> tuple[float, float, float]:
        """Pattern-vs-episode attention split; returns (psi, novelty, complexity)."""
        nov = self.novelty(q)
        comp = complexity(q.symptoms)
        w1, w2 = self.config.mix_weights
        psi = _sigmoid(w1 * nov + w2 * comp + self.config.mix_bias)
        return psi, nov, comp

    def _scored(self, mem: Episode | Pattern, score: float, q: Query, now: float,
                weights: Sequence[float]) -> ScoredMemory:
        factors = compute_factors(mem, q, now, self.config)
        return ScoredMemory(
            ref=mem.id,
            kind="episode" if isinstance(mem, Episode) else "pattern",
            score=score,
            confidence=confidence_value(factors, weights),
            factors=factors,
            symptom_tokens=mem.symptom_tokens,
        )

    def retrieve(
        self, q: Query, weights: Sequence[float], now: float, k: int | None = None
    ) -> RetrievalResult:
        """Top-k memories by tier-scaled score; ties by confidence, then id.

        Scores every memory, then computes confidences only for rows scoring
        at least the k-th best score.  That is exact: confidence only breaks
        ties, and every tie at the cutoff is kept.
        """
        k = self.config.retrieval_k if k is None else k
        if k < 1:
            raise InvalidArgument(f"k must be >= 1, got {k}")
        psi, nov, comp = self.mixing(q)
        ep_scale, pat_scale = (1.0 - psi), psi
        cfg = self.config
        rows: list[tuple[float, Episode | Pattern]] = [
            (ep_scale * raw_score(ep.embedding, ep.timestamp, q, now, cfg), ep)
            for ep in self._episodes.values()
        ]
        rows += [
            (pat_scale * raw_score(pat.centroid, pat.last_updated, q, now, cfg), pat)
            for pat in self._patterns.values()
        ]
        cutoff = min(heapq.nlargest(k, (s for s, _ in rows)), default=0.0)
        top = sorted(
            (self._scored(mem, s, q, now, weights) for s, mem in rows if s >= cutoff),
            key=lambda m: (-m.score, -m.confidence, m.ref),
        )[:k]
        c_max = max((m.confidence for m in top), default=0.0)
        return RetrievalResult(memories=top, c_max=c_max, psi=psi, novelty=nov, complexity=comp)

    def _gated_paths(self, memories: Iterable[ScoredMemory]) -> Iterable[list[str]]:
        # an off-topic memory (zero context overlap in particular) must not
        # steer graph exploration just because the pool holds nothing better
        for m in memories:
            if m.confidence < self.config.hint_min_confidence:
                continue
            yield self.get_memory(m.ref).resolution_path

    def hints(self, result: RetrievalResult) -> set[str]:
        """Union of resolution-path node ids over the top ``hint_k`` memories
        of ``result``.

        Hits below ``hint_min_confidence`` contribute nothing; set the gate
        to 0 to recover the ungated union.
        """
        return {n for path in self._gated_paths(result.memories[: self.config.hint_k]) for n in path}

    def memory_paths(self, result: RetrievalResult) -> list[list[str]]:
        """Resolution paths of confidently retrieved memories, in retrieval
        order; gated like :meth:`hints` so weak hits cannot bias search."""
        return [list(path) for path in self._gated_paths(result.memories)]

    # -- persistence --------------------------------------------------------

    def save_episodes(self, path: str) -> None:
        write_atomic(path, lambda fh: fh.writelines(
            json.dumps(_episode_to_dict(ep), sort_keys=True) + "\n"
            for ep in self._episodes.values()
        ))

    def load_episodes(self, path: str) -> int:
        """Load an episode JSONL file; raises on the first invalid line."""
        n = 0
        dim = self.config.embedding_dim
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    self.insert_episode(episode_from_dict(json.loads(line), dim))
                except (ValueError, KeyError, TypeError, InvalidArgument) as exc:
                    raise SchemaViolation(f"line {line_no}: {exc}") from exc
                n += 1
        return n

    def save_pattern_snapshot(self, path: str) -> None:
        payload = {
            "patterns": [_pattern_to_dict(p) for _, p in sorted(self._patterns.items())],
            "config": dataclasses.asdict(self.config),
        }
        write_atomic(path, lambda fh: json.dump(payload, fh, sort_keys=True, indent=2))

    def load_pattern_snapshot(self, path: str) -> int:
        """Load a pattern snapshot; a malformed file raises ``SchemaViolation``
        and leaves the pool's patterns untouched."""
        dim = self.config.embedding_dim
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if not isinstance(payload, dict) or not isinstance(payload["patterns"], list):
                raise TypeError("payload must be an object with a 'patterns' list")
            loaded = [_pattern_from_dict(raw, dim) for raw in payload["patterns"]]
            seq = self._pattern_seq
            for pat in loaded:
                norm = float(np.linalg.norm(pat.centroid))
                if not abs(norm - 1.0) <= 1e-6:  # NaN fails too
                    raise ValueError(f"{pat.id}: centroid norm {norm:.8f} != 1")
                if pat.id.startswith("pat-"):
                    seq = max(seq, int(pat.id.rsplit("-", 1)[-1]))
        except (ValueError, KeyError, TypeError) as exc:
            raise SchemaViolation(f"bad pattern snapshot: {exc}") from exc
        self._patterns.update((pat.id, pat) for pat in loaded)
        self._pattern_seq = seq
        return len(loaded)


# ---------------------------------------------------------------------------
# serialization helpers


def _vector_to_json(v: np.ndarray) -> dict:
    """Sparse form of a dense vector: every entry that is not ``+0.0``.

    ``-0.0`` is kept, so :func:`_vector_from_json` rebuilds the array bit for
    bit.
    """
    index = np.flatnonzero(np.signbit(v) | (v != 0))
    return {"dim": int(v.size), "index": index.tolist(), "value": v[index].tolist()}


def _vector_from_json(raw: object, dim: int) -> np.ndarray:
    """Dense float64 array of length ``dim`` from :func:`_vector_to_json`'s
    form, or from the dense list that older stores hold.

    The sparse form is checked in full before the array is allocated, so a
    bogus ``dim`` or index costs nothing.
    """
    if isinstance(raw, list):
        out = np.asarray(raw, dtype=np.float64)
        if out.shape != (dim,):
            raise ValueError(f"vector shape {out.shape} != ({dim},)")
        return out
    if not isinstance(raw, dict):
        raise TypeError(f"vector must be an object or a list, got {type(raw).__name__}")
    size, index, value = raw["dim"], raw["index"], raw["value"]
    if type(size) is not int or size != dim:
        raise ValueError(f"vector dim {size!r} != {dim}")
    if not isinstance(index, list) or not isinstance(value, list) or len(index) != len(value):
        raise ValueError("vector index and value must be lists of equal length")
    prev = -1
    for i, x in zip(index, value):
        # bool is an int subclass, and numpy would cast 1.5 or True to an index
        if type(i) is not int or not prev < i < dim:
            raise ValueError(f"vector index {i!r} not an increasing int in [0, {dim})")
        if type(x) is not float:
            raise ValueError(f"vector value {x!r} is not a float")
        prev = i
    out = np.zeros(dim, dtype=np.float64)
    out[np.asarray(index, dtype=np.intp)] = value
    return out


def _episode_to_dict(ep: Episode) -> dict:
    return {
        "id": ep.id,
        "symptoms": list(ep.symptoms),
        "context": sorted(ep.context),
        "actions": list(ep.actions),
        "outcome": ep.outcome.value,
        "timestamp": ep.timestamp,
        "memory_value": ep.memory_value,
        "embedding": _vector_to_json(ep.embedding),
        "resolution_path": list(ep.resolution_path),
        "trials": ep.trials,
        "successes": ep.successes,
    }


def episode_from_dict(raw: dict, dim: int) -> Episode:
    return Episode(
        id=str(raw["id"]),
        symptoms=[str(s) for s in raw["symptoms"]],
        context=set(str(c) for c in raw["context"]),
        actions=[str(a) for a in raw["actions"]],
        outcome=Outcome(raw["outcome"]),
        timestamp=float(raw["timestamp"]),
        memory_value=float(raw["memory_value"]),
        embedding=_vector_from_json(raw["embedding"], dim),
        resolution_path=[str(p) for p in raw["resolution_path"]],
        trials=int(raw.get("trials", 0)),
        successes=int(raw.get("successes", 0)),
    )


def _pattern_to_dict(p: Pattern) -> dict:
    return {
        "id": p.id,
        "centroid": _vector_to_json(p.centroid),
        # grouped on disk as before, so older and newer snapshots read alike
        "strategy": {
            "actions": list(p.actions),
            "resolution_path": list(p.resolution_path),
            "source_episode_id": p.source_episode_id,
        },
        "reliability": p.reliability,
        "member_count": p.member_count,
        "member_ids": sorted(p.member_ids),
        "last_updated": p.last_updated,
        "seed_id": p.seed_id,
        "symptom_tokens": sorted(p.symptom_tokens),
        "context_labels": sorted(p.context_labels),
        "success_members": p.success_members,
    }


def _pattern_from_dict(raw: dict, dim: int) -> Pattern:
    strategy = raw["strategy"]
    return Pattern(
        id=str(raw["id"]),
        centroid=_vector_from_json(raw["centroid"], dim),
        actions=[str(a) for a in strategy["actions"]],
        resolution_path=[str(p) for p in strategy["resolution_path"]],
        source_episode_id=str(strategy["source_episode_id"]),
        reliability=float(raw["reliability"]),
        member_count=int(raw["member_count"]),
        member_ids=set(str(m) for m in raw["member_ids"]),
        last_updated=float(raw["last_updated"]),
        seed_id=str(raw["seed_id"]),
        symptom_tokens=frozenset(raw.get("symptom_tokens", ())),
        context_labels=frozenset(raw.get("context_labels", ())),
        success_members=int(raw.get("success_members", 0)),
    )

