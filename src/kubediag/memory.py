"""Episodic and pattern memory for diagnostic experience.

The pool stores concrete diagnostic trajectories (episodes) and abstracted
recurring structures (patterns).  Retrieval blends embedding similarity with
recency, splits attention between the two tiers with a novelty/complexity
mixing weight, and attaches a multi-factor confidence to every returned
memory.  Retrieval is exact: it returns what scoring every memory with the
scalar formulas would, and the confidence, which only breaks ties, is
computed for the rows at or above the k-th best score alone.

Each episode holds its embedding, and each pattern its centroid, as a
:class:`~kubediag.embedding.SparseVector` alone.  The pool keeps the entries
of every stored episode as one sparse index
(:class:`~kubediag.embedding.SparseRows`), one row per episode, and those of
every pattern centroid as another.  Every cosine the pool uses is the one
:mod:`kubediag.embedding` defines, and one product per index gives it for
every row: novelty, retrieval and the confidence factors of one query share
one episode product and one pattern product, and linking an insert to its
neighbours takes one episode product.  An insert checks the episode, its
norm from its stored entries alone, before it changes anything.

Pattern formation reads each episode's neighbourhood (the episodes whose
cosine with it exceeds ``pattern_sim_threshold``) from sets the pool keeps
current.  They are built on the first formation, then each insert links the
new episode and each eviction unlinks its victim.  One map, from a member id
to the patterns holding it, finds the patterns a neighbourhood overlaps and
any that has it exactly.  A formation call refreshes each pattern it
touches once, at its end, and replaces that pattern's row of the pattern
index in place.  A refresh that only adds the newest episode to a pattern
(most of them on a recurring stream) adds that episode's entries to the
pattern's kept member sum: the pool keeps each pattern's unnormalised member
sum, whose non-zero columns are the centroid's entries, and its leading
member, so the fields come out bit for bit as reading every member would
give them.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .embedding import DEFAULT_DIM, Embedder, SparseRows, SparseVector
from .errors import DuplicateId, InvalidArgument, InvalidQuery, NotFound
from .files import check_fields
from .text import tokenize

SECONDS_PER_DAY = 86_400.0

#: Order of the confidence factors everywhere in the package.
FACTOR_NAMES = ("similarity", "temporal", "success", "context")

_FACTOR_FLOOR = 1e-7  # avoids log(0) downstream when weights are fitted

# Absolute slack on vectorised scores.  A score is at most about 1 in
# magnitude, and the vectorised blend differs from ``raw_score`` only in
# using ``np.exp`` for ``math.exp`` (each within a few ulps of exp) and in
# the rounding that follows: a few units of 2**-53, far below 2**-40.
_SCORE_SLACK = 2.0 ** -40


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
        check_fields(self)
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
        if self.embedding_dim > 2 ** 31 - 1:
            # the store writes each vector index as an int32
            raise InvalidArgument(f"embedding_dim must be <= 2**31 - 1, got {self.embedding_dim}")


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
    """One concrete diagnostic trajectory.  Its embedding is held as
    ``vector`` alone; ``vector.dense()`` rebuilds the dense array from it,
    bit for bit."""

    id: str
    symptoms: list[str]
    context: set[str]
    actions: list[str]
    outcome: Outcome
    timestamp: float
    memory_value: float
    vector: SparseVector
    resolution_path: list[str]
    trials: int = 0      # feedback updates received
    successes: int = 0   # ... of which were successes

    def validate(self) -> None:
        if not self.id:
            raise InvalidArgument("episode id must be non-empty")
        self._check_norm()
        if not 0.0 <= self.memory_value < math.inf:  # NaN fails too
            raise InvalidArgument(f"episode {self.id}: memory_value must be finite and >= 0")
        if not 0 <= self.successes <= self.trials:
            raise InvalidArgument(
                f"episode {self.id}: need 0 <= successes <= trials,"
                f" got {self.successes} of {self.trials}"
            )
        if not math.isfinite(self.timestamp) or self.timestamp < 0:
            raise InvalidArgument(f"episode {self.id}: timestamp must be finite and >= 0")

    def _check_norm(self) -> None:
        norm = _norm(self.vector.value)
        if not abs(norm - 1.0) <= 1e-6:  # NaN fails too
            raise InvalidArgument(f"episode {self.id}: embedding norm {norm:.8f} != 1")


@dataclass(eq=False)
class Pattern:
    """Abstraction over a neighborhood of mutually similar episodes.

    ``centroid`` is the unit mean of the members' embeddings, held as a
    :class:`~kubediag.embedding.SparseVector` like an episode's.
    ``actions`` and ``resolution_path`` are copied from the member with the
    highest memory value, ``source_episode_id``.  ``member_ids`` may name
    evicted episodes, and is read-only outside the pool, which indexes
    patterns by it; ``context_labels`` are the labels every member shares
    and ``success_members`` counts the members whose last outcome was a
    success.
    """

    id: str
    centroid: SparseVector
    actions: list[str]
    resolution_path: list[str]
    source_episode_id: str
    member_ids: set[str]
    last_updated: float
    context_labels: frozenset[str] = frozenset()
    success_members: int = 0


def _donor_key(ep: Episode) -> tuple[float, str]:
    """A pattern copies its strategy from the member of largest key."""
    return ep.memory_value, ep.id


@dataclass(eq=False)
class _Fold:
    """What refreshing a pattern by one appended member reads, kept by the
    pool beside the pattern since its last full recompute."""

    total: np.ndarray      # float64 axis-0 sum of the member embeddings, in id order
    last: str              # the largest member id
    best: Episode | None   # the member of largest _donor_key; None once it fell


@dataclass(eq=False)
class ScoredMemory:
    """One retrieval hit: the memory it scored, its tier, scaled score and
    confidence.

    ``memory`` is the scored object itself, so readers take its paths and
    actions from the hit even after the pool has evicted it.
    """

    ref: str
    kind: str                      # "episode" | "pattern"
    score: float
    confidence: float
    factors: tuple[float, float, float, float]
    memory: Episode | Pattern


@dataclass(eq=False)
class RetrievalResult:
    memories: list[ScoredMemory]
    c_max: float
    psi: float
    novelty: float
    complexity: float


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


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` of a real 1-D vector, bit for bit: the same
    ``sqrt(v.dot(v))`` without the wrapper's dispatch.  Like it, this reads
    a strided vector through a contiguous copy, as ``dot`` may sum a
    strided one in another order."""
    v = v.ravel(order="K")
    return math.sqrt(float(v.dot(v)))


def raw_score(sim: float, ts: float, now: float, cfg: MemoryConfig) -> float:
    """Similarity/recency blend for a single memory of cosine ``sim`` with
    the query, before tier scaling."""
    lam = cfg.similarity_weight
    dt = max(0.0, now - ts)
    return lam * sim + (1.0 - lam) * recency(dt, cfg.recency_tau_s)


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
    memory: Episode | Pattern, sim: float, q: Query, now: float, cfg: MemoryConfig
) -> tuple[float, float, float, float]:
    """The (similarity, temporal, success, context) confidence factors of a
    memory whose cosine with the query is ``sim``."""
    if isinstance(memory, Episode):
        ts = memory.timestamp
        f_succ = _success_factor(memory.successes, memory.trials)
        labels: Iterable[str] = memory.context
    else:
        ts = memory.last_updated
        f_succ = _success_factor(memory.success_members, len(memory.member_ids))
        labels = memory.context_labels
    f_sim = math.exp(-(1.0 - sim) / cfg.sim_scale)
    f_temp = math.exp(-max(0.0, now - ts) / cfg.temporal_tau_s)
    f_ctx = context_overlap(labels, q.context)
    return (f_sim, f_temp, f_succ, f_ctx)


# ---------------------------------------------------------------------------
# the pool


class MemoryPool:
    """Bounded store of episodes and patterns with exact retrieval.

    Single writer: nothing is locked, and reads iterate the live dicts, so
    readers must not run concurrently with a writer.  Episodes iterate in
    insertion order.  An episode's vector and timestamp must not change once
    it is inserted: the sparse index holds the vector's entries and a copy
    of the timestamp.

    ``_rows`` holds the stored episodes in the order of the sparse index's
    rows (``_index``, with the timestamps in the array ``_stamps``): each
    insert appends a row and each eviction deletes one.  ``_patterns``'
    centroids are the rows of a second index (``_pattern_index``), in
    ``patterns`` order: formation appends the row of each pattern it creates
    and replaces in place the row of each it refreshes (:meth:`_reindex`),
    and a snapshot load rebuilds the index from every pattern, as patterns
    are never deleted.  :meth:`_cosines` gives every row's cosine with a
    query from one product per index, memoised per query vector, so
    :meth:`novelty` and :meth:`retrieve` share them.  Retrieval
    scores every pattern and, of the episodes, only those whose vectorised
    score, widened by ``_SCORE_SLACK``, reaches the k-th largest of the
    episodes' narrowed scores and the patterns' scores; each kept row is
    scored with the scalar :func:`raw_score`.

    ``_neighbours`` maps every stored episode id to the ids whose cosine with
    it exceeds ``pattern_sim_threshold``, itself included: one id per
    ordered pair above the threshold (about 8.5k ids after a 400-session
    recurring stream, 184k after 2,000 sessions).  It stays ``None`` until
    the first pattern formation, so loading a store for a read-only
    diagnosis never builds it; the build takes one index product per stored
    episode.  The pair cosine is symmetric, so the sets equal a per-seed
    rescan exactly.

    ``_holders`` maps a member id to the ids of the patterns holding it, so
    formation and outcome updates never scan every pattern.  Invariant: it
    equals the map rebuilt from ``patterns``.  :meth:`_remap` updates it
    wherever a pattern's member set is replaced (:meth:`_move`)
    or a pattern is loaded (:meth:`load_pattern_snapshot`), and nowhere
    else, so ``patterns`` and each ``Pattern.member_ids`` are read-only to
    callers.

    A formation call moves member sets alone while it walks its seeds, then
    refreshes each pattern it touched once, from the member set of that
    pattern's last refresh (:meth:`_form_for_seeds`).  ``_folds`` keeps, for
    each pattern refreshed since it was created or loaded, a :class:`_Fold`:
    the float64 sum of its member embeddings in id order (what ``mean``
    divides), its largest member id, and its member of largest
    ``(memory_value, id)``.  A refresh to the old members plus one id sorting
    after them all adds the new member's sparse entries to the fold
    (:meth:`_append`); any other refresh sums every member's entries with one
    ``np.bincount`` and replaces the fold (:meth:`_recompute`).  Neither
    rebuilds a member's dense embedding, nor scans a dense centroid for its
    entries.  A loaded pattern has no fold, so loading a snapshot builds no
    sums.  The leading member stays
    exact because an episode's ``memory_value`` changes only through
    :meth:`update_outcome`, which promotes a member that rises past the
    leader and drops the leader that falls, so that the next append rescans
    the members once.
    """

    def __init__(self, config: MemoryConfig | None = None) -> None:
        self.config = config or MemoryConfig()
        self.config.validate()
        self._episodes: dict[str, Episode] = {}
        self._patterns: dict[str, Pattern] = {}
        self._tombstones: set[str] = set()  # evicted ids, never reused
        self._pattern_seq = 0
        self._neighbours: dict[str, set[str]] | None = None  # built on first formation
        self._holders: dict[str, set[str]] = {}  # member id -> ids of patterns holding it
        self._folds: dict[str, _Fold] = {}  # pattern id -> its fold, since its last recompute
        self._index = SparseRows(self.config.embedding_dim)
        self._rows: list[Episode] = []
        self._stamps = np.empty(0)
        # the centroids' rows, in ``patterns`` order
        self._pattern_index = SparseRows(self.config.embedding_dim)
        # what the last _cosines call returned, and for which vector, until
        # the rows or the patterns change
        self._memo: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- basic introspection ------------------------------------------------

    def __len__(self) -> int:
        return len(self._episodes) + len(self._patterns)

    @property
    def episodes(self) -> dict[str, Episode]:
        return self._episodes

    @property
    def patterns(self) -> dict[str, Pattern]:
        """The live patterns by id; read-only to callers (see the class docstring)."""
        return self._patterns

    def episode(self, episode_id: str) -> Episode:
        try:
            return self._episodes[episode_id]
        except KeyError:
            raise NotFound(f"unknown episode id {episode_id!r}") from None

    # -- mutation -----------------------------------------------------------

    def insert_episode(self, episode: Episode) -> None:
        """Store ``episode``, then evict down to ``capacity``.  Every check
        runs first, so a rejected episode leaves the pool as it was."""
        self._check_unused(episode.id)
        episode.validate()
        vector = episode.vector
        if vector.dim != self.config.embedding_dim:
            raise InvalidArgument(
                f"episode {episode.id}: embedding dim {vector.dim}"
                f" != {self.config.embedding_dim}"
            )
        self._index.append(vector)
        self._admit([episode])

    def _check_unused(self, episode_id: str) -> None:
        if episode_id in self._episodes or episode_id in self._tombstones:
            raise DuplicateId(f"episode id {episode_id!r} already used")

    def _admit(self, episodes: list[Episode]) -> None:
        """Store ``episodes``, whose rows were just added to ``_index`` in
        order, then evict down to ``capacity`` and link the survivors.

        Admitting several at once ends in the state of admitting them one at
        a time: the pool keeps the ``capacity`` best by eviction key of all
        it saw either way (no key changes meanwhile), rows stay in insertion
        order, and a pair's link depends only on its cosine.
        """
        for ep in episodes:
            self._episodes[ep.id] = ep
        self._rows += episodes
        self._stamps = np.append(self._stamps, [ep.timestamp for ep in episodes])
        self._memo = None
        while len(self._episodes) > self.config.capacity:
            self._evict_one()
        if self._neighbours is not None:
            for ep in episodes:
                if ep.id in self._episodes:
                    self._link(ep)

    def _evict_one(self) -> None:
        victim = min(
            self._episodes.values(), key=lambda e: (e.memory_value, e.timestamp, e.id)
        )
        self._tombstones.add(victim.id)
        del self._episodes[victim.id]
        r = self._rows.index(victim)
        del self._rows[r]
        self._stamps = np.delete(self._stamps, r)
        self._index.delete(r)
        self._memo = None
        if self._neighbours is not None:
            # the victim may be an insert not linked yet
            for nid in self._neighbours.pop(victim.id, ()):
                if nid != victim.id:
                    self._neighbours[nid].discard(victim.id)

    def update_outcome(self, episode_id: str, outcome: Outcome) -> None:
        """Record a feedback trial and scale the episode's retention value,
        up on a success and down otherwise.

        Each pattern holding the episode moves ``success_members`` by the
        change in the episode's last outcome, so members evicted earlier,
        or before the store was reloaded, keep counting as they last did.
        """
        ep = self.episode(episode_id)
        success = outcome is Outcome.SUCCESS
        change = int(success) - int(ep.outcome is Outcome.SUCCESS)
        ep.outcome = outcome
        ep.trials += 1
        ep.successes += int(success)
        delta = self.config.outcome_delta
        factor = (1.0 + delta) if success else (1.0 - delta)
        old_value, ep.memory_value = ep.memory_value, max(0.0, ep.memory_value * factor)
        for pid in self._holders.get(episode_id, ()):
            if change:
                pat = self._patterns[pid]
                # a snapshot saved beside other episodes may disagree; stay in range
                pat.success_members = min(max(pat.success_members + change, 0),
                                          len(pat.member_ids))
            fold = self._folds.get(pid)
            if fold is None or fold.best is None:
                continue
            if fold.best is ep:
                if ep.memory_value < old_value:
                    fold.best = None  # another member may now lead: rescan at the next append
            elif _donor_key(ep) > _donor_key(fold.best):
                fold.best = ep

    # -- pattern formation --------------------------------------------------

    def form_patterns(self, now: float | None = None) -> list[str]:
        """Full clustering pass; returns ids of patterns created or updated.

        Re-running on an unchanged pool is a no-op apart from refreshing the
        same pattern contents (idempotent end state).  ``now`` is not read:
        a pattern's ``last_updated`` is its newest member's timestamp.
        """
        return self._reindex(self._form_for_seeds(sorted(self._episodes)))

    def form_patterns_incremental(self, new_episode_id: str) -> list[str]:
        """Re-cluster only the neighborhoods affected by one new episode.

        The seeds are the new episode and its neighbours, read from the
        neighbour sets (built here on the first formation, kept current by
        ``insert_episode`` afterwards), so no cosine is computed here.
        """
        ep = self.episode(new_episode_id)
        return self._reindex(self._form_for_seeds(sorted(self._neighborhood(ep) | {ep.id})))

    def _neighborhood(self, seed: Episode) -> set[str]:
        """The live neighbour set of ``seed``; callers must not keep or mutate it."""
        if self._neighbours is None:
            self._neighbours = {}
            for ep in self._episodes.values():
                self._link(ep)
        return self._neighbours[seed.id]

    def _link(self, ep: Episode) -> None:
        # links every linked episode, ``ep`` included, whose cosine with
        # ``ep`` exceeds the threshold
        nbrs = self._neighbours
        mine = nbrs[ep.id] = set()
        cos = self._index.cosines(ep.vector.dense())
        for r in np.flatnonzero(cos > self.config.pattern_sim_threshold).tolist():
            other = self._rows[r]
            if other.id in nbrs:
                mine.add(other.id)
                nbrs[other.id].add(ep.id)

    def _form_for_seeds(self, seed_ids: Sequence[str]) -> list[str]:
        """Move the member sets of the patterns the seeds' neighbourhoods
        form, then refresh each such pattern once; returns their ids in the
        order first moved.

        Inside the loop only ``member_ids`` and ``_holders`` move, as they
        are all that the skip and :meth:`_best_overlap` read.  The refreshed
        fields are a function of the final member set and of episode state,
        which formation does not change, so one refresh from the member set
        of a pattern's last refresh gives the fields a refresh per move would.
        """
        touched: dict[str, set[str]] = {}  # pattern id -> its members at its last refresh
        patterns, holders = self._patterns, self._holders
        for sid in seed_ids:
            seed = self._episodes.get(sid)
            if seed is None:
                continue
            members = self._neighborhood(seed)
            if len(members) < self.config.pattern_min_members:
                continue
            # a pattern of exactly these members holds each of them, so it
            # is among the holders of any one (not always of the seed, whose
            # self-cosine may miss the threshold); _best_overlap would pick
            # it (the only overlap fraction of 1) and leave it unchanged, so
            # every pattern it does pick changes
            if any(patterns[pid].member_ids == members
                   for pid in holders.get(next(iter(members)), ())):
                continue
            target = self._best_overlap(members)
            if target is None:
                self._pattern_seq += 1
                target = Pattern(
                    id=f"pat-{self._pattern_seq:06d}",
                    centroid=SparseVector(self.config.embedding_dim, np.empty(0, np.intp),
                                          np.empty(0)),
                    actions=[],
                    resolution_path=[],
                    source_episode_id="",
                    member_ids=set(),
                    last_updated=0.0,
                )
                patterns[target.id] = target
            touched.setdefault(target.id, target.member_ids)
            self._move(target, members)
        for pid, old in touched.items():
            self._refresh(patterns[pid], old)
        return list(touched)

    def _best_overlap(self, members: set[str]) -> Pattern | None:
        # the lowest id of largest overlap fraction above 0.5; only patterns
        # holding a member can overlap at all
        best: Pattern | None = None
        best_frac = 0.5  # strict majority overlap required to merge
        holders = self._holders
        for pid in sorted(set().union(*(holders.get(m, ()) for m in members))):
            pat = self._patterns[pid]
            frac = len(members & pat.member_ids) / max(len(members), len(pat.member_ids))
            if frac > best_frac:
                best, best_frac = pat, frac
        return best

    def _refresh_pattern(self, pat: Pattern, members: set[str]) -> None:
        """Make ``pat`` the pattern of ``members``, every one of them stored:
        one formation step for one pattern."""
        old = pat.member_ids
        self._move(pat, members)
        self._refresh(pat, old)
        self._reindex([pat.id])

    def _reindex(self, touched: list[str]) -> list[str]:
        """Bring the pattern index up to date after the patterns ``touched``
        were created or refreshed, and return ``touched``: a created
        pattern's row is appended, in ``patterns`` order, and a refreshed
        one's replaced in place."""
        if touched:
            self._memo = None
            index = self._pattern_index
            changed = set(touched)
            for r, pat in enumerate(self._patterns.values()):
                if r >= len(index):
                    index.append(pat.centroid)
                elif pat.id in changed:
                    index.replace(r, pat.centroid)
        return touched

    def _move(self, pat: Pattern, members: set[str]) -> None:
        """Give ``pat`` the member set ``members``, its fields unrefreshed."""
        members = set(members)
        self._remap(pat.id, pat.member_ids, members)
        pat.member_ids = members

    def _refresh(self, pat: Pattern, old: set[str]) -> None:
        """Refresh ``pat``'s fields to its member set, ``old`` at its last
        refresh.

        By its newest member alone when the members are ``old`` plus one id
        sorting after every old one (:meth:`_append`), else by reading every
        member (:meth:`_recompute`).  Both give the same fields, bit for bit.
        """
        if not self._append(pat, old):
            self._recompute(pat)

    @staticmethod
    def _centroid(total: np.ndarray, n: int) -> SparseVector | None:
        """The unit mean of ``n`` members summing to ``total``, as
        ``SparseVector.of`` of the dense unit mean gives it; None if the mean
        has no norm.  Only the sum's non-zero columns are read: a member sum
        is never ``-0.0``, and a ``+0.0`` column, whether no member stores it
        or its entries cancel, gives a ``+0.0`` unit entry, which is dropped."""
        centroid = total / n
        norm = _norm(centroid)  # dense: dot pairs the terms by position
        if norm == 0.0:
            return None
        support = np.flatnonzero(total)
        unit = centroid[support] / norm
        keep = np.signbit(unit) | (unit != 0)
        return SparseVector(total.size, support[keep], unit[keep])

    def _recompute(self, pat: Pattern) -> None:
        """Refresh ``pat`` from every member.

        The member sum is one ``np.bincount`` of the members' entries in
        member order.  Like numpy's axis-0 sum of the dense rows, it starts
        each column at ``+0.0`` and adds the column's entries in member
        order, so it gives the same bits: a sum started at ``+0.0`` is never
        ``-0.0``, so the ``+0.0`` entries it skips change nothing, and a
        column where every member stores ``-0.0`` sums to ``+0.0`` either way.
        """
        eps = [self._episodes[m] for m in sorted(pat.member_ids)]
        index = np.concatenate([e.vector.index for e in eps])
        value = np.concatenate([e.vector.value for e in eps])
        total = np.bincount(index, value, self.config.embedding_dim)
        pat.centroid = self._centroid(total, len(eps)) or eps[0].vector
        pat.last_updated = max(e.timestamp for e in eps)
        pat.context_labels = frozenset(set.intersection(*(set(e.context) for e in eps)))
        pat.success_members = sum(e.outcome is Outcome.SUCCESS for e in eps)
        donor = max(eps, key=_donor_key)
        self._set_donor(pat, donor)
        self._folds[pat.id] = _Fold(total, eps[-1].id, donor)

    def _append(self, pat: Pattern, old: set[str]) -> bool:
        """Refresh ``pat`` from its fold and its one new member, if its
        members are ``old`` plus one id sorting after every old one; else
        return False and leave ``pat`` as it is.

        numpy's axis-0 sum adds the rows one after another in member order,
        so the next sum is the old one plus the new member's dense row: its
        entries where it stores them, and ``+0.0``, which changes no sum
        (see :meth:`_recompute`), elsewhere.  A zero norm is left to
        :meth:`_recompute`, which takes the first member's vector instead.
        """
        fold = self._folds.get(pat.id)
        members = pat.member_ids
        if fold is None or len(members) != len(old) + 1:
            return False
        added = members - old
        if len(added) != 1:
            return False
        (eid,) = added
        if not eid > fold.last:
            return False
        ep = self._episodes[eid]
        index, value = ep.vector.index, ep.vector.value
        total = fold.total.copy()
        total[index] += value  # one vector's indices are unique
        centroid = self._centroid(total, len(members))
        if centroid is None:
            return False
        best = fold.best
        if best is None:  # the best member fell: rescan the old members once
            best = max(map(self._episodes.__getitem__, old), key=_donor_key)
        donor = max(best, ep, key=_donor_key)
        pat.centroid = centroid
        pat.last_updated = max(pat.last_updated, ep.timestamp)
        pat.context_labels = pat.context_labels & ep.context
        pat.success_members += ep.outcome is Outcome.SUCCESS
        self._set_donor(pat, donor)
        fold.total, fold.last, fold.best = total, eid, donor
        return True

    @staticmethod
    def _set_donor(pat: Pattern, donor: Episode) -> None:
        pat.actions = list(donor.actions)
        pat.resolution_path = list(donor.resolution_path)
        pat.source_episode_id = donor.id

    def _remap(self, pid: str, old: set[str], new: set[str]) -> None:
        """Move pattern ``pid`` from member set ``old`` to ``new`` in ``_holders``."""
        holders = self._holders
        for m in old - new:
            ids = holders[m]
            ids.discard(pid)
            if not ids:
                del holders[m]
        for m in new - old:
            holders.setdefault(m, set()).add(pid)

    # -- retrieval ----------------------------------------------------------

    def _cosines(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every episode's cosine with ``vec``, one per row of ``_rows``, and
        every pattern's, in ``patterns`` order."""
        memo = self._memo
        if memo is None or memo[0] is not vec:
            memo = self._memo = (vec, self._index.cosines(vec), self._pattern_index.cosines(vec))
        return memo[1], memo[2]

    def _contenders(self, q: Query, now: float, scale: float, k: int,
                    pattern_scores: list[float]) -> list[tuple[Episode, float]]:
        """The episodes that may score among the top ``k`` at tier scale
        ``scale``, next to patterns scoring ``pattern_scores``, each with its
        cosine.

        The vectorised score blends the cosine with the recency term as
        :func:`raw_score` does, but with ``np.exp``, so each episode's score
        lies within ``_SCORE_SLACK`` of it, and the k-th largest of the
        narrowed scores is at most the k-th best score.
        """
        if not self._rows:
            return []
        cfg = self.config
        lam = cfg.similarity_weight
        cos = self._cosines(q.embedding)[0]
        dt = np.maximum(0.0, now - self._stamps)
        score = scale * (lam * cos + (1.0 - lam) * np.exp(-dt / cfg.recency_tau_s))
        lows = np.concatenate((score - _SCORE_SLACK, pattern_scores))
        floor = np.partition(lows, -k)[-k] if lows.size >= k else -math.inf
        keep = np.flatnonzero(score + _SCORE_SLACK >= floor)
        return list(zip(map(self._rows.__getitem__, keep.tolist()), cos[keep].tolist()))

    def novelty(self, q: Query) -> float:
        """Minimum cosine distance from the query to any stored memory; 1.0 when empty."""
        best = max(c.max(initial=-math.inf) for c in self._cosines(q.embedding))
        return 1.0 if best == -math.inf else max(0.0, 1.0 - float(best))

    def mixing(self, q: Query) -> tuple[float, float, float]:
        """Pattern-vs-episode attention split; returns (psi, novelty, complexity)."""
        nov = self.novelty(q)
        comp = complexity(q.symptoms)
        w1, w2 = self.config.mix_weights
        psi = _sigmoid(w1 * nov + w2 * comp + self.config.mix_bias)
        return psi, nov, comp

    def _scored(self, mem: Episode | Pattern, score: float, sim: float, q: Query, now: float,
                weights: Sequence[float]) -> ScoredMemory:
        factors = compute_factors(mem, sim, q, now, self.config)
        return ScoredMemory(
            ref=mem.id,
            kind="episode" if isinstance(mem, Episode) else "pattern",
            score=score,
            confidence=confidence_value(factors, weights),
            factors=factors,
            memory=mem,
        )

    def retrieve(
        self, q: Query, weights: Sequence[float], now: float, k: int | None = None
    ) -> RetrievalResult:
        """Top-k memories by tier-scaled score; ties by confidence, then id.

        Scores every pattern and every episode that may reach the top ``k``
        (:meth:`_contenders`), then computes confidences only for rows
        scoring at least the k-th best score.  That is exact: the rows left
        out score below the cutoff, confidence only breaks ties, and every
        tie at the cutoff is kept.
        """
        k = self.config.retrieval_k if k is None else k
        if k < 1:
            raise InvalidArgument(f"k must be >= 1, got {k}")
        psi, nov, comp = self.mixing(q)
        ep_scale, pat_scale = (1.0 - psi), psi
        cfg = self.config
        rows: list[tuple[float, float, Episode | Pattern]] = [
            (pat_scale * raw_score(c, pat.last_updated, now, cfg), c, pat)
            for pat, c in zip(self._patterns.values(), self._cosines(q.embedding)[1].tolist())
        ]
        rows += [
            (ep_scale * raw_score(c, ep.timestamp, now, cfg), c, ep)
            for ep, c in self._contenders(q, now, ep_scale, k, [s for s, _, _ in rows])
        ]
        cutoff = min(heapq.nlargest(k, (s for s, _, _ in rows)), default=0.0)
        top = sorted(
            (self._scored(mem, s, c, q, now, weights) for s, c, mem in rows if s >= cutoff),
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
            yield m.memory.resolution_path

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


    # -- persistence: the file formats are kubediag.store's ----------------

    def save_episodes(self, path: str) -> None:
        from .store import write_episodes
        write_episodes(path, self._episodes.values())

    def load_episodes(self, path: str) -> int:
        """Load an episode JSONL file, all or nothing: a failed load raises
        what :func:`~kubediag.store.read_episodes` names, ``DuplicateId`` for
        an id the pool holds or has evicted, and leaves the pool unchanged."""
        from .store import read_episodes
        eps, sizes, col, val = read_episodes(path, self.config.embedding_dim,
                                             self._check_unused)
        self._index.extend(sizes, col, val)
        self._admit(eps)
        return len(eps)

    def save_pattern_snapshot(self, path: str) -> None:
        from .store import write_patterns
        write_patterns(path, self._patterns, self.config)

    def load_pattern_snapshot(self, path: str) -> int:
        """Load a pattern snapshot; a malformed file raises ``SchemaViolation``
        and leaves the pool's patterns untouched."""
        from .store import read_patterns
        loaded, seq = read_patterns(path, self.config.embedding_dim)
        for pat in loaded:
            # a pattern may replace one of the same id, or an earlier entry
            old = self._patterns.get(pat.id)
            self._remap(pat.id, old.member_ids if old else set(), pat.member_ids)
            self._patterns[pat.id] = pat
            self._folds.pop(pat.id, None)  # its next refresh recomputes
        self._pattern_index = SparseRows(self.config.embedding_dim,
                                         (p.centroid for p in self._patterns.values()))
        self._memo = None
        self._pattern_seq = max(self._pattern_seq, seq)
        return len(loaded)
