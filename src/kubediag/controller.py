"""Confidence-driven routing between the fast and deliberate diagnostic paths.

The controller owns a single routing threshold and the factor weights used by
memory confidence scoring.  Both are tuned from replayed session history: the
threshold by a finite-difference step against a replayed error/latency loss,
the weights by gradient steps against how well past confidence predicted
whether the fast path would have sufficed.

What the two steps derive from the history is one derived state on the
controller, built from the history at the first step of either kind: two
sorted lists of ``c_max``, which the threshold step bisects instead of
scanning the history, and each record's weight-independent fit constants, in
history order, so a weight step costs one weighted product and four sums per
record.  :meth:`MetaController.record` is the only writer of the history,
which the controller holds privately and shows as a read-only
:class:`History`, and, once it is built, of the derived state, so the two
stay in step.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_left, bisect_right, insort
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import asdict, dataclass, field
from enum import Enum
from itertools import chain
from typing import Callable

from .errors import EmptyHistory, InvalidArgument, SchemaViolation
from .files import as_number, check_fields, is_finite, short_repr, write_atomic
from .memory import FACTOR_NAMES, _FACTOR_FLOOR

MIN_HISTORY = 10  # records needed before any self-tuning step


class Pathway(str, Enum):
    INTUITIVE = "intuitive"
    ANALYTICAL = "analytical"


@dataclass
class OptParams:
    eta_meta: float = 0.01      # threshold learning rate
    xi: float = 0.6             # error-vs-latency tradeoff in the replay loss
    delta_probe: float = 0.02   # finite-difference half-width
    analytic_cost: float = 10.0  # deliberate-path latency in fast-path units
    weight_lr: float = 0.05

    def validate(self) -> None:
        check_fields(self)
        if self.delta_probe <= 0 or self.analytic_cost <= 0:
            raise InvalidArgument("delta_probe and analytic_cost must be > 0")
        if not 0.0 <= self.xi <= 1.0:
            raise InvalidArgument(f"xi must be in [0, 1], got {self.xi}")
        if self.eta_meta < 0 or self.weight_lr < 0:
            raise InvalidArgument("eta_meta and weight_lr must be >= 0")


@dataclass(slots=True)
class SessionRecord:
    """What the threshold replay and the weight fit read of one session."""

    c_max: float
    factors: tuple[float, float, float, float]  # of the most confident memory
    fast_sufficient: bool


@dataclass
class RoutingDecision:
    pathway: Pathway
    c_max: float
    tau_snapshot: float


class History(Sequence):
    """A read-only view of a controller's session history, oldest first."""

    __slots__ = ("_records", "maxlen")

    def __init__(self, records: deque[SessionRecord]) -> None:
        self._records, self.maxlen = records, records.maxlen

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, i: int) -> SessionRecord:
        return self._records[i]

    def __iter__(self) -> Iterator[SessionRecord]:
        return iter(self._records)


@dataclass
class ControllerState:
    """Routing state.  A :class:`MetaController` given a state takes a copy
    of its ``history`` and leaves a :class:`History` view of the copy in its
    place, so that :meth:`MetaController.record` is the history's only writer."""

    tau: float = 0.75
    factor_weights: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    opt: OptParams = field(default_factory=OptParams)
    history: Sequence[SessionRecord] = field(default_factory=lambda: deque(maxlen=1000))

    def validate(self) -> None:
        check_fields(self)
        if not 0.0 <= self.tau <= 1.0:
            raise InvalidArgument(f"tau must be in [0, 1], got {self.tau}")
        if min(self.factor_weights) < 0:
            raise InvalidArgument(f"factor_weights must be >= 0, got {self.factor_weights}")
        self.opt.validate()


def replay_loss(tau_candidate: float, history: Sequence[SessionRecord], opt: OptParams) -> float:
    """Replay routing at a hypothetical threshold: xi * error + (1 - xi) * latency.

    A record replays intuitive iff its recorded c_max would clear the
    candidate threshold (a NaN c_max never does).  Error counts intuitive
    replays whose fast path was actually insufficient; latency is the mean
    unit cost normalized by the deliberate-path cost.

    This scans ``history`` for the two counts, the intuitive replays and
    their errors; :meth:`MetaController.adapt_threshold` reads the same
    counts off its sorted ``c_max`` lists, and both turn them into the loss
    with :func:`_loss_from_counts`.
    """
    if not history:
        raise EmptyHistory("replay_loss needs at least one session record")
    fast = [rec.fast_sufficient for rec in history if rec.c_max > tau_candidate]
    return _loss_from_counts(len(history), len(fast), fast.count(False), opt)


def _loss_from_counts(n: int, n_fast: int, errors: int, opt: OptParams) -> float:
    """The replay loss of ``n`` records, ``n_fast`` of which replay
    intuitive, ``errors`` of those wrongly.

    The latency is ``n_fast + analytic_cost * n_slow``.  For an integer
    ``analytic_cost`` (the default is 10.0) that is exactly the sum of the
    per-record costs in history order, whose partial sums are all exact
    integers.  For other costs it may differ from that sum in the last bits.
    """
    latency = n_fast + opt.analytic_cost * (n - n_fast)
    error_rate = errors / n
    latency_rate = (latency / n) / opt.analytic_cost
    return opt.xi * error_rate + (1.0 - opt.xi) * latency_rate


def calibration_loss(c_pred: float, fast_sufficient: bool) -> float:
    """Binary cross-entropy between predicted confidence and observed sufficiency."""
    c = min(1.0 - 1e-7, max(1e-7, c_pred))
    y = 1.0 if fast_sufficient else 0.0
    return -(y * math.log(c) + (1.0 - y) * math.log(1.0 - c))


def _predicted_confidence(factors: Sequence[float], weights: Sequence[float]) -> float:
    out = 1.0
    for f, z in zip(factors, weights):
        out *= max(_FACTOR_FLOOR, min(1.0, f)) ** z
    return out


def _fit_constants(rec: SessionRecord) -> tuple[float, ...]:
    """The weight-independent terms of one record's fit: its four clamped
    factors, their four logs and y."""
    a = [max(_FACTOR_FLOOR, min(1.0, f)) for f in rec.factors]
    return (*a, *map(math.log, a), 1.0 if rec.fast_sufficient else 0.0)


def mean_calibration_loss(history: Sequence[SessionRecord], weights: Sequence[float]) -> float:
    if not history:
        raise EmptyHistory("no records to score")
    return sum(
        calibration_loss(_predicted_confidence(r.factors, weights), r.fast_sufficient)
        for r in history
    ) / len(history)


class MetaController:
    """Holds routing state and applies the self-tuning rules."""

    def __init__(self, state: ControllerState | None = None) -> None:
        self.state = state or ControllerState()
        self.state.validate()
        history = self.state.history
        self._history = deque(history, maxlen=history.maxlen)
        self.state.history = History(self._history)
        # (every, bad, fits): the sorted c_max of every record and of every
        # record whose fast path was not sufficient, NaN left out, and each
        # record's _fit_constants in history order; see _derive
        self._derived: tuple[list[float], list[float], deque[tuple[float, ...]]] | None = None

    @property
    def tau(self) -> float:
        return self.state.tau

    @property
    def factor_weights(self) -> tuple[float, float, float, float]:
        return self.state.factor_weights

    def route(self, c_max: float) -> RoutingDecision:
        """Fast path iff confidence strictly clears the threshold."""
        pathway = Pathway.INTUITIVE if c_max > self.state.tau else Pathway.ANALYTICAL
        return RoutingDecision(pathway=pathway, c_max=c_max, tau_snapshot=self.state.tau)

    def record(self, rec: SessionRecord) -> None:
        """Append ``rec`` to the history, which is written through this
        method only.  Once the derived state exists it moves with the
        history: the oldest record's ``c_max`` leaves the sorted lists before
        a full bounded deque drops that record, and the bounded ``fits``
        drops its constants as the new record's are appended."""
        history = self._history
        if self._derived is not None:
            if len(history) == history.maxlen:
                self._move_replay(history[0], _remove)
            self._move_replay(rec, insort)
            self._derived[2].append(_fit_constants(rec))
        history.append(rec)

    def _move_replay(self, rec: SessionRecord, op: Callable[[list[float], float], None]) -> None:
        if rec.c_max == rec.c_max:  # a NaN never replays intuitive
            every, bad, _ = self._derived
            op(every, rec.c_max)
            if not rec.fast_sufficient:
                op(bad, rec.c_max)

    def _derive(self) -> tuple[list[float], list[float], deque[tuple[float, ...]]]:
        """The derived state, built from the history on the first call, so
        a controller that never steps (a read-only diagnosis) never builds
        it; :meth:`record` keeps it current after that."""
        if self._derived is None:
            history = self._history
            self._derived = [], [], deque(map(_fit_constants, history), maxlen=history.maxlen)
            for rec in history:
                self._move_replay(rec, list.append)
            self._derived[0].sort()
            self._derived[1].sort()
        return self._derived

    def adapt_threshold(self) -> tuple[float, float]:
        """One finite-difference descent step on the replayed loss; no-op below
        the history minimum.  Returns (tau_before, tau_after).

        The loss at each probe comes from two bisections of the sorted
        ``c_max`` lists, not a scan of the history: the records above a
        probe replay intuitive.
        """
        st = self.state
        before = st.tau
        n = len(self._history)
        if n < MIN_HISTORY:
            return before, before
        every, bad, _ = self._derive()

        def loss(tau: float) -> float:
            n_fast = len(every) - bisect_right(every, tau)
            return _loss_from_counts(n, n_fast, len(bad) - bisect_right(bad, tau), st.opt)

        d = st.opt.delta_probe
        grad = (loss(st.tau + d) - loss(st.tau - d)) / (2.0 * d)
        st.tau = min(1.0, max(0.0, st.tau - st.opt.eta_meta * grad))
        return before, st.tau

    def update_factor_weights(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """One gradient step fitting confidence to observed fast-path sufficiency.

        Per record, d(loss)/d(zeta_j) = (C - y) * log f_j with C the current
        weighted factor product; steps are averaged over history and weights
        clamped at zero.  Returns (weights_before, weights_after).

        Each step recomputes only C from the derived fit constants.  The
        float operations and their order are those of
        :func:`_predicted_confidence` and the per-factor sums, so the result
        is bit for bit that of recomputing everything.
        """
        st = self.state
        before = tuple(st.factor_weights)
        if len(self._history) < MIN_HISTORY:
            return before, before
        z0, z1, z2, z3 = st.factor_weights
        s0 = s1 = s2 = s3 = 0.0
        for a0, a1, a2, a3, l0, l1, l2, l3, y in self._derive()[2]:
            r = a0 ** z0 * a1 ** z1 * a2 ** z2 * a3 ** z3 - y
            s0 += r * l0
            s1 += r * l1
            s2 += r * l2
            s3 += r * l3
        n = len(self._history)
        lr = st.opt.weight_lr
        st.factor_weights = tuple(
            max(0.0, w - lr * (s / n)) for w, s in zip(st.factor_weights, (s0, s1, s2, s3))
        )
        return before, st.factor_weights

    # -- persistence --------------------------------------------------------

    def save(self, path: str) -> None:
        st = self.state
        payload = {
            "tau": st.tau,
            "factor_weights": list(st.factor_weights),
            "opt_params": asdict(st.opt),
            "history": [
                {"c_max": r.c_max, "factors": list(r.factors), "fast_sufficient": r.fast_sufficient}
                for r in self._history
            ],
        }
        # json.dumps without indent runs the C encoder; json.dump never does
        write_atomic(path, lambda fh: fh.write(json.dumps(payload, sort_keys=True)))

    @classmethod
    def load(cls, path: str) -> "MetaController":
        """Load a checkpoint; a malformed one raises ``SchemaViolation``.

        Records of older checkpoints also carry ``query_id``, ``pathway``,
        ``latency_units`` and ``outcome``; nothing reads them, so they are
        skipped and dropped by the next save.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            opt = OptParams(**payload["opt_params"])
            weights = payload["factor_weights"]
            if not isinstance(weights, list):  # a string would load as its characters
                raise TypeError(f"factor_weights {short_repr(weights)} is not a list")
            state = ControllerState(
                tau=as_number(payload["tau"], "tau"),
                factor_weights=tuple(as_number(w, "factor weight") for w in weights),
                opt=opt,
            )
            state.history.extend(_records_from_json(payload["history"]))
            return cls(state)
        except (KeyError, TypeError, ValueError, RecursionError, InvalidArgument) as exc:
            raise SchemaViolation(f"bad controller checkpoint: {exc}") from exc


def _remove(values: list[float], x: float) -> None:
    del values[bisect_left(values, x)]


_RECORD_KEYS = operator.itemgetter("c_max", "factors", "fast_sufficient")


def _records_from_json(history: object) -> list[SessionRecord]:
    """The records of a checkpoint's history, each column checked by
    C-level passes over the whole history.  A column that fails its passes
    is scanned value by value, so that its first bad value is named."""
    if not isinstance(history, list):  # a dict or string would load as no records
        raise TypeError(f"history {short_repr(history)} is not a list")
    rows = list(map(_RECORD_KEYS, history))
    if not rows:
        return []
    c_max, factors, fast = zip(*rows)
    if not _all_finite(c_max):
        _name_first(c_max, is_finite, "record c_max {} is not a finite number")
    if not (set(map(type, factors)) == {list} and set(map(len, factors)) == {len(FACTOR_NAMES)}
            and _all_finite(flat := list(chain.from_iterable(factors)))):
        _name_first(factors, _are_factors,
                    f"record factors {{}} are not {len(FACTOR_NAMES)} finite numbers")
    if set(map(type, fast)) != {bool}:
        _name_first(fast, lambda x: type(x) is bool, "record fast_sufficient {} is not a boolean")
    grouped = zip(*[iter(map(float, flat))] * len(FACTOR_NAMES))
    return list(map(SessionRecord, map(float, c_max), grouped, fast))


def _all_finite(values: Sequence[object]) -> bool:
    """Whether every value passes :func:`is_finite`, by C-level passes."""
    try:
        return set(map(type, values)) <= {int, float} and all(map(math.isfinite, values))
    except OverflowError:  # an int beyond the float range
        return False


def _are_factors(x: object) -> bool:
    return isinstance(x, list) and len(x) == len(FACTOR_NAMES) and all(map(is_finite, x))


def _name_first(values: Sequence[object], ok: Callable[[object], bool], message: str) -> None:
    bad = next(x for x in values if not ok(x))
    raise ValueError(message.format(short_repr(bad)))
