"""Confidence-driven routing between the fast and deliberate diagnostic paths.

The controller owns a single routing threshold and the factor weights used by
memory confidence scoring.  Both are tuned from replayed session history: the
threshold by a finite-difference step against a replayed error/latency loss,
the weights by gradient steps against how well past confidence predicted
whether the fast path would have sufficed.

The history is written only through :meth:`MetaController.record`, and a
stored :class:`SessionRecord` is never mutated after it.  Both steps rely on
that:

- the threshold step counts the records above each probe by bisecting two
  sorted lists of ``c_max``, which ``record`` keeps in step with the
  history once the first step has built them, so a step costs O(log n)
  instead of two scans;
- the weight fit computes a record's clamped factors, their logs and y
  once, at the record's first fit, and keeps them on the record, so each
  later step costs one weighted product and four sums per record.

Checkpoints still hold three keys per record.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Callable, Sequence

from .errors import EmptyHistory, InvalidArgument, SchemaViolation
from .files import as_number, is_finite, short_repr, write_atomic
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
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not is_finite(value):
                raise InvalidArgument(f"{f.name} must be a finite number, got {short_repr(value)}")
        if self.delta_probe <= 0 or self.analytic_cost <= 0:
            raise InvalidArgument("delta_probe and analytic_cost must be > 0")
        if not 0.0 <= self.xi <= 1.0:
            raise InvalidArgument(f"xi must be in [0, 1], got {self.xi}")
        if self.eta_meta < 0 or self.weight_lr < 0:
            raise InvalidArgument("eta_meta and weight_lr must be >= 0")


@dataclass
class SessionRecord:
    """What the threshold replay and the weight fit read of one session.

    The weight fit keeps its per-record constants in a ``_fit`` attribute
    set at the record's first fit; it is not a field, so it is neither
    compared nor saved.
    """

    c_max: float
    factors: tuple[float, float, float, float]  # of the most confident memory
    fast_sufficient: bool


@dataclass
class RoutingDecision:
    pathway: Pathway
    c_max: float
    tau_snapshot: float


@dataclass
class ControllerState:
    tau: float = 0.75
    factor_weights: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    opt: OptParams = field(default_factory=OptParams)
    history: deque[SessionRecord] = field(default_factory=lambda: deque(maxlen=1000))

    def validate(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise InvalidArgument(f"tau must be in [0, 1], got {self.tau}")
        if len(self.factor_weights) != len(FACTOR_NAMES):
            raise InvalidArgument("factor_weights must match the factor count")
        if not all(is_finite(w) and w >= 0 for w in self.factor_weights):
            raise InvalidArgument(
                f"factor_weights must be finite and >= 0, got {self.factor_weights}"
            )
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
        # the sorted c_max of every record and of every record whose fast
        # path was not sufficient, NaN left out; built from the history at
        # the first threshold step, then kept current by record()
        self._replay: tuple[list[float], list[float]] | None = None

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
        method only: once the replay lists exist it moves them with the
        history, removing the oldest record's ``c_max`` before a full
        bounded deque drops that record."""
        history = self.state.history
        if self._replay is not None:
            if len(history) == history.maxlen:
                self._move_replay(history[0], _remove)
            self._move_replay(rec, insort)
        history.append(rec)

    def _move_replay(self, rec: SessionRecord, op: Callable[[list[float], float], None]) -> None:
        if rec.c_max == rec.c_max:  # a NaN never replays intuitive
            every, bad = self._replay
            op(every, rec.c_max)
            if not rec.fast_sufficient:
                op(bad, rec.c_max)

    def adapt_threshold(self) -> tuple[float, float]:
        """One finite-difference descent step on the replayed loss; no-op below
        the history minimum.  Returns (tau_before, tau_after).

        The loss at each probe comes from two bisections of the sorted
        ``c_max`` lists, not a scan of the history: the records above a
        probe replay intuitive.  The first step builds the lists, so a
        controller that never adapts (a read-only diagnosis) never does.
        """
        st = self.state
        before = st.tau
        n = len(st.history)
        if n < MIN_HISTORY:
            return before, before
        if self._replay is None:
            self._replay = [], []
            for rec in st.history:
                self._move_replay(rec, list.append)
            for values in self._replay:
                values.sort()
        every, bad = self._replay

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

        A record's clamped factors, their logs and y depend on the record
        alone, so they are computed at its first fit and kept on it (records
        are not mutated after :meth:`record`); each step recomputes only C.
        The float operations and their order are those of
        :func:`_predicted_confidence` and the per-factor sums, so the result
        is bit for bit that of recomputing everything.
        """
        st = self.state
        before = tuple(st.factor_weights)
        if len(st.history) < MIN_HISTORY:
            return before, before
        z0, z1, z2, z3 = st.factor_weights
        s0 = s1 = s2 = s3 = 0.0
        for rec in st.history:
            try:
                fit = rec._fit
            except AttributeError:
                fit = rec._fit = _fit_constants(rec)
            a0, a1, a2, a3, l0, l1, l2, l3, y = fit
            r = a0 ** z0 * a1 ** z1 * a2 ** z2 * a3 ** z3 - y
            s0 += r * l0
            s1 += r * l1
            s2 += r * l2
            s3 += r * l3
        n = len(st.history)
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
            "opt_params": {
                "eta_meta": st.opt.eta_meta,
                "xi": st.opt.xi,
                "delta_probe": st.opt.delta_probe,
                "analytic_cost": st.opt.analytic_cost,
                "weight_lr": st.opt.weight_lr,
            },
            "history": [
                {"c_max": r.c_max, "factors": list(r.factors), "fast_sufficient": r.fast_sufficient}
                for r in st.history
            ],
        }
        write_atomic(path, lambda fh: json.dump(payload, fh, sort_keys=True, indent=2))

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
    """The records of a checkpoint's history, checked as
    :func:`_record_from_json` checks each one, but with C-level passes over
    the whole history.  When a pass fails, or cannot run, the records are
    read one at a time so that the first bad one is named."""
    try:
        rows = list(map(_RECORD_KEYS, history))
        if not rows:
            return []
        c_max, factors, fast = zip(*rows)
        flat = list(chain.from_iterable(factors))
        if (set(map(type, c_max)) <= {int, float} and all(map(math.isfinite, c_max))
                and set(map(type, factors)) == {list}
                and set(map(len, factors)) == {len(FACTOR_NAMES)}
                and set(map(type, flat)) <= {int, float} and all(map(math.isfinite, flat))
                and set(map(type, fast)) == {bool}):
            grouped = zip(*[iter(map(float, flat))] * len(FACTOR_NAMES))
            return list(map(SessionRecord, map(float, c_max), grouped, fast))
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    return list(map(_record_from_json, history))


def _record_from_json(raw: dict) -> SessionRecord:
    c_max, factors, fast = raw["c_max"], raw["factors"], raw["fast_sufficient"]
    if not is_finite(c_max):
        raise ValueError(f"record c_max {short_repr(c_max)} is not a finite number")
    if not (isinstance(factors, list) and len(factors) == len(FACTOR_NAMES)
            and all(map(is_finite, factors))):
        raise ValueError(f"record factors {short_repr(factors)} are not"
                         f" {len(FACTOR_NAMES)} finite numbers")
    if type(fast) is not bool:
        raise ValueError(f"record fast_sufficient {short_repr(fast)} is not a boolean")
    return SessionRecord(float(c_max), tuple(float(f) for f in factors), fast)
