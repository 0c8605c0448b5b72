"""Confidence-driven routing between the fast and deliberate diagnostic paths.

The controller owns a single routing threshold and the factor weights used by
memory confidence scoring.  Both are tuned from replayed session history: the
threshold by a finite-difference step against a replayed error/latency loss,
the weights by gradient steps against how well past confidence predicted
whether the fast path would have sufficed.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .errors import EmptyHistory, InvalidArgument, SchemaViolation
from .files import write_atomic
from .memory import FACTOR_NAMES, Query, RetrievalResult, _FACTOR_FLOOR
from .text import tokenize

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


@dataclass
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
    coverage: float  # share of query tokens some retrieved memory shares


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
        if any(w < 0 for w in self.factor_weights):
            raise InvalidArgument("factor_weights must be >= 0")


def coverage(result: RetrievalResult, q: Query) -> float:
    """Share of the query's symptom tokens found in some retrieved memory; 0
    for a query without tokens."""
    q_tokens = {t for s in q.symptoms for t in tokenize(s)}
    if not q_tokens:
        return 0.0
    covered = sum(1 for t in q_tokens if any(t in m.symptom_tokens for m in result.memories))
    return covered / len(q_tokens)


def replay_loss(tau_candidate: float, history: Sequence[SessionRecord], opt: OptParams) -> float:
    """Replay routing at a hypothetical threshold: xi * error + (1 - xi) * latency.

    A record replays intuitive iff its recorded c_max would clear the
    candidate threshold.  Error counts intuitive replays whose fast path was
    actually insufficient; latency is the mean unit cost normalized by the
    deliberate-path cost.
    """
    if not history:
        raise EmptyHistory("replay_loss needs at least one session record")
    n = len(history)
    errors = 0
    latency = 0.0
    for rec in history:
        if rec.c_max > tau_candidate:
            errors += int(not rec.fast_sufficient)
            latency += 1.0
        else:
            latency += opt.analytic_cost
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

    @property
    def tau(self) -> float:
        return self.state.tau

    @property
    def factor_weights(self) -> tuple[float, float, float, float]:
        return self.state.factor_weights

    def route(self, c_max: float, coverage: float = 0.0) -> RoutingDecision:
        """Fast path iff confidence strictly clears the threshold."""
        pathway = Pathway.INTUITIVE if c_max > self.state.tau else Pathway.ANALYTICAL
        return RoutingDecision(
            pathway=pathway, c_max=c_max, tau_snapshot=self.state.tau, coverage=coverage
        )

    def record(self, rec: SessionRecord) -> None:
        self.state.history.append(rec)

    def adapt_threshold(self) -> tuple[float, float]:
        """One finite-difference descent step on the replayed loss; no-op below
        the history minimum.  Returns (tau_before, tau_after)."""
        st = self.state
        before = st.tau
        if len(st.history) < MIN_HISTORY:
            return before, before
        d = st.opt.delta_probe
        grad = (
            replay_loss(st.tau + d, st.history, st.opt)
            - replay_loss(st.tau - d, st.history, st.opt)
        ) / (2.0 * d)
        st.tau = min(1.0, max(0.0, st.tau - st.opt.eta_meta * grad))
        return before, st.tau

    def update_factor_weights(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """One gradient step fitting confidence to observed fast-path sufficiency.

        Per record, d(loss)/d(zeta_j) = (C - y) * log f_j with C the current
        weighted factor product; steps are averaged over history and weights
        clamped at zero.  Returns (weights_before, weights_after).
        """
        st = self.state
        before = tuple(st.factor_weights)
        if len(st.history) < MIN_HISTORY:
            return before, before
        sums = [0.0] * len(FACTOR_NAMES)
        for rec in st.history:
            c = _predicted_confidence(rec.factors, st.factor_weights)
            y = 1.0 if rec.fast_sufficient else 0.0
            for j, f in enumerate(rec.factors):
                sums[j] += (c - y) * math.log(max(_FACTOR_FLOOR, min(1.0, f)))
        n = len(st.history)
        lr = st.opt.weight_lr
        st.factor_weights = tuple(
            max(0.0, w - lr * (s / n)) for w, s in zip(st.factor_weights, sums)
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
            state = ControllerState(
                tau=float(payload["tau"]),
                factor_weights=tuple(float(w) for w in payload["factor_weights"]),
                opt=opt,
            )
            state.history.extend(map(_record_from_json, payload["history"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaViolation(f"bad controller checkpoint: {exc}") from exc
        return cls(state)


def _finite(x: object) -> bool:
    # bool is an int subclass; a JSON true is not a number here
    return type(x) in (int, float) and math.isfinite(x)


def _record_from_json(raw: dict) -> SessionRecord:
    c_max, factors, fast = raw["c_max"], raw["factors"], raw["fast_sufficient"]
    if not _finite(c_max):
        raise ValueError(f"record c_max {c_max!r} is not a finite number")
    if not (isinstance(factors, list) and len(factors) == len(FACTOR_NAMES)
            and all(map(_finite, factors))):
        raise ValueError(f"record factors {factors!r} are not {len(FACTOR_NAMES)} finite numbers")
    if type(fast) is not bool:
        raise ValueError(f"record fast_sufficient {fast!r} is not a boolean")
    return SessionRecord(float(c_max), tuple(float(f) for f in factors), fast)
