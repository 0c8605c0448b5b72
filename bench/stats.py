"""Percentiles and span arithmetic shared by the benchmark and its tests."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only when at least this many samples lie above it.
MIN_TAIL = 10


def percentile(values: Sequence[float], q: float, tail: int = MIN_TAIL) -> float:
    """Nearest-rank percentile; refuses when fewer than ``tail`` samples lie above it."""
    n = len(values)
    rank = math.ceil(q / 100.0 * n)
    if n == 0 or n - rank < tail:
        raise ValueError(f"p{q:g} of {n} samples has fewer than {tail} samples above it")
    return sorted(values)[rank - 1]


def median_of_rounds(rounds: Sequence[Sequence[float]]) -> list[float]:
    """Per operation, the median of its times over rounds that replay the same
    inputs.

    A collector pause or a burst from a neighbour on a shared host lands on a
    different operation in each round, so the median drops it.  That suits
    percentiles of single operations; throughput is taken per whole round.
    """
    n = min(len(r) for r in rounds)
    return [statistics.median(r[i] for r in rounds) for i in range(n)]


def speed_factors(probes: Sequence[float], chunk: int, reference: float) -> list[float]:
    """Per sample, ``reference`` over the median probe time of its chunk of
    ``chunk`` consecutive samples: how much faster or slower than the
    reference the host ran while those samples were taken."""
    out: list[float] = []
    for i in range(0, len(probes), chunk):
        part = probes[i:i + chunk]
        out.extend([reference / statistics.median(part)] * len(part))
    return out


def self_times(spans: Sequence[tuple[str, float, float, int, object]]) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    Spans are ``(name, start, end, parent_index, session)`` rows; a parent
    index of -1 marks a root.  They come from one thread's call stack, so a
    span's children lie inside it and do not overlap.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
