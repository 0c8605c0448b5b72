"""In-process tracing that wraps the package's public functions from outside.

Every wrapper is installed on the name its callers actually resolve.  The
engine imports ``explore``, ``build_context`` and ``synthesize`` by name, so
those are patched in ``kubediag.engine``; ``MemoryPool._scored`` and
``explore`` look up ``compute_factors`` and ``path_score`` as module globals,
so those are patched in their defining modules; methods are patched on their
classes.  Spans are kept in memory as ``[name, start, end, parent, session]``
rows and written out once the run ends.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from stats import self_times


def _max_gauge(key, value_of):
    def observe(tracer, args, result):
        tracer.gauges[key] = max(tracer.gauges.get(key, 0), value_of(args, result))
    return observe


def _add_count(key, value_of):
    def observe(tracer, args, result):
        tracer.counts[key] += value_of(args, result)
    return observe


def _set_gauge(key, value_of):
    def observe(tracer, args, result):
        tracer.gauges[key] = value_of(args, result)
    return observe


# (owner, attribute, span name, kind, observer); kind "span" records a span,
# "count" only counts calls (for functions called hundreds of times per query)
TARGETS = (
    ("kubediag.engine:Engine", "diagnose", "engine.diagnose", "span",
     _max_gauge("engine.sessions_retained", lambda a, r: len(a[0].sessions))),
    ("kubediag.engine:Engine", "feedback", "engine.feedback", "span", None),
    ("kubediag.engine", "explore", "graph.explore", "span",
     _add_count("graph.explore.chains", lambda a, r: len(r))),
    ("kubediag.engine", "build_context", "synthesizer.build_context", "span", None),
    ("kubediag.engine", "synthesize", "synthesizer.synthesize", "span", None),
    ("kubediag.synthesizer:TemplateStubClient", "complete", "synthesizer.complete", "span", None),
    ("kubediag.embedding:HashingEmbedder", "embed", "embedding.embed", "span", None),
    ("kubediag.memory:MemoryPool", "retrieve", "memory.retrieve", "span", None),
    ("kubediag.memory:MemoryPool", "novelty", "memory.novelty", "span", None),
    ("kubediag.memory:MemoryPool", "hints", "memory.hints", "span", None),
    ("kubediag.memory:MemoryPool", "insert_episode", "memory.insert_episode", "span", None),
    ("kubediag.memory:MemoryPool", "update_outcome", "memory.update_outcome", "span", None),
    ("kubediag.memory:MemoryPool", "form_patterns_incremental",
     "memory.form_patterns_incremental", "span",
     _add_count("memory.form_patterns_incremental.touched", lambda a, r: len(r))),
    ("kubediag.memory:MemoryPool", "load_episodes", "memory.load_episodes", "span",
     _set_gauge("memory.episodes", lambda a, r: r)),
    ("kubediag.memory:MemoryPool", "load_pattern_snapshot", "memory.load_pattern_snapshot",
     "span", _set_gauge("memory.patterns", lambda a, r: r)),
    ("kubediag.memory", "compute_factors", "memory.compute_factors", "count", None),
    ("kubediag.graph:KnowledgeGraph", "seed_nodes", "graph.seed_nodes", "span",
     _add_count("graph.seed_nodes.seeds", lambda a, r: len(r))),
    ("kubediag.graph:KnowledgeGraph", "copy", "graph.copy", "span", None),
    ("kubediag.graph:KnowledgeGraph", "confirm_relation", "graph.confirm_relation", "count", None),
    ("kubediag.graph:KnowledgeGraph", "load", "graph.load", "span", None),
    ("kubediag.graph", "path_score", "graph.path_score", "count", None),
    ("kubediag.controller:MetaController", "adapt_threshold", "controller.adapt_threshold",
     "span", None),
    ("kubediag.controller:MetaController", "update_factor_weights",
     "controller.update_factor_weights", "span", None),
    ("kubediag.controller:MetaController", "load", "controller.load", "span", None),
)


def _resolve(owner: str):
    mod_name, _, cls_name = owner.partition(":")
    mod = importlib.import_module(mod_name)
    return getattr(mod, cls_name) if cls_name else mod


class Tracer:
    """Collects spans and counters while installed and active.

    ``active`` pauses recording without unpatching, so the benchmark's own
    output checks, which call package functions, are not counted.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self.session: object = None
        self.active = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- recording ----------------------------------------------------------

    def span(self, name: str, fn, observe=None):
        """Wrap ``fn`` so each call while active records a span named ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.session]
            stack.append(len(tracer.spans))
            tracer.spans.append(row)
            row[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        tracer = self
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own work)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (for calls made by the benchmark)."""
        return self.span(name, fn)(*args, **kwargs)

    # -- patching -----------------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        """Time the cyclic collector's passes.  The end-to-end timings take each
        operation's median over the rounds and so leave most of them out."""
        if phase == "start":
            self._gc_start = perf_counter()
        elif self.active:
            self.counts["python.gc.collections"] += 1
            self.counts["python.gc.ms"] += (perf_counter() - self._gc_start) * 1e3

    def install(self) -> None:
        gc.callbacks.append(self._on_gc)
        for owner_name, attr, name, kind, observe in TARGETS:
            owner = _resolve(owner_name)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self.span(name, fn, observe) if kind == "span" else self.counter(name, fn)
            setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            self._saved.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        if self._saved:
            gc.callbacks.remove(self._on_gc)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """``<span>.calls``, ``<span>.ms`` and ``<span>.self_ms`` over all spans,
        plus the raw counters."""
        out: dict[str, float] = dict(self.counts)
        own = self_times(self.spans)
        for row, self_s in zip(self.spans, own):
            name = row[0]
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".ms"] = out.get(name + ".ms", 0.0) + (row[2] - row[1]) * 1e3
            out[name + ".self_ms"] = out.get(name + ".self_ms", 0.0) + self_s * 1e3
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, session in self.spans:
                fh.write(json.dumps([name, start, end, parent, session]) + "\n")
