"""kubediag benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports the package from ``src/`` of the checkout that holds this file, sets
the workload up from the seed (several times; the median counts), checks the
generated inputs against ``fingerprints.json``, then repeats whole rounds of
the workload until ``--seconds`` have passed and at least three rounds (four
when tracing) ran.  Timings are scaled to a reference host speed by a probe
timed after every operation.  Throughput is each round's, latency
percentiles take each operation's median over the rounds, and the accuracy
must stay at the one recorded for the seed.  The last line of standard
output is the result as one JSON object: the end-to-end metrics with
``--trace 0``; with ``--trace 1``, which alternates untraced and traced
rounds, the per-layer metrics of the traced rounds, per round, plus the
tracing overhead.  Spans and the full result, environment included, are
written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import stats
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
FINGERPRINTS = BENCH / "fingerprints.json"
IMPORT_TRIES = 5
HARD_STOP_S = 150.0  # whole rounds stop being started after this much measuring
MIN_ROUNDS = 3        # every operation is timed at least this often
SEEDS = 64            # --seed n runs the recorded input set n mod SEEDS
ACCURACY_SLACK = 0.01  # accuracy may fall this far below the input set's recorded value
REFERENCE_PROBE_MS = 0.5  # timings are reported for a host that runs the probe this fast
CHUNK = 10            # operations scaled by one median probe time

# name -> unit; the order is the order of BENCHMARK.json
END_TO_END = {
    "sessions_per_s": "1/s",
    "diagnose_ms_p50": "ms",
    "diagnose_ms_p90": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "ratio",
}

_SPAN_STATS = (
    ("memory.form_patterns_incremental", ("calls", "ms")),
    ("memory.retrieve", ("calls", "ms")),
    ("memory.novelty", ("ms",)),
    ("memory.hints", ("calls", "ms")),
    ("memory.insert_episode", ("ms",)),
    ("memory.update_outcome", ("ms",)),
    ("memory.load_episodes", ("ms",)),
    ("memory.load_pattern_snapshot", ("ms",)),
    ("graph.seed_nodes", ("calls", "ms")),
    ("graph.explore", ("calls", "self_ms")),
    ("graph.path_score", ("calls",)),
    ("graph.copy", ("calls", "ms")),
    ("graph.confirm_relation", ("calls",)),
    ("graph.load", ("ms",)),
    ("controller.load", ("ms",)),
    ("controller.adapt_threshold", ("ms",)),
    ("controller.update_factor_weights", ("ms",)),
    ("embedding.embed", ("calls", "ms")),
    ("synthesizer.build_context", ("ms",)),
    ("synthesizer.synthesize", ("ms",)),
    ("synthesizer.complete", ("calls",)),
    ("engine.diagnose", ("self_ms",)),
    ("engine.feedback", ("self_ms",)),
    ("cli.diagnose", ("self_ms",)),
)

# name -> unit for --trace 1; spans are totals per traced round
PER_LAYER = {
    **{f"{span}.{stat}": ("count" if stat == "calls" else "ms")
       for span, stats_ in _SPAN_STATS for stat in stats_},
    "memory.form_patterns_incremental.touched": "count",
    "memory.retrieve.scored_per_call": "count",
    "graph.seed_nodes.seeds_per_call": "count",
    "graph.explore.chains_per_call": "count",
    "memory.episodes": "count",
    "memory.patterns": "count",
    "engine.sessions_retained": "count",
    "python.gc.collections": "count",
    "python.gc.ms": "ms",
    "quality.intuitive_rate": "ratio",
    "quality.no_evidence_rate": "ratio",
    "quality.error_rate": "ratio",
    "trace.sessions_per_s_untraced": "1/s",
    "trace.sessions_per_s_traced": "1/s",
    "trace.overhead_pct": "%",
}


def blas_threads():
    """OpenBLAS thread count of numpy's bundled library, or None if unknown."""
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


def import_cpu_seconds() -> float:
    """CPU time (user plus system) of a fresh interpreter importing the package.
    Unlike wall time, it leaves out time spent waiting for a processor."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import kubediag.cli"
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime


def fingerprint(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def recorded(workload: str, variant: int):
    """``{"inputs": hash, "accuracy": a}`` recorded for an input set, or None."""
    table = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(variant))


def measure(workload, state, rec, seconds: float, trace: bool):
    """Repeat whole rounds until ``seconds`` have passed and enough rounds ran.

    Returns the tracer and, per round, whether it was traced and its
    operation and diagnosis times.  With ``trace``, odd rounds are traced and
    at least two of each kind run, so tracing overhead compares like with like.
    """
    tracer = tracing.Tracer()
    digests = set()
    rounds: list[dict] = []
    min_rounds = 4 if trace else MIN_ROUNDS
    start = perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        ops_before, diag_before = len(rec.op_ms), len(rec.diagnose_ms)
        if traced:
            tracer.install()
            tracer.active = True
        try:
            digests.add(workload.run_round(state, rec, tracer, len(rounds)))
        finally:
            tracer.active = False
            tracer.uninstall()
        rounds.append({"traced": traced, "op": rec.op_ms[ops_before:],
                       "diagnose": rec.diagnose_ms[diag_before:],
                       "probe": rec.probe_ms[ops_before:]})
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(rounds) >= min_rounds) or elapsed >= HARD_STOP_S:
            break
    if len(digests) != 1:
        rec.problems.append(f"rounds disagree: {len(digests)} distinct outcome digests")
    if len({len(r["op"]) for r in rounds}) != 1:
        rec.problems.append("rounds recorded different numbers of operations")
    return tracer, rounds


def at_reference_speed(rounds: list[dict]) -> list[dict]:
    """The rounds with every operation's times scaled to the reference host
    speed, by the probes taken next to each chunk of ``CHUNK`` operations."""
    out = []
    for r in rounds:
        factors = stats.speed_factors(r["probe"], CHUNK, REFERENCE_PROBE_MS)
        out.append({**r, "op": [t * f for t, f in zip(r["op"], factors)],
                    "diagnose": [t * f for t, f in zip(r["diagnose"], factors)]})
    return out


def host_probe() -> float:
    """Median of five probes: the host's speed around one set-up try."""
    import harness

    return statistics.median(harness.probe_ms() for _ in range(5))


def per_op(rounds: list[dict], key: str) -> list[float]:
    return stats.median_of_rounds([r[key] for r in rounds])


def sessions_per_s(rounds: list[dict]) -> float:
    """Median over rounds of operations per second of the round's whole
    operation time, so every collector pause inside an operation counts."""
    return statistics.median(len(r["op"]) / (sum(r["op"]) / 1e3) for r in rounds)


def end_to_end(rounds: list[dict], rec, setup_s: float) -> dict:
    """Percentiles use each operation's median over the rounds."""
    op, diagnose = per_op(rounds, "op"), per_op(rounds, "diagnose")
    return {
        "sessions_per_s": sessions_per_s(rounds),
        "diagnose_ms_p50": stats.percentile(diagnose, 50),
        "diagnose_ms_p90": stats.percentile(diagnose, 90),
        "op_ms_p90": stats.percentile(op, 90),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": rec.correct / rec.attempted,
    }


def per_layer(rec, totals: dict, gauges: dict, rounds: list[dict]) -> dict:
    traced_rounds = sum(r["traced"] for r in rounds)

    def per_round(key: str) -> float:
        return totals.get(key, 0) / traced_rounds

    def ratio(num: str, den: str) -> float:
        return totals.get(num, 0) / totals[den] if totals.get(den) else 0.0

    out = {name: per_round(name) for name, _ in PER_LAYER.items()
           if name.rsplit(".", 1)[-1] in ("calls", "ms", "self_ms", "touched", "collections")}
    untraced = sessions_per_s([r for r in rounds if not r["traced"]])
    traced = sessions_per_s([r for r in rounds if r["traced"]])
    out.update({
        "memory.retrieve.scored_per_call": ratio("memory.compute_factors.calls",
                                                 "memory.retrieve.calls"),
        "graph.seed_nodes.seeds_per_call": ratio("graph.seed_nodes.seeds",
                                                 "graph.seed_nodes.calls"),
        "graph.explore.chains_per_call": ratio("graph.explore.chains", "graph.explore.calls"),
        "memory.episodes": gauges.get("memory.episodes", 0),
        "memory.patterns": gauges.get("memory.patterns", 0),
        "engine.sessions_retained": gauges.get("engine.sessions_retained", 0),
        "quality.intuitive_rate": rec.intuitive / rec.attempted,
        "quality.no_evidence_rate": rec.no_evidence / rec.attempted,
        "quality.error_rate": rec.errors / rec.attempted,
        "trace.sessions_per_s_untraced": untraced,
        "trace.sessions_per_s_traced": traced,
        "trace.overhead_pct": untraced / traced * 100.0 - 100.0,
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import kubediag
        import harness
    except ImportError as exc:
        print(f"cannot import kubediag from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(kubediag.__file__).resolve().parent != (src / "kubediag").resolve():
        print(f"kubediag was imported from {kubediag.__file__}, not {src}", file=sys.stderr)
        return 2

    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    cls = harness.WORKLOADS[args.workload]
    workload = cls(workdir=str(OUT)) if cls is harness.CliOneshot else cls()
    variant = args.seed % SEEDS
    want = recorded(workload.name, variant)
    if want is None:
        print(f"no inputs recorded for {workload.name} set {variant} in {FINGERPRINTS}",
              file=sys.stderr)
        return 3

    # Set-up is timed in CPU time, which leaves out waits for a processor, and
    # scaled by probes taken just before and after each try.  The import
    # counts its fastest try.
    imports, setups, state = [], [], None  # (CPU seconds, mean probe ms) per try
    for _ in range(IMPORT_TRIES):
        before = host_probe()
        seconds = import_cpu_seconds()
        imports.append((seconds, (before + host_probe()) / 2))
    for _ in range(workload.setup_repeats):
        if state is not None:
            workload.close(state)
        before = host_probe()
        t0 = process_time()
        inputs = workload.inputs(variant)
        state = workload.setup(inputs)
        seconds = process_time() - t0
        setups.append((seconds, (before + host_probe()) / 2))
    setup_s = (min(t * REFERENCE_PROBE_MS / p for t, p in imports)
               + statistics.median(t * REFERENCE_PROBE_MS / p for t, p in setups))
    # The rounds keep set-up objects alive that a user's process would not hold
    # (the inputs, the base graph each round copies).  Frozen, they are left
    # out of the collector's passes, which then walk what a user's process
    # holds: the engine's own state and the garbage it makes.
    gc.collect()
    gc.freeze()

    try:
        got = fingerprint(workload.fingerprint(inputs))
        if got != want["inputs"]:
            print(f"{workload.name} inputs for set {variant} changed: fingerprint {got},"
                  f" recorded {want['inputs']}", file=sys.stderr)
            return 3
        rec = harness.Recorder()
        tracer, rounds = measure(workload, state, rec, args.seconds, bool(args.trace))
    finally:
        workload.close(state)

    problems = list(rec.problems)
    accuracy = rec.correct / rec.attempted
    if accuracy < want["accuracy"] - ACCURACY_SLACK - 1e-12:  # 4 of 400 is exactly the slack
        problems.append(f"accuracy {accuracy:.4f} below the {want['accuracy']:.4f} recorded"
                        f" for set {variant}")
    if args.trace:
        totals = tracer.totals()
        silent = [s for s in workload.required if not totals.get(s + ".calls")]
        if silent:
            problems.append(f"spans that never fired: {', '.join(silent)}")
        metrics = per_layer(rec, totals, tracer.gauges, at_reference_speed(rounds))
        units = PER_LAYER
        tracer.write_spans(str(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"))
    else:
        metrics = end_to_end(at_reference_speed(rounds), rec, setup_s)
        units = END_TO_END
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": rec.attempted,
        "failed": rec.errors,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "input_set": variant, "rounds": len(rounds), "fingerprint": got,
        "recorded_accuracy": want["accuracy"], "no_evidence": rec.no_evidence,
        "samples": len(rec.op_ms), "operations_per_round": len(rounds[0]["op"]),
        "import_cpu_s_and_probe_ms": imports, "setup_cpu_s_and_probe_ms": setups,
        "unscaled": {k: v for k, v in end_to_end(rounds, rec, 0.0).items()
                     if k not in ("setup_s", "peak_rss_mb", "accuracy")},
        "raw_diagnose_ms_p95": stats.percentile(rec.diagnose_ms, 95),
        "raw_op_ms_p95": stats.percentile(rec.op_ms, 95),
        "rounds_raw": rounds,
        "problems": problems, "environment": environment(), "result": result,
    }
    name = f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({k: detail[k] for k in ("workload", "seed", "rounds", "environment")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
