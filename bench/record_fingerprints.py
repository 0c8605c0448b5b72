"""Record each workload's inputs and baseline accuracy for every input set.

    python3 bench/record_fingerprints.py [--seeds 64]

Writes ``bench/fingerprints.json``: per workload and input set, the hash of
the generated inputs and the accuracy of one round.  ``run.py`` refuses to
measure a set whose inputs no longer hash to the recorded value, so a change
to the package's world or stream builders cannot silently change a workload,
and fails a run whose accuracy falls more than ``run.ACCURACY_SLACK`` below the
recorded one.  Rerun this only in a change that means to redefine the
workloads.  It runs one full round per set and workload: about 40 minutes for
64 sets on 2 cores.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=run.SEEDS, help="record sets 0 .. N-1")
    args = parser.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    import harness
    import tracing

    table = {}
    with tempfile.TemporaryDirectory(dir=run.BENCH) as workdir:
        for name, cls in harness.WORKLOADS.items():
            workload = cls(workdir=workdir) if cls is harness.CliOneshot else cls()
            table[name] = {}
            for seed in range(args.seeds):
                inputs = workload.inputs(seed)
                digest = run.fingerprint(workload.fingerprint(inputs))
                state = workload.setup(inputs)
                rec = harness.Recorder()
                try:
                    workload.run_round(state, rec, tracing.Tracer(), 0)
                finally:
                    workload.close(state)
                if rec.problems or rec.errors:
                    print(f"{name} set {seed}: {rec.errors} errors, {rec.problems[:3]}",
                          file=sys.stderr)
                    return 1
                table[name][str(seed)] = {
                    "inputs": digest,
                    "accuracy": rec.correct / rec.attempted,
                }
    run.FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
