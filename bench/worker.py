"""One round of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --spawned T
                            [--trace 0|1] [--small] [--setup-only]

T is the time.monotonic() reading the parent took just before starting
this process (CLOCK_MONOTONIC is system-wide on Linux), so setup_s covers
interpreter start, `import feforms` and input generation.  wall_s runs
from the first operation to the last verdict; correctness checks run
after it.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import feforms
    import feforms.cli  # noqa: F401  (the whole package is part of set-up)
    import feforms.verify  # noqa: F401
    if not os.path.abspath(feforms.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"feforms imported from {feforms.__file__}, not {SRC}\n")
        return 2

    import workloads

    make, run, check = workloads.WORKLOADS[args.workload]
    inputs = make(args.seed, args.small)
    tracer = None
    if args.trace and not args.setup_only:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
        # the benchmark's own matrix capture is a span of its own, so its
        # time is not charged to the program's layers
        workloads.residues_of = tracer.wrap("bench.capture", workloads.residues_of)

    watch = workloads.Stopwatch(time.monotonic)
    setup_s = watch.start - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    outputs = run(inputs, watch)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = tracer.metrics() if tracer else None  # before the checks call feforms

    problems = check(inputs, outputs)
    if "outdir" in inputs:
        shutil.rmtree(inputs["outdir"], ignore_errors=True)
    verdicts = outputs["verdicts"]
    result = {
        "attempted": len(verdicts),
        "failed": sum(1 for v in verdicts if not v),
        "problems": problems,
        "digest": outputs.get("sha256"),
        "steps": watch.steps,
        "metrics": {"setup_s": setup_s, "wall_s": sum(watch.steps),
                    "peak_rss_mb": peak_rss_mb},
    }
    if tracer is not None:
        result["layers"] = layers
        result["spans"] = tracer.edge_table()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
