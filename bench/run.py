"""Benchmark for feforms: one workload, measured in fresh interpreters.

    python3 bench/run.py --workload verify_all|dof_scale|mesh_grid \
        --seed N --seconds S --trace 0|1 [--small]

Runs whole rounds of the workload, each in a new worker process, until S
seconds have passed (at least one round), then starts set-up-only workers
until there are SETUP_SAMPLES set-up times.  Prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end medians (setup_s, wall_s,
peak_rss_mb); with --trace 1 they are the per-layer medians from traced
workers.  --small shrinks every workload for the smoke test.  A report
with every round goes to bench/out/.  Exits 1 without a result when a
worker fails, 2 when the feforms sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("verify_all", "dof_scale", "mesh_grid")
SETUP_SAMPLES = 9
BUDGET_S = 170  # a run must end within 180 s

# One worker thread: with the verify pool on, wall time depends on how the
# GIL is handed between threads (see README).  A fixed hash seed keeps set
# and dict layouts, and with them the work done, identical across workers.
WORKER_ENV = {"FEEC_MAX_THREADS": "1", "PYTHONHASHSEED": "0"}


class WorkerError(RuntimeError):
    pass


def spawn(args, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    if args.small:
        cmd.append("--small")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **WORKER_ENV)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env,
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the {BUDGET_S} s budget") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1])


def median_of(rounds: list, key: str) -> dict:
    names = rounds[0][key].keys()
    return {name: statistics.median(r[key][name] for r in rounds) for name in names}


def summarize(rounds: list, setups: list, trace: int) -> tuple[dict, list]:
    """The result line, from worker rounds, and the problems behind it."""
    problems = sorted({p for r in rounds for p in r["problems"]})
    digests = {r["digest"] for r in rounds}
    if len(digests) > 1:
        problems.append(f"reports differ between rounds: {sorted(digests)}")
    if trace:
        metrics = {name: {"value": value, "unit": "s" if name.endswith(".s") else "count"}
                   for name, value in median_of(rounds, "layers").items()}
    else:
        e2e = median_of(rounds, "metrics")
        e2e["setup_s"] = statistics.median(setups)
        # each step's median over the rounds, summed: a slow spell of the
        # machine during one step of one round does not move the figure
        e2e["wall_s"] = sum(statistics.median(steps) for steps in
                            zip(*(r["steps"] for r in rounds)))
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in units.items()}
    result = {"correct": not problems,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": metrics}
    return result, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "feforms", "__init__.py")):
        sys.stderr.write(f"error: no feforms sources under {ROOT}/src\n")
        return 2

    begin = time.monotonic()
    deadline = begin + BUDGET_S
    rounds = []
    try:
        while not rounds or time.monotonic() - begin < args.seconds:
            rounds.append(spawn(args, deadline))
        setups = [r["metrics"]["setup_s"] for r in rounds]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args, deadline, setup_only=True)["setup_s"])
    except WorkerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    result, problems = summarize(rounds, setups, args.trace)

    outdir = os.path.join(BENCH, "out")
    os.makedirs(outdir, exist_ok=True)
    tag = f"{args.workload}-trace{args.trace}"
    report = {"args": vars(args), "python": platform.python_version(),
              "nproc": os.cpu_count(), "problems": problems,
              "digests": sorted({r["digest"] for r in rounds if r["digest"]}),
              "setups": setups,
              "rounds": [{key: r[key] for key in ("attempted", "failed", "metrics")}
                         for r in rounds],
              "result": result}
    with open(os.path.join(outdir, f"report-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if args.trace:
        with open(os.path.join(outdir, f"trace-{args.workload}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"layers": rounds[0]["layers"], "spans": rounds[0]["spans"]},
                      fh, indent=1)
    for p in problems:
        sys.stderr.write(f"check failed: {p}\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
