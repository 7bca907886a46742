"""Benchmark of the skewframes library.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout.  Each measurement runs in a fresh
worker process (bench/worker.py) with one BLAS thread and jobs=1, one at
a time.  The measuring worker runs whole rounds of the workload's
operations for --seconds.  With --trace 0 the last stdout line holds the
end-to-end metrics of BENCHMARK.json (setup_s, wall_s = the median round,
peak_rss_mb); with --trace 1 it holds the per-layer metrics, per round,
from a traced run, whose spans are written to bench/out/.  The line
before it reports the environment and every operation attempted, failed
or found wrong.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("enumerate", "classify", "discover", "exact")
# fresh processes timed from spawn to ready; setup_s is their median
SETUP_SAMPLES = 5
BLAS_THREADS = "1"
DEADLINE_S = 170.0


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, deadline, extra=()):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before the worker could start")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"worker exceeded the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "skewframes" / "__init__.py").is_file():
        fail(f"no skewframes sources under {ROOT / 'src'}; run from a source checkout")
    if not (ROOT / "tests" / "reference_rows.py").is_file():
        fail("tests/reference_rows.py (the reference table) is missing")

    extra = []
    if args.trace:
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        extra = ["--trace-file", str(out / f"trace-{args.workload}-seed{args.seed}.json")]
    # the workers inherit the pinning, so their probes time the processor
    # they run on
    probe.pin_to_one_cpu()
    report = run_worker(args, deadline, extra)
    setups = [report]
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(args, deadline, ["--setup-only"]))

    outcomes = report["outcomes"]
    failing = sorted({f"{o['name']}: {o['failure'].strip().splitlines()[-1]}"
                      for o in outcomes if o["failure"] is not None})
    problems = [p for o in outcomes for p in o["problems"]]
    rounds = report["round_s"]
    raw_wall_s = statistics.median(rounds)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": report["environment"],
        "rounds": len(rounds),
        "operations": sorted({o["name"] for o in outcomes}),
        "attempted": len(outcomes),
        "failed": sum(o["failure"] is not None for o in outcomes),
        "failing": failing,
        "problems": problems[:20],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "setup_burst_s": statistics.median(s["setup_burst_s"] for s in setups),
        "raw_wall_s": raw_wall_s,
    }
    if args.trace:
        overhead = report["trace_overhead_s"] / len(rounds)
        summary["missing"] = report["missing"]
        metrics = dict(report["layers"])
        metrics["trace.overhead_ratio"] = {"value": overhead / (raw_wall_s - overhead),
                                           "unit": "ratio"}
    else:
        bursts = report["round_burst_s"]
        if None in bursts:
            fail("a round ran without a single speed-probe sample")
        summary["probe_burst_s"] = statistics.median(bursts)
        wall_s = statistics.median(probe.at_reference_speed(t, b) for t, b in zip(rounds, bursts))
        metrics = {
            "setup_s": {"value": statistics.median(
                probe.at_reference_speed(s["setup_s"], s["setup_burst_s"]) for s in setups),
                "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps(summary))
    for p in problems[:20]:
        print(f"bench: wrong output: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
