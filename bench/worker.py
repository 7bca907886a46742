"""One benchmark process: set up a workload, run whole rounds of its
operations, check every output, and print one JSON line.

Started by run.py with --spawned set to the parent's time.monotonic()
just before the process was created (CLOCK_MONOTONIC is system-wide), so
setup_s counts interpreter start, imports and input building.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import time
import traceback
from pathlib import Path

import probe

# the median round needs a few rounds even on a slow machine
MIN_ROUNDS = 3


def run_round(ops, tracer=None, speed=None):
    """Run each operation once; return (body seconds, median speed-probe burst
    seconds during the operations or None, outcomes).  Only the operation
    itself is timed and traced, never its check."""
    body = 0.0
    marks = []
    outcomes = []
    for op in ops:
        if tracer is not None:
            tracer.recording = True
        start = speed.mark() if speed is not None else 0
        t0 = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
        body += time.perf_counter() - t0
        if speed is not None:
            marks.append((start, speed.mark()))
        if tracer is not None:
            tracer.recording = False
        failure = error if error is not None else op.failure(result)
        problems = [] if failure is not None else op.check(result)
        outcomes.append({"name": op.name, "failure": failure, "problems": problems})
    return body, speed.median_since(marks) if speed is not None else None, outcomes


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    import workloads

    ops = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned
    # the host's speed right after set-up, to scale setup_s by
    setup_burst_s = probe.burst_median()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_burst_s": setup_burst_s}))
        return

    import numpy
    import scipy

    report = {"setup_s": setup_s, "setup_burst_s": setup_burst_s, "environment": {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "jobs": 1,
    }}
    tracer = speed = None
    if args.trace_file:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    else:
        report["environment"]["cpu"] = probe.pin_to_one_cpu()
        speed = probe.SpeedProbe().start()

    # whole rounds until --seconds of wall time (checks included) have passed
    started = time.monotonic()
    rounds, bursts, outcomes = [], [], []
    while len(rounds) < MIN_ROUNDS or time.monotonic() - started < args.seconds:
        body, burst_s, done = run_round(ops, tracer, speed)
        rounds.append(body)
        bursts.append(burst_s)
        outcomes += done
    if speed is not None:
        speed.stop()
    report["round_s"] = rounds
    report["round_burst_s"] = bursts
    report["outcomes"] = outcomes
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.uninstall()
        metrics, missing = tracer.layer_metrics(workloads.EXPECTED_SPANS[args.workload],
                                                len(rounds))
        report["layers"] = metrics
        report["trace_overhead_s"] = tracer.overhead_s()
        report["missing"] = sorted(set(missing) | {f"span {m}" for m in tracer.missing})
        path = Path(args.trace_file)
        tracer.save(path.with_suffix(".npz"))
        path.write_text(json.dumps({"spans": tracer.summary(), "metrics": metrics,
                                    "missing": report["missing"]}, indent=1))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
