"""One round of each benchmark workload, run in-process through the
benchmark's own round loop (bench/worker.py): every operation must finish
without a failure and pass its check.  A library name that the benchmark
calls and that no longer exists fails here, not only in a benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "tests", ROOT / "bench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import worker  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_round_runs_clean(name):
    _, _, outcomes = worker.run_round(workloads.build(name, 1))
    assert outcomes
    bad = [o for o in outcomes if o["failure"] is not None or o["problems"]]
    assert bad == []
