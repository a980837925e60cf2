"""Each benchmark workload runs and ends its output with a result line.

A benchmark run is read from the last line of its standard output, so
a workload that fails, or prints anything after its result, makes the
run unreadable.  This runs every workload for one short pass, untraced
and traced.  A traced run must also report every per-layer metric that
BENCHMARK.json declares, each a finite number: a traced name that
vanished or moved in the package drops its metrics from the result.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _refuse(constant):
    raise ValueError(f"{constant} is not a number a result may hold")


def run_workload(workload, trace):
    """The last line of one short run of the workload, parsed as strict
    JSON: NaN and Infinity are refused, not parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload]
    argv += ["--seed", "1", "--seconds", "0.1", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1], parse_constant=_refuse)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_ends_with_a_result(workload):
    result = run_workload(workload, 0)
    assert result["correct"] is True and result["failed"] == 0, result
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_ends_with_every_per_layer_metric(workload):
    result = run_workload(workload, 1)
    assert result["correct"] is True and result["failed"] == 0, result
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), (name, metric)
