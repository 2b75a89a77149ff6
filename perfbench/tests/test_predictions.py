"""Self-test of the benchmark's tracing against its prediction table.

For every workload, one traced run with a fixed seed must give a nonzero
value wherever predictions.json says a layer metric moves (or is nonzero),
and exactly 0 wherever it says the layer is not on the path.  A wrapper that
misses a re-bound name shows up here as a predicted-nonzero count of 0.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SEED = 11
WORKLOADS = ("gdet-blocks", "gdet-wide", "gber-cli", "liouville-series")


def traced(workload, seed=SEED):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2].split(" ", 4)[4])
    assert result["correct"] is True
    return {k: v["value"] for k, v in result["metrics"].items()}, info


@pytest.fixture(scope="module")
def runs():
    return {w: traced(w) for w in WORKLOADS}


def test_metric_set_matches_definition(runs):
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((BENCH / "predictions.json").read_text())["metrics"]
    names = {m["name"] for m in definition["per_layer"]}
    assert set(predictions) == names
    for metrics, _ in runs.values():
        assert set(metrics) == names


@pytest.mark.parametrize("workload", WORKLOADS)
def test_predicted_cells(runs, workload):
    predictions = json.loads((BENCH / "predictions.json").read_text())["metrics"]
    metrics, _ = runs[workload]
    wrong = []
    for name, entry in predictions.items():
        state = entry["cells"][workload]
        value = metrics[name]
        if state in ("moves", "nonzero") and value == 0:
            wrong.append(f"{name} predicted nonzero, got 0")
        if state == "zero" and value != 0:
            wrong.append(f"{name} predicted 0, got {value}")
    assert not wrong, wrong


def test_workload_shares(runs):
    """Each workload spends its time where it was chosen to."""
    wide = runs["gdet-wide"][1]["inclusive_share"]
    blocks = runs["gdet-blocks"][1]["inclusive_share"]
    assert wide["ringmat.commutative_det"] > 0.5
    assert blocks["ringmat.commutative_det"] < 0.1
    assert blocks["quasidet.block_quasidet"] > 0.5


def test_counts_repeat_exactly(runs):
    """Counts depend only on the seed; self times are the only thing that
    may differ between two traced runs."""
    first, _ = runs["gber-cli"]
    again, _ = traced("gber-cli")
    for name in first:
        if name.endswith(".calls") or name.endswith(("_ratio", ".rows", ".refused",
                                                     "_errors", "_per_accept")):
            if name != "trace_overhead_ratio":
                assert first[name] == again[name], name
