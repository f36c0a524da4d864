"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout (not part of the tier-1 suite, which only
collects tests/):

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(run.ROOT / "src"))


def _measure(name, trace):
    return run.measure(name, seed=3, seconds=0.0, trace=trace,
                       sizes=workloads.TINY)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_its_unit(name, trace):
    result, _, ledger = _measure(name, trace)
    assert result["correct"], ledger.failures
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for entry in wanted:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result, allow_nan=False)


def test_corrupted_reference_counts_as_failed(monkeypatch):
    monkeypatch.setattr(workloads, "M_STAR_N3", 0.2)
    result, _, ledger = _measure("analytic-map", False)
    assert not result["correct"]
    # one failure per N = 3 search, one search per reference weight
    assert result["failed"] == workloads.TINY.weights
    assert all("m*(3)" in failure for failure in ledger.failures)


def test_raising_operation_counts_as_failed():
    ledger = workloads.Ledger()
    with ledger.op("fine") as check:
        check(True, "unused")
    with ledger.op("boom"):
        raise ZeroDivisionError("x")
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "ZeroDivisionError" in ledger.failures[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic-map",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
