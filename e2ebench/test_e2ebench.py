"""Tests of the end-to-end benchmark itself.

A tiny run of every workload must pass the benchmark's correctness
gate, print every contract metric, and repeat its deterministic
counters exactly between an untraced and a traced run of one seed.
Without the program's source next to it the benchmark must refuse to
run.  A wrong answer must stop the run instead of timing it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from e2e_common import END_TO_END_UNITS, PER_LAYER_UNITS, Context, Mismatch

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("service-mixed", "analysis-grid", "monitor-replay")


def _run(script: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny"],
        capture_output=True, text=True, timeout=300)


def _result(workload: str, seed: int, trace: int):
    proc = _run(BENCH / "run.py", workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    report = json.loads(lines[-2].removeprefix("report "))
    return json.loads(lines[-1]), report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_the_gate_and_counters_repeat(workload):
    result, report = _result(workload, 3, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced, traced_report = _result(workload, 3, trace=1)
    assert set(traced["metrics"]) == set(PER_LAYER_UNITS)
    for key, value in report["counters"].items():
        assert traced_report["counters"][key] == value, key


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / "e2ebench" / "run.py", "analysis-grid", 1, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrong_answer_is_not_timed(tmp_path):
    import e2e_monitor

    ctx = Context(seed=0, seconds=0, trace=False, scale="tiny")
    with pytest.raises(Mismatch):
        e2e_monitor._one_pass(ctx, reference=b"[]")


def test_counters_that_drift_are_a_mismatch():
    from e2e_common import same_counters

    assert same_counters([{"hits": 2}, {"hits": 2}]) == {"hits": 2}
    with pytest.raises(Mismatch):
        same_counters([{"hits": 2}, {"hits": 3}])
