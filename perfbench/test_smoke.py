"""Tiny-scale smoke test of the benchmark itself (under a minute).

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload of ``BENCHMARK.json`` at 2% of the paper's size in both
modes and checks that each declared metric is emitted with its unit, that
every per-layer metric is measured by at least one workload, and that the
correctness gate passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in DEFINITION["workloads"]]


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.02"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {workload: _run(workload, 1) for workload in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_gate(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in DEFINITION["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_gate(traced, workload):
    result = traced[workload]
    assert result["correct"] and result["failed"] == 0
    declared = {metric["name"]: metric["unit"] for metric in DEFINITION["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_every_layer_metric_is_measured_somewhere(traced):
    # No paper-shaped workload forms a multi-round window, and a closed loop
    # over one connection never fills the ingest queue.
    may_be_zero = {"runner.multi_round_share", "service.retries_429"}
    for metric in DEFINITION["per_layer"]:
        if metric["name"] not in may_be_zero:
            name = metric["name"]
            assert any(traced[w]["metrics"][name]["value"] for w in WORKLOADS), name


def test_refuses_a_checkout_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip()


def test_compare_flags_a_record_that_failed_its_checks(tmp_path):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in DEFINITION["end_to_end"]}
    stamp = {"workload": WORKLOADS[0], "trace": 0, "scale": 1.0, "backend": "numpy"}
    for side, correct in (("base", True), ("new", False)):
        (tmp_path / side).mkdir()
        record = {"stamp": stamp, "correct": correct, "metrics": metrics}
        (tmp_path / side / "record.json").write_text(json.dumps(record), encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, "perfbench/compare.py", str(tmp_path / "base"), str(tmp_path / "new")],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 1
    assert "REGRESSED" in completed.stdout
