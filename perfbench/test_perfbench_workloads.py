"""The benchmark's self-check: every workload at its seconds-long size.

The runs go through the same code as the measured ones (``run.py`` with
``--size selfcheck``): real server subprocesses, HTTP, the correctness
checks, the restarts and, with ``--trace 1``, the launcher and the span
arithmetic.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

from perfbench import report
from perfbench.workloads import run_workload

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
WORKLOADS = ("sync-online", "async-burst", "durable-tenants")


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=110,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_selfcheck_reports_every_layer_metric(workload):
    proc = bench(
        "--workload", workload, "--seed", "3", "--seconds", "1.5", "--trace", "1",
        "--size", "selfcheck",
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    metrics = result["metrics"]
    assert metrics["trace.absent_targets"]["value"] == 0
    assert 0.9 <= metrics["trace.reconciliation"]["value"] <= 1.1
    assert metrics["core.correlation.fit.calls"]["value"] > 0
    if workload == "durable-tenants":
        assert metrics["service.storage.append.calls"]["value"] > 0
        assert metrics["service.registry.recover_all.s"]["value"] > 0


def test_untraced_sync_runs_of_one_seed_take_the_same_decisions(tmp_path):
    runs = [
        run_workload("sync-online", 5, 1.5, False, ROOT, tmp_path / f"run{i}", "selfcheck")
        for i in range(2)
    ]
    for run in runs:
        assert run.problems == []
        assert run.ledger.failed == 0
    first, second = (run.chains["t0"] for run in runs)
    common = min(len(first), len(second))
    assert common > 3
    assert first[:common] == second[:common]
    metrics = report.end_to_end(runs[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [name for name, _unit, _better in report.END_TO_END]
    assert set(names) == {m["name"] for m in spec["end_to_end"]}
    assert all(metrics[name][0] > 0 for name in names)


def test_a_checkout_without_the_service_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sync-online", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
