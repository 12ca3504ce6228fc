"""Smoke tests of the benchmark itself, at toy sizes (seconds each).

Run from the repository root::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SEED = 3


def _run(cwd, workload, trace, size="toy"):
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--size", size],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_at_toy_size(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1

    # Printed names and units are exactly those of BENCHMARK.json.
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

    # Toy inputs are too small to support tail percentiles; every other
    # check and every request must succeed.
    record = json.loads(
        (ROOT / ".e2ebench_out" / f"{workload}-s{SEED}-t{trace}.json")
        .read_text())
    for accounting in (record["accounting"], record["baseline_accounting"]):
        if accounting is None:
            continue
        assert [name for name, check in accounting["checks"].items()
                if check["failed"] and not name.startswith("samples:")] == []
        assert all(phase["failed"] == 0
                   for phase in accounting["phases"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_determines_inputs(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import WORKLOADS as MODULES

    module = MODULES[workload]
    assert module.inputs(0, "toy") == module.inputs(0, "toy")
    assert module.inputs(0, "toy") != module.inputs(1, "toy")


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark present: fail, print nothing."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
