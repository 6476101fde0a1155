"""Smoke test of the benchmark suite (outside tier-1 ``testpaths``).

    python -m pytest benchmarks/suite -q

Runs every workload at toy size through the same code path as a measured
run and checks the two properties later PRs lean on: every metric
``BENCHMARK.json`` declares is emitted under its unit, and a wrong output
is counted -- a perturbed golden value gives ``fail_ratio > 0`` and a
non-zero exit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from run import UNGATED  # noqa: E402  (run.py never imports the stack)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
#: The workloads the driver gates and the ones only the suite runs.
WORKLOADS = [w["name"] for w in BENCH["workloads"] + UNGATED]


def run_suite(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(workload: str, trace: str) -> None:
    proc = run_suite("--smoke", "--workload", workload, "--seed", "0",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if trace == "0":
            assert emitted["value"] > 0, metric["name"]


def test_another_seed_is_checked_for_determinism() -> None:
    proc = run_suite("--smoke", "--seed", "5")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("fail_ratio 0\n") == len(WORKLOADS)


def test_perturbed_golden_counts_as_failure(tmp_path) -> None:
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    golden["init-small"]["init/sessions/2x4"]["events_executed"] += 1
    perturbed = tmp_path / "golden.json"
    perturbed.write_text(json.dumps(golden))
    proc = run_suite("--smoke", "--workload", "init-small", "--seed", "0",
                     "--golden", str(perturbed))
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert "differs from golden" in proc.stdout
