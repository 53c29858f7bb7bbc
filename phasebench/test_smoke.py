"""The benchmark's own test: smoke mode on every workload.

    python -m pytest phasebench/test_smoke.py -q

Smoke mode uses reduced inputs and runs every workload's verification
path, traced and untraced.  A deliberately wrong known answer must be
counted as failed launches, not raised.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gridscale", "replay", "suite")


def _bench(workload: str, trace: int, *extra: str) -> tuple:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def _declared(kind: str) -> set:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        return {metric["name"] for metric in json.load(stream)[kind]}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_verifies_every_launch(workload, trace):
    provenance, result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, provenance["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == _declared(kind)
    if not trace:
        assert result["metrics"]["verdict_pass_rate"]["value"] == 1.0
        assert result["metrics"]["pass_s"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_known_answer_counts_as_failure(workload):
    provenance, result = _bench(workload, 1, "--wrong-answer")
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert len(provenance["failures"]) == 1
