"""One round of each benchmark workload, checked by the benchmark's verifier.

``perfbench/run.py`` runs each invocation of a workload as a user runs it
and checks every output with ``perfbench/verify.py``, so a report that the
benchmark would refuse fails here. Each run writes its record to the
gitignored ``.perfbench_out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round_is_verified(workload):
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0.001"]
    result = subprocess.run(
        [sys.executable, *argv, "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert summary["correct"] is True, result.stderr
    assert summary["failed"] == 0 and summary["attempted"] > 0
