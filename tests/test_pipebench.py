"""Smoke test of the pipeline benchmark: one round of each workload.

It pins what ``pipebench/`` relies on in the program: the command lines it
passes, the checkpoint layout its reader expects and the report format its
checks parse. A change to any of them makes the round fail its checks.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["ml1m-standard", "coldstart-p2", "spectral-dense"])
def test_round_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.stdout, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
