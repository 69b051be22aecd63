"""A traced benchmark run ends in a strict-JSON result line.

`json.dumps` writes NaN or Infinity for a median over no spans (a
per-style `engine.optim_ms` when `fit` stops calling `Adam.step` or
`SGD.step`) or a rate over 0 ms, and plain `json.loads` reads them back,
so a reader that wants strict JSON refuses the line.  `-B` leaves no
bytecode in the checkout, and the run removes its own work directory.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _refuse(constant: str):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_strict_json(workload):
    proc = subprocess.run(
        [sys.executable, "-B", "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_refuse)
    assert result["correct"] is True and result["failed"] == 0
