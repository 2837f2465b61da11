"""Counts and output digests repeat exactly between runs of one seed.

Runs ``bench/run.py`` through its command line: twice traced and once
untraced per workload.  Takes several minutes (about two passes of every
workload plus set-up).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SEED = 7
COUNTS = ("losses.fun_passes", "losses.grad_passes", "losses.passes_per_solve",
          "losses.useful_ratio", "estimators.solves", "estimators.iters_per_solve",
          "estimators.backtracks_per_solve", "estimators.max_iter_hits",
          "estimators.nonconverged", "failed_frac")


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    """Last-line result and the full record of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_results" /
                         f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    assert result["correct"], record["problems"]
    assert result["failed"] == 0
    return result, record


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_and_digests_repeat(workload):
    first, first_record = bench(workload, 1)
    second, second_record = bench(workload, 1)
    _, untraced_record = bench(workload, 0)
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first_record["outputs_sha256"] == second_record["outputs_sha256"]
    assert untraced_record["outputs_sha256"] == first_record["outputs_sha256"]
    assert untraced_record["extra"]["failed_frac"][0] == first["metrics"]["failed_frac"]["value"]
