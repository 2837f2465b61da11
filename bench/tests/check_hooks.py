"""The traced run survives hooks that no longer fit the package.

A later change may rename ``minimize_convex`` or change how it is called;
the benchmark may not be edited in the same change, so the traced run must
report the affected per-layer metrics as missing and carry on with the
program's output unchanged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import geomrisk.cli  # noqa: E402
import geomrisk.estimators  # noqa: E402
import geomrisk.experiments  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OPS = [
    ["var", "--model", "cp-paper", "--seed", "3", "--alpha=0,0"],
    ["curve", "--model", "cp-paper", "--seed", "3", "--path", "circle:0.5", "--nphi", "4",
     "--measure", "var"],
    ["curve", "--model", "X1", "--n", "300", "--seed", "3", "--path", "circle:0.9",
     "--nphi", "4"],
]
LOSSES = {"losses.fun_passes", "losses.grad_passes", "losses.fun_us_per_pass",
          "losses.grad_us_per_pass", "losses.passes_per_solve", "losses.useful_ratio",
          "losses.share", "estimators.solver_self_s", "estimators.backtracks_per_solve"}


def traced(hooks=spans.HOOKS):
    """Untraced then traced pass over OPS; returns metrics, missing and the runner."""
    runner = run.Runner(OPS, geomrisk.cli.main)
    untraced = runner.one_pass()
    tracer = spans.Tracer()
    uninstall = spans.install(tracer, hooks)
    try:
        wall = runner.one_pass(tracer)
    finally:
        uninstall()
    metrics, missing = spans.layer_metrics(tracer, untraced, wall, failed_frac=0.0)
    return metrics, missing, runner


def assert_unchanged_output(runner):
    assert runner.failed == 0
    assert not runner.mismatched, "traced output differs from untraced output"


def test_all_metrics_present_when_hooks_fit():
    metrics, missing, runner = traced()
    assert_unchanged_output(runner)
    assert missing == {}
    assert set(metrics) == set(spans.METRICS)
    assert metrics["estimators.solves"] == 1 + 4 + 4
    assert metrics["losses.fun_passes"] > 0


def test_missing_target_reports_its_metrics_missing():
    renamed = ("estimators.minimize_convex", "geomrisk.estimators", "minimize_convex_renamed",
               "minimize_convex")
    hooks = tuple(h for h in spans.HOOKS if h != spans.SOLVER_HOOK) + (renamed,)
    metrics, missing, runner = traced(hooks)
    assert_unchanged_output(runner)
    assert LOSSES | {"estimators.prep_ms_per_solve"} == set(missing)
    assert "minimize_convex_renamed is missing" in missing["losses.fun_passes"]
    assert metrics["estimators.solves"] == 9


def test_solver_called_with_other_shape(monkeypatch):
    original = geomrisk.estimators.minimize_convex

    def minimize_convex(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(geomrisk.estimators, "minimize_convex", minimize_convex)
    metrics, missing, runner = traced()
    assert_unchanged_output(runner)
    assert set(missing) == LOSSES
    assert "estimators.iters_per_solve" in metrics
    assert "estimators.prep_ms_per_solve" in metrics


def test_solve_called_with_other_shape(monkeypatch):
    original = geomrisk.experiments.geometric_expectile

    def geometric_expectile(data, index, config=None):
        return original(data, index, config)

    monkeypatch.setattr(geomrisk.experiments, "geometric_expectile", geometric_expectile)
    metrics, missing, runner = traced()
    assert_unchanged_output(runner)
    assert set(missing) == {"losses.objective_us", "losses.grad_us", "estimators.max_iter_hits"}
    assert "estimators.nonconverged" in metrics


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layer == {name: unit for name, (unit, _) in spans.METRICS.items()}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
