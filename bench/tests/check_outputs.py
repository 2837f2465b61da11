"""The output checks reject wrong output and accept optimal points at atoms."""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import geomrisk.cli  # noqa: E402
from geomrisk.estimators import (  # noqa: E402
    empirical_objective_grad,
    geometric_expectile,
    geometric_var,
)
from geomrisk.models import PRESETS, simulate, substream  # noqa: E402

OP = ["expectile", "--model", "X1", "--n", "300", "--seed", "3", "--alpha=0.3,0.2"]


def output(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = geomrisk.cli.main(argv)
    return code, buf.getvalue()


def problems(code, text):
    return checks.check_op(OP, code, text, checks.SampleCache()).problems


def test_real_output_passes():
    code, text = output(OP)
    result = checks.check_op(OP, code, text, checks.SampleCache())
    assert (code, result.problems, result.checked_points) == (0, [], 1)


def test_exit_code_one_fails_every_row():
    result = checks.check_op(OP, 1, "", checks.SampleCache())
    assert result.failed_rows == result.rows == 1
    assert result.problems == ["exit code 1"]


def test_missing_rows_fail():
    code, text = output(OP)
    result = checks.check_op(OP, code, text.splitlines()[0] + "\n", checks.SampleCache())
    assert result.failed_rows == 1
    assert "0 rows, expected 1" in result.problems


def test_non_finite_value_is_named():
    code, text = output(OP)
    header, row = text.splitlines()
    fields = row.split(",")
    fields[2] = "nan"
    assert problems(code, f"{header}\n{','.join(fields)}\n") == [
        "row 1: objective='nan' is not a finite value"]


def test_moved_point_fails_optimality():
    code, text = output(OP)
    header, row = text.splitlines()
    fields = row.split(",")
    fields[0] = repr(float(fields[0]) + 1e-3)
    found = problems(code, f"{header}\n{','.join(fields)}\n")
    assert len(found) == 1 and found[0].startswith("row 1: expectile optimality residual")


def test_exit_code_must_match_converged_column():
    code, text = output(OP)
    assert problems(2, text) == ["exit code 2 disagrees with 0 non-converged rows"]


@pytest.mark.parametrize("kind", ["expectile", "quantile"])
def test_optimality_residual_rejects_a_moved_point(kind):
    sample = simulate(PRESETS["X1"], 500, substream(5, "simulate"))
    alpha = [0.3, -0.4]
    solver = geometric_expectile if kind == "expectile" else geometric_var
    point = solver(sample, alpha).argmin
    assert checks.optimality_residual(sample, alpha, point, kind) <= checks.OPTIMALITY_TOL
    moved = point + [1e-3, 0.0]
    assert checks.optimality_residual(sample, alpha, moved, kind) > checks.OPTIMALITY_TOL


def test_var_optimality_at_an_atom():
    # the spatial median of a sample with a heavy atom at the origin is the atom itself
    sample = simulate(PRESETS["X1"], 40, substream(6, "simulate"))
    sample[:30] = 0.0
    origin = empirical_objective_grad(sample, [0.0, 0.0], [0.0, 0.0], "quantile")
    assert float(origin @ origin) > 0.0  # the plain gradient test cannot certify it
    assert checks.optimality_residual(sample, [0.0, 0.0], [0.0, 0.0], "quantile") == 0.0
    assert checks.optimality_residual(sample, [0.0, 0.0], [0.5, 0.0], "quantile") > 1e-3
