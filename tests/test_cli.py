"""Command line: subcommand outputs, exit codes, config files, determinism,
and the in-memory/file round trip."""

from __future__ import annotations

import argparse
import os
import re
import shlex
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import geomrisk
from geomrisk import (
    ClaytonCopula,
    CopulaSpec,
    FrankCopula,
    JointModel,
    MarginSpec,
    Normal,
    SkewNormal,
    SolverConfig,
    StudentT,
    cli,
)
from geomrisk.cli import main


def run_cli(args, tmp_path, name="out.csv", expect=0):
    out = tmp_path / name
    rc = main([*args, "--out", str(out)])
    assert rc == expect, f"exit {rc} for {args}"
    return out.read_bytes()


# ---------------------------------------------------------------------------
# core subcommands

def test_simulate_writes_headered_csv(tmp_path):
    raw = run_cli(["simulate", "--model", "X1", "--n", "50", "--seed", "3"], tmp_path)
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "x1,x2"
    assert len(lines) == 51
    row = [float(v) for v in lines[1].split(",")]
    assert len(row) == 2


def test_expectile_zero_index_near_zero_mean(tmp_path):
    raw = run_cli(
        ["expectile", "--model", "X1", "--seed", "7", "--n", "10000", "--alpha", "0,0"],
        tmp_path,
    )
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "x1,x2,objective,grad_norm,iterations,converged"
    vals = lines[1].split(",")
    assert abs(float(vals[0])) <= 0.03
    assert abs(float(vals[1])) <= 0.03
    assert vals[-1] == "true"


def test_var_level_flag_maps_to_first_axis_index(tmp_path):
    # --level l is the index (2l-1) e1; for a 1-D-like elongated sample the
    # first component must match the univariate quantile closely.
    raw = run_cli(
        ["var", "--model", "X1", "--seed", "11", "--n", "4000", "--level", "0.9"],
        tmp_path,
    )
    first = float(raw.decode().strip().split("\n")[1].split(",")[0])
    assert 0.5 < first < 2.5  # near the N(0,1) 0.9-ish quantile along e1


def test_alpha_and_level_are_mutually_exclusive(tmp_path):
    out = tmp_path / "x.csv"
    rc = main(["var", "--model", "X1", "--n", "200", "--alpha", "0.1,0", "--level",
               "0.9", "--out", str(out)])
    assert rc == 1


def test_curve_inline_circle_radius(tmp_path):
    raw = run_cli(
        ["curve", "--model", "X1", "--seed", "5", "--n", "2000", "--path",
         "circle:0.98", "--nphi", "8"],
        tmp_path,
    )
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "param,x1,x2,converged"
    assert len(lines) == 9
    params = [float(l.split(",")[0]) for l in lines[1:]]
    np.testing.assert_allclose(params, 2 * np.pi * np.arange(8) / 8, atol=1e-12)
    assert all(l.split(",")[-1] == "true" for l in lines[1:])


def test_curve_ray_path(tmp_path):
    raw = run_cli(
        ["curve", "--model", "X1", "--seed", "5", "--n", "1000", "--path", "ray",
         "--direction", "1,0", "--magnitudes", "0:0.8:0.2", "--measure", "var"],
        tmp_path,
    )
    lines = raw.decode().strip().split("\n")
    assert len(lines) == 6  # grid 0, 0.2, 0.4, 0.6, 0.8
    params = [float(l.split(",")[0]) for l in lines[1:]]
    np.testing.assert_allclose(params, [0.0, 0.2, 0.4, 0.6, 0.8], atol=1e-12)


def test_uniform_analytic_zero_index_midpoint(tmp_path):
    raw = run_cli(
        ["uniform-analytic", "--box", "0,1,0,1", "--alpha", "0,0"], tmp_path
    )
    lines = raw.decode().strip().split("\n")
    vals = [float(v) for v in lines[1].split(",")[:2]]
    np.testing.assert_allclose(vals, [0.5, 0.5], atol=1e-6)


def test_uniform_analytic_row_scales_with_the_box(tmp_path):
    rows = []
    for box in ("0,1,0,1", "0,100,0,100"):
        raw = run_cli(["uniform-analytic", "--box", box, "--alpha", "0.4,0.1"], tmp_path)
        rows.append(raw.decode().strip().split("\n")[1].split(","))
    unit, big = ([float(v) for v in row[:4]] for row in rows)
    np.testing.assert_allclose(big[:2], [100 * unit[0], 100 * unit[1]], rtol=1e-15)
    assert big[2] == pytest.approx(1e4 * unit[2], rel=1e-14)
    # the gradient norm is a rounding-level residual: compare it to the data's size
    assert big[3] == pytest.approx(100 * unit[3], abs=1e-12)
    assert rows[0][4:] == rows[1][4:]


# ---------------------------------------------------------------------------
# experiment subcommands (small sizes: shape checks only)

def test_subadd_emits_both_curves(tmp_path):
    raw = run_cli(
        ["subadd", "--model", "Z-clayton5", "--seed", "2", "--n", "1500",
         "--r", "0.2", "--nphi", "8"],
        tmp_path,
    )
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "curve,param,x1,x2,converged,included"
    names = {l.split(",")[0] for l in lines[1:]}
    assert names == {"sum", "add"}
    assert len(lines) == 17
    assert lines[1].split(",")[-1] in ("true", "false")


def test_compare_uni_default_levels(tmp_path):
    raw = run_cli(
        ["compare-uni", "--model", "X1", "--seed", "2", "--n", "3000"], tmp_path
    )
    lines = raw.decode().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "level"
    assert len(lines) == 5  # levels 0.8, 0.9, 0.95, 0.99
    assert [float(l.split(",")[0]) for l in lines[1:]] == [0.8, 0.9, 0.95, 0.99]


def test_match_magnitude_subcommand(tmp_path):
    raw = run_cli(
        ["match-magnitude", "--model", "X1", "--seed", "2", "--n", "2000",
         "--direction", "1,1", "--theta", "0.5"],
        tmp_path,
    )
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "theta,matched_magnitude,converged"
    theta, m_star, conv = lines[1].split(",")
    assert float(theta) == 0.5
    assert 0.0 <= float(m_star) <= 0.999
    assert conv == "true"


def test_marginalize_row_layout(tmp_path):
    raw = run_cli(
        ["marginalize", "--model", "Z-clayton5", "--seed", "2", "--n", "1200",
         "--r", "0.1", "--nphi", "6"],
        tmp_path,
    )
    lines = raw.decode().strip().split("\n")
    assert lines[0].startswith("curve,param,x1,x2,converged")
    names = [l.split(",")[0] for l in lines[1:]]
    assert names.count("margin") == 6
    for i in range(1, 8):
        assert names.count(f"full_{i}") == 6


def test_distance_grid_output(tmp_path):
    raw = run_cli(
        ["distance", "--model", "frank3-4d", "--seed", "2", "--n", "1500",
         "--direction=-1,-1,-1,-1", "--r-grid", "0:0.4:0.1"],
        tmp_path,
    )
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "r,distance,converged"
    assert len(lines) == 6
    assert float(lines[1].split(",")[1]) <= 1e-6  # d(0) = 0


def test_bounded_support_output(tmp_path):
    raw = run_cli(
        ["bounded-support", "--n", "1500", "--seed", "2", "--r-list", "0.1,0.5",
         "--nphi", "8"],
        tmp_path,
    )
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "r,exits_support,converged"
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "false"  # r = 0.1 stays inside


def test_bounded_support_rejects_empty_sample(tmp_path, capsys):
    assert main(["bounded-support", "--n", "0", "--out", str(tmp_path / "b.csv")]) == 1
    assert capsys.readouterr().err == "error: --n must be at least 1\n"


# ---------------------------------------------------------------------------
# determinism and round trips

def test_byte_identical_repeat_runs(tmp_path):
    args = ["curve", "--model", "X3", "--seed", "9", "--n", "800", "--path",
            "circle:0.7", "--nphi", "6"]
    a = run_cli(args, tmp_path, "r1.csv")
    b = run_cli(args, tmp_path, "r2.csv")
    assert a == b


def test_simulate_then_data_equals_model_pipeline(tmp_path):
    sample_file = tmp_path / "s.csv"
    assert main(["simulate", "--model", "X1", "--n", "500", "--seed", "9",
                 "--out", str(sample_file)]) == 0
    from_file = run_cli(
        ["expectile", "--data", str(sample_file), "--alpha", "0.3,0.1"],
        tmp_path, "f.csv",
    )
    from_model = run_cli(
        ["expectile", "--model", "X1", "--n", "500", "--seed", "9",
         "--alpha", "0.3,0.1"],
        tmp_path, "m.csv",
    )
    assert from_file == from_model


def test_inline_json_model(tmp_path):
    spec = ('{"margins":[{"type":"normal","mu":0,"sigma":1},'
            '{"type":"normal","mu":0,"sigma":1}],'
            '"copula":{"type":"independence"}}')
    a = run_cli(["simulate", "--model", spec, "--n", "40", "--seed", "5"],
                tmp_path, "j.csv")
    b = run_cli(["simulate", "--model", "X1", "--n", "40", "--seed", "5"],
                tmp_path, "p.csv")
    assert a == b


def _json_model(copula: str) -> str:
    return ('{"margins":[{"type":"normal"},{"type":"t","nu":5}],'
            f'"copula":{copula}}}')


_COMPOUND_JSON = ('{"claim_rate":0.5,"severity":{"margins":[{"type":"exponential","rate":0.1},'
                  '{"type":"exponential","rate":0.2}],"copula":{"type":"clayton","theta":0.9}}}')


@pytest.mark.parametrize(
    "args, header, rows",
    [
        (["curve", "--model", "X1", "--n", "500", "--path", "ellipse:0.5:0.3", "--nphi", "4"],
         "param,x1,x2,converged", 4),
        (["curve", "--model", "X1", "--n", "500", "--path", "ellipse:0.3:0.5", "--nphi", "4"],
         "param,x1,x2,converged", 4),
        (["curve", "--model", "X1", "--n", "500", "--path", "quarter:0.5", "--nphi", "3"],
         "param,x1,x2,converged", 3),
        (["simulate", "--model", _json_model('{"type":"clayton","theta":2}'), "--n", "50"],
         "x1,x2", 50),
        (["simulate", "--model", _json_model('{"type":"gumbel","theta":2}'), "--n", "50"],
         "x1,x2", 50),
        (["simulate", "--model", _json_model('{"type":"frank","theta":-3}'), "--n", "50"],
         "x1,x2", 50),
        (["simulate", "--model", _COMPOUND_JSON, "--n", "50"], "x1,x2", 50),
        # without --n: the preset's standard size, 10,000 for a JSON model
        (["simulate", "--model", "cp-paper"], "x1,x2", 100),
        (["simulate", "--model", _json_model('{"type":"independence"}')], "x1,x2", 10_000),
    ],
    ids=["ellipse-inline", "ellipse-tall", "quarter", "json-clayton", "json-gumbel",
         "json-frank", "json-compound", "default-n-preset", "default-n-json"],
)
def test_path_and_model_forms(args, header, rows, tmp_path):
    lines = run_cli([*args, "--seed", "3"], tmp_path).decode().strip().split("\n")
    assert lines[0] == header
    assert len(lines) == rows + 1
    values = np.array([[float(v) for v in l.split(",")[:2]] for l in lines[1:]])
    assert np.all(np.isfinite(values))
    if args[0] == "curve":
        assert all(l.endswith(",true") for l in lines[1:])


# ---------------------------------------------------------------------------
# config files and validation failures

def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sample size\nn = 300\nseed = 21\n")
    args = ["expectile", "--model", "X1", "--alpha", "0,0", "--config", str(cfg)]
    a = run_cli(args, tmp_path, "c.csv")
    b = run_cli(["expectile", "--model", "X1", "--alpha", "0,0", "--n", "300",
                 "--seed", "21"], tmp_path, "d.csv")
    assert a == b


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 21\n")
    a = run_cli(["expectile", "--model", "X1", "--alpha", "0,0", "--n", "300",
                 "--seed", "99", "--config", str(cfg)], tmp_path, "e.csv")
    b = run_cli(["expectile", "--model", "X1", "--alpha", "0,0", "--n", "300",
                 "--seed", "99"], tmp_path, "f.csv")
    assert a == b


def test_unknown_config_key_is_line_numbered_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 21\nbogus = 1\n")
    rc = main(["expectile", "--model", "X1", "--alpha", "0,0", "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert ":2:" in err and "bogus" in err


def test_match_magnitude_has_no_search_tolerance(tmp_path, capsys):
    # the search's bracket follows --tol: neither a flag nor a config line sets it
    args = ["match-magnitude", "--model", "X1", "--n", "200", "--direction", "1,0",
            "--theta", "0.5", "--out", str(tmp_path / "m.csv")]
    assert main([*args, "--tol-search", "1e-6"]) == 1
    assert "--tol-search" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol-search = 1e-6\n")
    assert main([*args, "--config", str(cfg)]) == 1
    assert ":1:" in capsys.readouterr().err


def test_threads_config_key_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 200\nthreads = 2\n")
    rc = main(["subadd", "--model", "Z-clayton5", "--nphi", "4", "--config", str(cfg),
               "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert ":2:" in err and "unknown key 'threads'" in err


def test_claim_rate_past_underflow_exits_one(tmp_path, capsys):
    # exp(-1000) underflows, and the claim counts would all read 0
    spec = _COMPOUND_JSON.replace('"claim_rate":0.5', '"claim_rate":1000')
    rc = main(["simulate", "--model", spec, "--n", "10", "--out", str(tmp_path / "c.csv")])
    assert rc == 1
    assert "claim_rate <= 708.396" in capsys.readouterr().err


def test_validation_failures_exit_one(tmp_path):
    out = str(tmp_path / "x.csv")
    # index on the unit sphere
    assert main(["expectile", "--model", "X1", "--n", "100", "--alpha", "1,0",
                 "--out", out]) == 1
    # both --data and --model
    assert main(["expectile", "--model", "X1", "--data", "nope.csv",
                 "--alpha", "0,0", "--out", out]) == 1
    # neither source
    assert main(["expectile", "--alpha", "0,0", "--out", out]) == 1
    # unknown preset
    assert main(["simulate", "--model", "Xq", "--n", "10", "--out", out]) == 1
    # malformed grid
    assert main(["distance", "--model", "frank3-4d", "--n", "200",
                 "--direction=-1,-1,-1,-1", "--r-grid", "0:0.4", "--out", out]) == 1
    # unknown path kind
    assert main(["curve", "--model", "X1", "--n", "100", "--path", "spiral",
                 "--out", out]) == 1
    # no thread-count flag
    assert main(["subadd", "--model", "Z-clayton5", "--n", "200", "--nphi", "4",
                 "--threads", "2", "--out", out]) == 1
    # no selftest subcommand
    assert main(["selftest"]) == 1
    # an inclusion test needs a polygon of at least 3 angles
    assert main(["subadd", "--model", "Z-clayton5", "--n", "200", "--nphi", "2",
                 "--out", out]) == 1


@pytest.mark.parametrize("source", ["flag", "config"])
def test_grid_without_a_finite_point_count_exits_one(source, tmp_path, capsys):
    grid = "0:1e300:1e-300"
    args = ["curve", "--model", "X1", "--n", "50", "--path", "ray", "--direction", "1,0"]
    if source == "flag":
        args += ["--magnitudes", grid]
    else:
        config = tmp_path / "grid.cfg"
        config.write_text(f"magnitudes = {grid}\n")
        args += ["--config", str(config)]
    assert main([*args, "--out", str(tmp_path / "g.csv")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, flag",
    [
        (["match-magnitude", "--model", "X1", "--n", "200", "--direction", "1,0"], "--theta"),
        (["match-magnitude", "--model", "X1", "--n", "200", "--theta", "0.5"], "--direction"),
        (["distance", "--model", "X1", "--n", "200"], "--direction"),
        (["curve", "--model", "X1", "--n", "200", "--path", "ray", "--magnitudes", "0:0.5:0.1"],
         "--direction"),
        (["curve", "--model", "X1", "--n", "200", "--path", "ray", "--direction", "1,0"],
         "--magnitudes"),
        (["uniform-analytic"], "--alpha"),
    ],
    ids=["match-theta", "match-direction", "distance-direction", "ray-direction",
         "ray-magnitudes", "uniform-alpha"],
)
def test_missing_required_flag_exits_one(args, flag, tmp_path, capsys):
    assert main([*args, "--out", str(tmp_path / "m.csv")]) == 1
    assert f"error: {flag} is required" in capsys.readouterr().err


_RAY = ["--path", "ray", "--direction", "1,0", "--magnitudes", "0:0.5:0.25"]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "path, key, value",
    [
        (["--path", "circle:0.5"], "direction", "1,0"),
        (["--path", "ellipse:0.5:0.3"], "magnitudes", "0:0.5:0.1"),
        (_RAY, "nphi", "3"),
    ],
    ids=["arc-direction", "arc-magnitudes", "ray-nphi"],
)
def test_curve_rejects_a_flag_its_path_does_not_use(path, key, value, source, tmp_path, capsys):
    args = ["curve", "--model", "X1", "--n", "50", *path]
    assert main([*args, "--out", str(tmp_path / "ok.csv")]) == 0
    if source == "flag":
        args += [f"--{key}", value]
    else:
        config = tmp_path / "path.cfg"
        config.write_text(f"{key} = {value}\n")
        args += ["--config", str(config)]
    out = tmp_path / "unused.csv"
    assert main([*args, "--out", str(out)]) == 1
    assert not out.exists()
    kind = path[1].split(":")[0]
    assert capsys.readouterr().err == f"error: --{key} does not apply to a {kind} path\n"


_SMALL = ["--n", "300", "--seed", "4"]
# every subcommand whose output has a converged column
_CONVERGED_COLUMN = {
    "expectile": ["expectile", "--model", "X1", *_SMALL, "--alpha", "0.5,0.2"],
    "var": ["var", "--model", "X1", *_SMALL, "--alpha", "0.5,0.2"],
    "curve": ["curve", "--model", "X1", *_SMALL, "--path", "circle:0.5", "--nphi", "4"],
    "subadd": ["subadd", "--model", "Z-clayton5", *_SMALL, "--nphi", "4"],
    "compare-uni": ["compare-uni", "--model", "X1", *_SMALL],
    "match-magnitude": ["match-magnitude", "--model", "X1", *_SMALL, "--direction", "1,0",
                        "--theta", "0.5"],
    "marginalize": ["marginalize", "--model", "frank3-4d", *_SMALL, "--nphi", "4"],
    "distance": ["distance", "--model", "X1", *_SMALL, "--direction", "1,0",
                 "--r-grid", "0:0.5:0.25"],
    "bounded-support": ["bounded-support", *_SMALL, "--r-list", "0.3,0.6", "--nphi", "4"],
    "uniform-analytic": ["uniform-analytic", "--alpha", "0.3,0.1"],
}


@pytest.mark.parametrize("args", _CONVERGED_COLUMN.values(), ids=_CONVERGED_COLUMN.keys())
def test_non_convergence_exits_two_but_writes_output(args, tmp_path, monkeypatch):
    def converged(expect):
        out = tmp_path / "nc.csv"
        assert main([*args, "--out", str(out)]) == expect
        lines = out.read_text().strip().split("\n")
        column = lines[0].split(",").index("converged")
        return [line.split(",")[column] for line in lines[1:]]

    assert "false" not in converged(0)
    monkeypatch.setattr(SolverConfig, "max_iterations", 1)
    assert "false" in converged(2)


def test_var_curve_on_atoms_converges(tmp_path):
    # cp-paper has many all-zero rows; VaR minimizers on those atoms are
    # certified by the subdifferential test, so no row reports false
    raw = run_cli(["curve", "--model", "cp-paper", "--seed", "3", "--path", "circle:0.5",
                   "--measure", "var"], tmp_path)
    rows = raw.decode().strip().split("\n")[1:]
    assert len(rows) == 64
    assert all(row.split(",")[-1] == "true" for row in rows)


def _child_env() -> dict[str, str]:
    # the child imports the same package as this process, installed or not
    package_root = str(Path(geomrisk.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


# id -> (arguments, exit code, what the run writes: its output file, or its
# error line on exit 1)
_CHILD_RUNS = {
    "exit-0": (["simulate", "--model", "X1", "--n", "10", "--seed", "1"], 0, "x1,x2\n"),
    "exit-1": (["var", "--model", "X1", "--n", "200", "--alpha", "1,0"], 1,
               "error: index must lie strictly inside the unit ball"),
    "exit-2": (["curve", "--model", "X1", "--n", "200", "--path", "circle:0.5", "--nphi", "4",
                "--tol", "1e-300"], 2, "param,x1,x2,converged\n"),
}


@pytest.mark.parametrize("args, code, start", _CHILD_RUNS.values(), ids=_CHILD_RUNS.keys())
def test_console_script_entry_point(args, code, start, tmp_path):
    # the exit code reaches the parent through a real process
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "geomrisk.cli", *args, "--out", str(out)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == code
    assert (proc.stderr if code == 1 else out.read_text()).startswith(start)
    assert out.exists() == (code != 1)
    if code == 2:
        assert "false" in out.read_text()


def test_curve_output_does_not_depend_on_the_blas_thread_count():
    # a traced path's starts are elementwise NumPy sums in a fixed order, so
    # the curve's bytes are the same whatever BLAS threading the child gets
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "geomrisk.cli", "curve", "--model", "X3",
             "--path", "circle:0.9", "--nphi", "64"],
            capture_output=True,
            env={**_child_env(), "OPENBLAS_NUM_THREADS": threads},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].count(b"\n") == 65
    assert outputs[0] == outputs[1]


def test_compare_uni_finishes_on_a_margin_of_scale_1e5(tmp_path):
    # the univariate expectile once bisected to an absolute width of 1e-12,
    # which never ends for a root of magnitude >= 2**13
    model = ('{"margins":[{"type":"normal","sigma":1e5},{"type":"normal"}],'
             '"copula":{"type":"independence"}}')
    common = ["--model", model, "--n", "1000", "--seed", "1"]
    out = tmp_path / "cmp.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "geomrisk.cli", "compare-uni", *common, "--out", str(out)],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    sample_file = tmp_path / "sample.csv"
    assert main(["simulate", *common, "--out", str(sample_file)]) == 0
    first = np.loadtxt(sample_file, delimiter=",", skiprows=1)[:, 0]
    rows = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(0, 2))
    assert rows.shape == (4, 2)
    for level, expectile in rows:
        assert expectile == geomrisk.univariate_expectile(first, level)


def test_cli_import_loads_no_scipy_integrate_or_optimize():
    # only FrankCopula.kendall_tau needs scipy.integrate (which pulls in
    # scipy.optimize), so it imports it on first call
    code = (
        "import geomrisk.cli, sys\n"
        "print(*sorted(m for m in sys.modules"
        " if m.startswith(('scipy.integrate', 'scipy.optimize'))))\n"
        "from geomrisk import FrankCopula\n"
        "print(repr(FrankCopula(3.0, 2).kendall_tau()), repr(FrankCopula(-3.0, 2).kendall_tau()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    loaded, taus = proc.stdout.split("\n")[:2]
    assert loaded == ""
    expected = (FrankCopula(3.0, 2).kendall_tau(), FrankCopula(-3.0, 2).kendall_tau())
    assert taus == f"{expected[0]!r} {expected[1]!r}"


def test_scipy_special_loads_with_the_first_special_function(tmp_path):
    # normal and t4 quantiles and the skew-normal cdf pass are NumPy code, so
    # ops whose margins need no other special function load no SciPy module
    # at all; the first that does (a t margin with nu = 3) imports
    # scipy.special and prints what an eager import prints.  Importing the
    # CLI builds none of the NumPy kernels' tables, and no op imports
    # numpy.polynomial.
    data = tmp_path / "pair.csv"
    data.write_text("x1,x2\n0,1\n1,0\n2,2\n0.5,0.3\n")
    small = ["--n", "500", "--seed", "2"]
    t3_model = ('{"margins":[{"type":"normal"},{"type":"t","nu":3}],'
                '"copula":{"type":"independence"}}')
    ops = [
        ["var", "--model", "cp-paper", "--n", "200", "--seed", "1", "--alpha=0.2,0.1"],
        ["expectile", "--data", str(data), "--alpha=0.3,0.2"],
        ["bounded-support", "--nphi", "4", "--seed", "1"],
        ["uniform-analytic", "--alpha=0.2,0.1"],
        ["curve", "--model", "X3", *small, "--path", "circle:0.9", "--nphi", "4"],
        ["subadd", "--model", "Z-clayton5", *small, "--nphi", "4"],
        ["marginalize", "--model", "Z-clayton5", *small, "--nphi", "4"],
        ["expectile", "--model", "frank3-4d", *small, "--alpha=0.3,0.2,0.1,0"],
        ["var", "--model", "X1", *small, "--alpha=0.3,0.2"],
        ["expectile", "--model", "X2", *small, "--alpha=0.3,0.2"],
        ["var", "--model", "X4", *small, "--alpha=0.3,0.2"],
        ["expectile", "--model", t3_model, *small, "--alpha=0.3,0.2"],
    ]
    body = (
        "import geomrisk.cli\n"
        "d = geomrisk.cli.dist\n"
        "tables = (d._tail_table, d._root_table, d._owens_t_rules)\n"
        "assert [t.cache_info().currsize for t in tables] == [0, 0, 0], 'built at import'\n"
        "polynomial = 'numpy.polynomial' in sys.modules  # NumPy < 2 imports it with numpy\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        f"seen = [loaded()]\nfor argv in {ops!r}:\n"
        "    assert geomrisk.cli.main(argv) == 0\n"
        "    seen.append(loaded())\n"
        "    # scipy.special imports numpy.polynomial itself\n"
        "    assert seen[-1] or ('numpy.polynomial' in sys.modules) == polynomial, argv\n"
        "print([bool(s) for s in seen], 'scipy.special' in seen[-1], file=sys.stderr)\n"
    )
    stdout = {}
    for eager in (False, True):
        first = "import sys, scipy.special\n" if eager else "import sys\n"
        proc = subprocess.run([sys.executable, "-c", first + body],
                              capture_output=True, env=_child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        stdout[eager] = proc.stdout
        if not eager:
            assert proc.stderr.decode().strip() == f"{[False] * len(ops) + [True]} True"
    assert stdout[False] == stdout[True]
    assert stdout[False].count(b"\n") > len(ops)


def test_parser_is_built_once_and_shares_no_state(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    out = str(tmp_path / "p.csv")
    assert main(["var", "--bogus"]) == 1
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    # a --path value of one call is not the default of the next
    curve = ["curve", "--model", "X1", "--n", "200", "--nphi", "4", "--out", out]
    assert main([*curve, "--path", "circle:0.5"]) == 0
    assert main(curve) == 1
    assert "error: --path is required: circle:R, " in capsys.readouterr().err
    # a config file's n applies to its own call only
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 300\n")
    sim = ["simulate", "--model", "X1", "--out", out]
    assert main([*sim, "--config", str(cfg)]) == 0
    assert len(Path(out).read_text().splitlines()) == 1 + 300
    assert main(sim) == 0
    assert len(Path(out).read_text().splitlines()) == 1 + 10_000
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "expectile" in capsys.readouterr().out
    # the next call still works, and a repeated op writes the same bytes
    op = ["expectile", "--model", "X2", "--n", "500", "--seed", "3", "--alpha", "0.4,-0.2"]
    first = run_cli(op, tmp_path, "r1.csv")
    assert run_cli(op, tmp_path, "r2.csv") == first


# ---------------------------------------------------------------------------
# model JSON parts are the library's classes

def test_model_json_types_name_every_margin_and_copula_class():
    for table, spec in ((cli._MARGINS, MarginSpec), (cli._COPULAS, CopulaSpec)):
        assert len(set(table.values())) == len(table)
        assert set(table.values()) == set(typing.get_args(spec))


def test_model_json_keys_are_class_fields_with_class_defaults():
    model = cli._parse_model(
        '{"margins": [{"type": "normal", "mu": 1, "sigma": 2}, {"type": "t", "nu": 4},'
        ' {"type": "skewnormal", "shape": 3}], "copula": {"type": "frank", "theta": 2}}'
    )
    margins = (Normal(1.0, 2.0), StudentT(4.0), SkewNormal(0.0, 1.0, 3.0))
    assert model == JointModel(margins, FrankCopula(2.0, 3))
    defaults = cli._parse_model('{"margins": [{"type": "normal"}, {"type": "normal"}],'
                                ' "copula": {"type": "clayton", "theta": 2}}')
    assert defaults == JointModel((Normal(), Normal()), ClaytonCopula(2.0, 2))


_MALFORMED_MODELS = {
    "margin-not-object": '{"margins": ["normal"], "copula": {"type": "independence"}}',
    "copula-not-object": '{"margins": [{"type": "normal"}, {"type": "normal"}], "copula": "gumbel"}',
    "misspelled-key": '{"margins": [{"type": "normal", "sigam": 2}], "copula": {"type": "independence"}}',
    "copula-dim-key": '{"margins": [{"type": "normal"}, {"type": "normal"}],'
                      ' "copula": {"type": "clayton", "theta": 2, "dim": 2}}',
}


@pytest.mark.parametrize("model", _MALFORMED_MODELS.values(), ids=_MALFORMED_MODELS.keys())
def test_malformed_model_json_exits_one_with_an_error_line(model, tmp_path, capsys):
    args = ["simulate", "--model", model, "--n", "5"]
    assert main([*args, "--out", str(tmp_path / "m.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: model JSON ")
    proc = subprocess.run(
        [sys.executable, "-m", "geomrisk.cli", *args],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    # one line, no traceback
    assert proc.stderr.startswith("error: model JSON ") and proc.stderr.count("\n") == 1


# ---------------------------------------------------------------------------
# every check that no test above reaches: exit 1 and its error line

_FILES = {
    "pair.csv": "x1,x2\n0,1\n1,0\n2,2\n",
    "nan.csv": "x1,x2\n1,2\nnan,3\n",
    "text.csv": "x1,x2\n1,a\n",
    "empty.csv": "x1,x2\n",
    "no-equals.cfg": "seed 3\n",
    "measure.cfg": "measure = median\n",
    "alpha.cfg": "alpha = a,b\n",
    "grid.cfg": "r_grid = 0:1:-0.1\n",
    "hash.cfg": "alpha = 0.3,0.1#x\n",
    "max-iter.cfg": "max-iter = 5\n",
}
_PAIR = ["--data", "{tmp}/pair.csv"]
_INDEPENDENT = '"copula": {"type": "independence"}}'
# id -> (arguments, start of the error message); {tmp} is the test's directory
_CLI_REJECTED = {
    "margin-type": (["simulate", "--model", '{"margins": [{"type": "weird"}], ' + _INDEPENDENT],
                    "unknown margin type 'weird'"),
    "margin-without-type": (["simulate", "--model", '{"margins": [{"mu": 1}], ' + _INDEPENDENT],
                            "unknown margin type None"),
    "copula-type": (["simulate", "--model",
                     '{"margins": [{"type": "normal"}], "copula": {"type": "nope"}}'],
                    "unknown copula type 'nope'"),
    "json-invalid": (["simulate", "--model", "{bad"], "model JSON is invalid: "),
    # past the bound the skew-normal quantile overflows and gives wrong rows
    "skewnormal-shape": (["simulate", "--model", '{"margins": [{"type": "skewnormal", '
                          '"shape": 1e160}, {"type": "normal"}], ' + _INDEPENDENT, "--n", "5"],
                         "SkewNormal requires finite xi, omega > 0 and |shape| <= 1e+100"),
    "data-missing": (["expectile", "--data", "{tmp}/none.csv", "--alpha", "0,0"],
                     "cannot read data file {tmp}/none.csv: "),
    "data-text": (["expectile", "--data", "{tmp}/text.csv", "--alpha", "0,0"],
                  "data file {tmp}/text.csv is not numeric CSV: "),
    "data-nonfinite": (["expectile", "--data", "{tmp}/nan.csv", "--alpha", "0,0"],
                       "data file {tmp}/nan.csv must contain finite rows"),
    # numpy warns on a header-only file; under -W error that warning must not escape
    "data-header-only": (["var", "--data", "{tmp}/empty.csv", "--alpha", "0.1,0"],
                         "data file {tmp}/empty.csv must contain finite rows"),
    "n-zero": (["simulate", "--model", "X1", "--n", "0"], "--n must be at least 1"),
    "simulate-model": (["simulate"], "--model is required"),
    # an index's length is checked once, by the solver, as in the library
    "alpha-components": (["expectile", *_PAIR, "--alpha", "0.1,0.1,0.1"],
                         "index dimension must match the sample dimension"),
    "var-alpha-components": (["var", *_PAIR, "--alpha", "0.1,0.1,0.1"],
                             "index dimension must match the sample dimension"),
    "direction-zero": (["distance", *_PAIR, "--direction", "0,0"],
                       "direction must be a finite nonzero vector"),
    "direction-nan": (["distance", *_PAIR, "--direction", "nan,1"],
                      "direction must be a finite nonzero vector"),
    "direction-dim": (["distance", *_PAIR, "--direction", "1,0,0"],
                      "index dimension must match the sample dimension"),
    "curve-direction-zero": (["curve", *_PAIR, "--path", "ray", "--direction", "0,0",
                              "--magnitudes", "0:0.5:0.5"],
                             "direction must be a finite nonzero vector"),
    "curve-direction-dim": (["curve", *_PAIR, "--path", "ray", "--direction", "1,0,0",
                             "--magnitudes", "0:0.5:0.5"],
                            "index dimension must match the sample dimension"),
    "match-direction-nan": (["match-magnitude", *_PAIR, "--direction", "nan,1", "--theta", "0.5"],
                            "direction must be a finite nonzero vector"),
    "match-direction-dim": (["match-magnitude", *_PAIR, "--direction", "1,0,0",
                             "--theta", "0.5"],
                            "index dimension must match the sample dimension"),
    "path-radius": (["curve", *_PAIR, "--path", "circle:abc"],
                    "bad inline path radius in 'circle:abc'"),
    "path-form": (["curve", *_PAIR, "--path", "ellipse:0.5"],
                  "path 'ellipse:0.5' must have the form ellipse:R1:R2"),
    "path-bare": (["curve", *_PAIR, "--path", "circle"],
                  "path 'circle' must have the form circle:R"),
    "path-kind": (["curve", *_PAIR, "--path", "square:0.5"],
                  "unknown path 'square:0.5'; use circle:R, quarter:R, ellipse:R1:R2 or ray"),
    # radii are given in --path only
    "curve-r": (["curve", *_PAIR, "--path", "circle:0.5", "--r", "0.5"],
                "unrecognized arguments: --r 0.5"),
    "curve-r2": (["curve", *_PAIR, "--path", "ellipse:0.5:0.3", "--r2", "0.3"],
                 "unrecognized arguments: --r2 0.3"),
    "subadd-columns": (["subadd", *_PAIR],
                       "subadd needs a 4-column sample: columns 1-2 are X, columns 3-4 are Y"),
    "marginalize-columns": (["marginalize", *_PAIR],
                            "marginalize needs a sample with at least 3 columns"),
    "box-corners": (["uniform-analytic", "--box", "0,1,0", "--alpha", "0,0"],
                    "--box must be a1,b1,a2,b2"),
    "config-missing": (["expectile", "--config", "{tmp}/none.cfg"],
                       "cannot read config file {tmp}/none.cfg: "),
    "config-no-equals": (["expectile", "--config", "{tmp}/no-equals.cfg"],
                         "{tmp}/no-equals.cfg:1: expected 'key = value'"),
    "config-choice": (["curve", *_PAIR, "--config", "{tmp}/measure.cfg"],
                      "{tmp}/measure.cfg:1: invalid value for 'measure': "
                      "must be one of ('expectile', 'var')"),
    "config-floats": (["expectile", *_PAIR, "--config", "{tmp}/alpha.cfg"],
                      "{tmp}/alpha.cfg:1: invalid value for 'alpha': "
                      "expected comma-separated numbers, got 'a,b'"),
    # a '#' right after a value is part of it, not a comment
    "config-hash": (["expectile", *_PAIR, "--config", "{tmp}/hash.cfg"],
                    "{tmp}/hash.cfg:1: invalid value for 'alpha': "),
    "config-grid": (["distance", *_PAIR, "--direction", "1,0", "--config", "{tmp}/grid.cfg"],
                    "{tmp}/grid.cfg:1: invalid value for 'r_grid': "
                    "grid requires step > 0 and stop >= start"),
    # a bad line fails even where a flag overrides its key
    "config-under-flag": (["expectile", *_PAIR, "--alpha", "0,0", "--config", "{tmp}/alpha.cfg"],
                          "{tmp}/alpha.cfg:1: invalid value for 'alpha': "
                          "expected comma-separated numbers, got 'a,b'"),
    "flag-choice": (["curve", *_PAIR, "--measure", "median"],
                    "argument --measure: invalid value for 'measure': "
                    "must be one of ('expectile', 'var')"),
    "flag-floats": (["expectile", *_PAIR, "--alpha", "a,b"],
                    "argument --alpha: invalid value for 'alpha': "
                    "expected comma-separated numbers, got 'a,b'"),
    "flag-grid": (["distance", *_PAIR, "--direction", "1,0", "--r-grid", "0:1:-0.1"],
                  "argument --r-grid: invalid value for 'r_grid': "
                  "grid requires step > 0 and stop >= start"),
    "flag-int": (["simulate", "--model", "X1", "--seed", "x"],
                 "argument --seed: invalid value for 'seed': "
                 "invalid literal for int() with base 10: 'x'"),
    "subadd-polygon": (["subadd", "--model", "Z-clayton5", "--n", "200", "--nphi", "2"],
                       "n_phi must be at least 3"),
    # the iteration cap is a constant of the solver, not an option
    "max-iter-flag": (["expectile", *_PAIR, "--alpha", "0,0", "--max-iter", "5"],
                      "unrecognized arguments: --max-iter 5"),
    "max-iter-config": (["expectile", *_PAIR, "--alpha", "0,0", "--config", "{tmp}/max-iter.cfg"],
                        "{tmp}/max-iter.cfg:1: unknown key 'max_iter'"),
}


@pytest.mark.parametrize("args, message", _CLI_REJECTED.values(), ids=_CLI_REJECTED.keys())
def test_rejected_input_exits_one_with_its_message(args, message, tmp_path, capsys):
    for name, text in _FILES.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "r.csv"
    assert main([a.replace("{tmp}", str(tmp_path)) for a in args] + ["--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: " + message.replace("{tmp}", str(tmp_path)))


# option -> (subcommand and its other flags, the option's value)
_EITHER_SOURCE = {
    "measure": (["curve", "--model", "X1", "--n", "200", "--path", "circle:0.5", "--nphi", "4"],
                "var"),
    "alpha": (["expectile", "--model", "X1", "--n", "200"], "0.3,-0.2"),
    "r_grid": (["distance", "--model", "X1", "--n", "200", "--direction", "1,1"], "0:0.5:0.25"),
}


@pytest.mark.parametrize("key", _EITHER_SOURCE)
def test_flag_and_config_line_give_the_same_csv(key, tmp_path):
    args, value = _EITHER_SOURCE[key]
    flag = run_cli([*args, "--" + key.replace("_", "-"), value], tmp_path, "flag.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert run_cli([*args, "--config", str(cfg)], tmp_path, "cfg.csv") == flag


def test_config_value_may_contain_a_hash(tmp_path):
    data = tmp_path / "run#1.csv"
    data.write_text(_FILES["pair.csv"])
    args = ["expectile", "--alpha", "0.3,0.1"]
    flag = run_cli([*args, "--data", str(data)], tmp_path, "flag.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data = {data}\n")
    assert run_cli([*args, "--config", str(cfg)], tmp_path, "cfg.csv") == flag


def test_config_comments_start_a_line_or_follow_whitespace(tmp_path):
    (tmp_path / "pair.csv").write_text(_FILES["pair.csv"])
    args = ["expectile", "--data", str(tmp_path / "pair.csv")]
    flag = run_cli([*args, "--alpha", "0.3,0.1"], tmp_path, "flag.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# note\n  # indented note\nalpha = 0.3,0.1  # note\n")
    assert run_cli([*args, "--config", str(cfg)], tmp_path, "cfg.csv") == flag


def test_every_subcommand_renders_its_help(capsys):
    parser, _ = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(sub.choices) == 11
    for name, subparser in sub.choices.items():
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0, name
        assert capsys.readouterr().out == subparser.format_help()
    assert "risk measure: expectile|var" in sub.choices["curve"].format_help()


@pytest.mark.parametrize("out", [None, "-"], ids=["no-out", "dash"])
def test_csv_goes_to_stdout_without_an_out_file(out, tmp_path, capsys):
    op = ["uniform-analytic", "--alpha", "0.3,0.1"]
    expected = run_cli(op, tmp_path).decode()
    capsys.readouterr()
    assert main(op if out is None else [*op, "--out", out]) == 0
    assert capsys.readouterr().out == expected


# ---------------------------------------------------------------------------
# the README's examples and Python blocks run as written, and its CLI section
# names the flags

_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples() -> list[tuple[str, list[str]]]:
    """``(comment, argv)`` of each ``geomrisk`` command in the ``sh`` block
    after "Examples:" in README.md: continuations joined, each command with
    the comment above it."""
    block = _README.read_text().split("Examples:", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands, comment = [], ""
    for line in block.replace("\\\n", " ").splitlines():
        line = line.strip()
        if line.startswith("#"):
            comment = line
        elif line:
            program, *argv = shlex.split(line)
            assert program == "geomrisk", line
            commands.append((comment, argv))
    return commands


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = _readme_examples()
    assert len(examples) == 7
    identical = []
    for comment, argv in examples:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if "byte-identical" in comment and argv[0] == "expectile":
            identical.append(out)
    assert len(identical) == 2 and identical[0] and identical[0] == identical[1]


def test_readme_python_blocks_run(tmp_path):
    # each block runs as written in a fresh interpreter, outside the checkout:
    # the Quickstart, the one-margin draw and the bounded-support check
    blocks = re.findall(r"```python\n(.*?)```", _README.read_text(), flags=re.S)
    assert len(blocks) == 3
    for block in blocks:
        proc = subprocess.run([sys.executable, "-W", "error", "-c", block], cwd=tmp_path,
                              capture_output=True, text=True, env=_child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr


def test_readme_cli_section_names_exactly_the_parsers_flags():
    # every flag of every subcommand is documented, and no other flag is
    # named; `--flag` is the placeholder of the error-message example
    section = _README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section)) - {"--flag"}
    _, specs = cli._build_parser()
    assert named == {opt.flag for spec in specs.values() for opt in spec.values()} | {"--config"}
