"""Command line: subcommand outputs, exit codes, config files, determinism,
and the in-memory/file round trip."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geomrisk
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


def test_curve_flag_radius_equals_inline_radius(tmp_path):
    a = run_cli(["curve", "--model", "X1", "--seed", "5", "--n", "1000", "--path",
                 "circle:0.5", "--nphi", "4"], tmp_path, "a.csv")
    b = run_cli(["curve", "--model", "X1", "--seed", "5", "--n", "1000", "--path",
                 "circle", "--r", "0.5", "--nphi", "4"], tmp_path, "b.csv")
    assert a == b


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
    assert "sample size n" in capsys.readouterr().err


def test_selftest_passes():
    assert main(["selftest"]) == 0


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
        (["curve", "--model", "X1", "--n", "500", "--path", "ellipse", "--r", "0.5",
          "--r2", "0.3", "--nphi", "4"], "param,x1,x2,converged", 4),
        (["curve", "--model", "X1", "--n", "500", "--path", "quarter", "--r", "0.5",
          "--nphi", "3"], "param,x1,x2,converged", 3),
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
    ids=["ellipse-inline", "ellipse-flags", "quarter", "json-clayton", "json-gumbel",
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


def test_non_convergence_exits_two_but_writes_output(tmp_path):
    out = tmp_path / "nc.csv"
    rc = main(["expectile", "--model", "X1", "--n", "500", "--seed", "4",
               "--alpha", "0.5,0.2", "--max-iter", "1", "--out", str(out)])
    assert rc == 2
    lines = out.read_text().strip().split("\n")
    assert lines[1].split(",")[-1] == "false"


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    # the child imports the same package as this process, installed or not
    package_root = str(Path(geomrisk.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "geomrisk.cli", "simulate", "--model", "X1",
         "--n", "10", "--seed", "1", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert out.read_text().startswith("x1,x2")
