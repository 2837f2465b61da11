"""Command line interface.

Batch subcommands around the library: simulate data, solve single
estimates, trace curves and run the bundled experiments.  All
output is CSV (stdout or --out) with floats printed at 17 significant
digits so files round-trip exactly.  Exit codes: 0 success, 1 validation
error, 2 solver non-convergence (output is still written).

Randomness: every subcommand derives its generator from --seed via a
named substream (see ``models.substream``), so a fixed command line
yields byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import warnings
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import distributions as dist
from .copulas import ClaytonCopula, FrankCopula, GumbelCopula, IndependenceCopula
from .estimators import SolverConfig, geometric_expectile, geometric_var
from .experiments import (
    _MEASURES,
    CirclePath,
    EllipsePath,
    DEFAULT_STRESS_RADII,
    QuarterCirclePath,
    RayPath,
    bounded_support_check,
    compare_univariate,
    distance_curve,
    marginalization_curves,
    match_magnitude,
    subadditivity_sets,
    trace_curve,
)
from .losses import index_from_level
from .models import (
    CompoundPoissonModel,
    JointModel,
    PRESET_DEFAULT_N,
    PRESETS,
    simulate,
    simulate_compound,
    substream,
)
from .uniform_exact import UniformBox, uniform_expectile

__all__ = ["main"]


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on bad flags; route that to exit code 1 instead
    def error(self, message):
        raise _CliError(message)


def _conv_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None


def _conv_grid(text: str) -> tuple[float, ...]:
    """A grid is either 'start:stop:step' (stop inclusive) or comma-separated values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0.0 or stop < start:
            raise ValueError("grid requires step > 0 and stop >= start")
        steps = (stop - start) / step
        if not np.isfinite(steps):
            raise ValueError(f"grid {text!r} does not have a finite number of points")
        n = int(np.floor(steps + 1e-9)) + 1
        # a grid that lands on stop ends there, not an ulp off it (3 * 0.1 > 0.3)
        last = stop if steps - (n - 1) <= 1e-9 else start + (n - 1) * step
        return tuple(start + k * step for k in range(n - 1)) + (last,)
    return _conv_floats(text)


@dataclass(frozen=True)
class _Opt:
    flag: str
    conv: Callable[[str], object]
    default: object
    help: str
    choices: tuple | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


def _add_opts(parser: argparse.ArgumentParser, opts: list[_Opt]) -> dict[str, _Opt]:
    # values stay text here: _merge_config converts flags and config lines alike
    for opt in opts:
        parser.add_argument(opt.flag, dest=opt.dest, default=None, help=opt.help)
    return {opt.dest: opt for opt in opts}


def _convert(opt: _Opt, text: str, where: str) -> object:
    """``opt.conv(text)``, one of ``opt.choices`` when set; ``where`` leads any error."""
    try:
        value = opt.conv(text)
        if opt.choices is not None and value not in opt.choices:
            raise ValueError(f"must be one of {opt.choices}")
    except ValueError as exc:
        raise _CliError(f"{where}: invalid value for {opt.dest!r}: {exc}") from None
    return value


def _read_config(path: str, spec: dict[str, _Opt]) -> dict[str, object]:
    """Parse a 'key = value' config file; every error names its line."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise _CliError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, object] = {}
    for lineno, raw in enumerate(lines, start=1):
        # '#' opens a comment at a line's start or after whitespace: 'run#1.csv' is a value
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _CliError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in spec:
            raise _CliError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _convert(spec[key], value.strip(), f"{path}:{lineno}")
    return values


def _merge_config(args: argparse.Namespace, spec: dict[str, _Opt]) -> None:
    """Precedence: explicit flag > config file > built-in default."""
    flags = {
        dest: _convert(opt, text, f"argument {opt.flag}")
        for dest, opt in spec.items()
        if (text := getattr(args, dest)) is not None
    }
    from_file = _read_config(args.config, spec) if args.config else {}
    defaults = {dest: opt.default for dest, opt in spec.items()}
    vars(args).update(defaults | from_file | flags)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


# a subcommand's output: the CSV header and its rows
_Table = tuple[list[str], list[Sequence]]


def _write_csv(out: str | None, header: list[str], rows: list[Sequence]) -> None:
    text = ",".join(header) + "\n"
    text += "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _coords(dim: int) -> list[str]:
    return [f"x{j + 1}" for j in range(dim)]


def _report_table(report) -> _Table:
    """One row: the minimizer and its solve report."""
    header = _coords(report.argmin.size) + ["objective", "grad_norm", "iterations", "converged"]
    row = list(report.argmin) + [
        report.objective,
        report.grad_norm,
        report.iterations,
        report.converged,
    ]
    return header, [row]


def _curve_table(curves: list, extra: Sequence[tuple[str, bool]] = ()) -> _Table:
    """One row per curve point: ``[curve,] param, x1..xd, converged`` then ``extra``.

    ``curves`` holds (name, Curve) pairs; a None name leaves out the curve
    column.  ``extra`` holds (column, value) pairs repeated on every row.
    """
    named = curves[0][0] is not None
    header = (["curve"] if named else []) + ["param"] + _coords(curves[0][1].points.shape[1])
    header += ["converged"] + [column for column, _ in extra]
    tail = [value for _, value in extra]
    rows = [
        ([name] if named else [])
        + [curve.params[i]]
        + list(curve.points[i])
        + [bool(curve.converged[i])]
        + tail
        for name, curve in curves
        for i in range(curve.params.size)
    ]
    return header, rows


# ---------------------------------------------------------------------------
# model parsing and sample acquisition

# JSON "type" -> class; every other key of a part is a field of that class
_MARGINS = {
    "normal": dist.Normal,
    "t": dist.StudentT,
    "skewnormal": dist.SkewNormal,
    "gumbel": dist.Gumbel,
    "logistic": dist.Logistic,
    "exponential": dist.Exponential,
    "uniform": dist.Uniform,
}
_COPULAS = {
    "independence": IndependenceCopula,
    "clayton": ClaytonCopula,
    "gumbel": GumbelCopula,
    "frank": FrankCopula,
}


def _build_part(part, table: dict, what: str, **extra):
    """``table[part["type"]](**other keys, **extra)``; unknown keys raise TypeError."""
    if not isinstance(part, dict):
        raise ValueError(f"model JSON {what} must be an object, got {part!r}")
    fields = dict(part)
    kind = fields.pop("type", None)
    if kind not in table:
        raise ValueError(f"unknown {what} type {kind!r}")
    return table[kind](**fields, **extra)


def _build_joint(obj: dict) -> JointModel:
    margins = tuple(_build_part(m, _MARGINS, "margin") for m in obj["margins"])
    copula = obj["copula"]
    if isinstance(copula, dict) and "dim" in copula:
        raise ValueError("model JSON copula takes no dim: it follows from the number of margins")
    return JointModel(margins, _build_part(copula, _COPULAS, "copula", dim=len(margins)))


def _parse_model(text: str):
    """A model is a preset name or a JSON object (see README for the schema)."""
    text = text.strip()
    if text in PRESETS:
        return PRESETS[text]
    if text.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"model JSON is invalid: {exc}") from None
        try:
            if "claim_rate" in obj:
                return CompoundPoissonModel(obj["claim_rate"], _build_joint(obj["severity"]))
            return _build_joint(obj)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"model JSON is missing or mistypes a field: {exc}") from None
    known = ", ".join(sorted(PRESETS))
    raise ValueError(f"unknown model {text!r}; use a preset ({known}) or a JSON object")


def _load_sample(path: str) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # the size test below reports a file with no rows as an error
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ValueError(f"cannot read data file {path}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"data file {path} is not numeric CSV: {exc}") from None
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ValueError(f"data file {path} must contain finite rows")
    return arr


def _default_n(model_text: str) -> int:
    return PRESET_DEFAULT_N.get(model_text.strip(), 10_000)


def _sample_size(n: int) -> int:
    if n < 1:
        raise ValueError("--n must be at least 1")
    return n


def _draw_sample(args) -> np.ndarray:
    """--n draws of --model from the 'simulate' substream of --seed."""
    model = _parse_model(args.model)
    n = _sample_size(args.n if args.n is not None else _default_n(args.model))
    rng = substream(args.seed, "simulate")
    if isinstance(model, CompoundPoissonModel):
        return simulate_compound(model, n, rng)
    return simulate(model, n, rng)


def _get_sample(args) -> np.ndarray:
    if args.data is not None and args.model is not None:
        raise ValueError("pass either --data or --model, not both")
    if args.data is not None:
        return _load_sample(args.data)
    if args.model is None:
        raise ValueError("one of --data or --model is required")
    return _draw_sample(args)


def _solver_config(args) -> SolverConfig:
    return SolverConfig(grad_tolerance=args.tol)


def _alpha_for(args, dim: int) -> np.ndarray:
    has_alpha = args.alpha is not None
    has_level = args.level is not None
    if has_alpha == has_level:
        raise ValueError("exactly one of --alpha or --level is required")
    if has_alpha:
        return np.asarray(args.alpha, dtype=float)
    alpha = np.zeros(dim)
    alpha[0] = index_from_level(args.level)
    return alpha


def _direction(args) -> tuple[float, ...]:
    """--direction as given: the library scales it to unit length."""
    if args.direction is None:
        raise ValueError("--direction is required")
    return args.direction


# ---------------------------------------------------------------------------
# shared option groups

_SEED = _Opt("--seed", int, 1, "root RNG seed (default 1)")
_OUT = _Opt("--out", str, None, "output CSV path (default stdout)")
_MODEL = _Opt("--model", str, None, "preset name or model JSON")
_DATA = _Opt("--data", str, None, "CSV sample file (columns x1..xd)")
_N = _Opt("--n", int, None, "sample size (default: preset's standard size)")
_NPHI = _Opt("--nphi", int, 64, "number of angles")
_ALPHA = _Opt("--alpha", _conv_floats, None, "index vector, comma separated")
_DIRECTION = _Opt("--direction", _conv_floats, None, "nonzero direction, scaled to unit length")
_MEASURE = _Opt(
    "--measure", str, "expectile", "risk measure: " + "|".join(_MEASURES), choices=_MEASURES
)
_SOLVER = _Opt("--tol", float, SolverConfig.grad_tolerance, "relative gradient tolerance")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(args) -> _Table:
    if args.model is None:
        raise ValueError("--model is required")
    sample = _draw_sample(args)
    return _coords(sample.shape[1]), [list(row) for row in sample]


def _solve_cmd(args, solver) -> _Table:
    sample = _get_sample(args)
    alpha = _alpha_for(args, sample.shape[1])
    return _report_table(solver(sample, alpha, _solver_config(args)))


def _cmd_expectile(args) -> _Table:
    return _solve_cmd(args, geometric_expectile)


def _cmd_var(args) -> _Table:
    return _solve_cmd(args, geometric_var)


# --path kind -> (class, the one form of its --path value)
_ARCS = {
    "circle": (CirclePath, "circle:R"),
    "quarter": (QuarterCirclePath, "quarter:R"),
    "ellipse": (EllipsePath, "ellipse:R1:R2"),
}
_PATH_FORMS = ", ".join(form for _, form in _ARCS.values()) + " or ray"


def _unused(args, kind: str, *dests: str) -> None:
    """Reject a flag or config line that a ``kind`` path would ignore."""
    for dest in dests:
        if getattr(args, dest) is not None:
            raise ValueError(f"--{dest} does not apply to a {kind} path")


def _build_path(args):
    if args.path is None:
        raise ValueError(f"--path is required: {_PATH_FORMS}")
    kind, *radii = args.path.split(":")
    if args.path == "ray":
        _unused(args, kind, "nphi")
        if args.magnitudes is None:
            raise ValueError("--magnitudes is required for a ray path")
        return RayPath(_direction(args), np.asarray(args.magnitudes, dtype=float))
    if kind not in _ARCS:
        raise ValueError(f"unknown path {args.path!r}; use {_PATH_FORMS}")
    _unused(args, kind, "direction", "magnitudes")
    cls, form = _ARCS[kind]
    if len(radii) != form.count(":"):
        raise ValueError(f"path {args.path!r} must have the form {form}")
    try:
        radii = [float(r) for r in radii]
    except ValueError:
        raise ValueError(f"bad inline path radius in {args.path!r}") from None
    return cls(*radii, _NPHI.default if args.nphi is None else args.nphi)


def _cmd_curve(args) -> _Table:
    sample = _get_sample(args)
    path = _build_path(args)
    curve = trace_curve(sample, path, args.measure, _solver_config(args))
    return _curve_table([(None, curve)])


def _cmd_subadd(args) -> _Table:
    sample = _get_sample(args)
    if sample.shape[1] != 4:
        raise ValueError("subadd needs a 4-column sample: columns 1-2 are X, columns 3-4 are Y")
    result = subadditivity_sets(
        sample[:, :2],
        sample[:, 2:],
        args.r,
        measure=args.measure,
        n_phi=args.nphi,
        config=_solver_config(args),
    )
    curves = [("sum", result.curve_sum), ("add", result.curve_add)]
    return _curve_table(curves, [("included", result.included)])


def _cmd_compare_uni(args) -> _Table:
    sample = _get_sample(args)
    rows = compare_univariate(sample, np.asarray(args.levels, dtype=float), _solver_config(args))
    header = [
        "level",
        "univariate_var",
        "univariate_expectile",
        "geometric_var_x1",
        "geometric_expectile_x1",
        "converged",
    ]
    return header, [astuple(row) for row in rows]


def _cmd_match_magnitude(args) -> _Table:
    if args.theta is None:
        raise ValueError("--theta is required")
    sample = _get_sample(args)
    m_star, _, converged = match_magnitude(
        sample,
        _direction(args),
        args.theta,
        config=_solver_config(args),
    )
    return ["theta", "matched_magnitude", "converged"], [[args.theta, m_star, bool(converged)]]


def _cmd_marginalize(args) -> _Table:
    sample = _get_sample(args)
    if sample.shape[1] < 3:
        raise ValueError("marginalize needs a sample with at least 3 columns")
    result = marginalization_curves(
        sample[:, :3],
        args.r,
        n_phi=args.nphi,
        config=_solver_config(args),
    )
    curves = [("margin", result.margin_curve)] + [
        (f"full_{i + 1}", c) for i, c in enumerate(result.full_curves)
    ]
    return _curve_table(curves, [("included_i4", result.inclusion_i4)])


def _cmd_distance(args) -> _Table:
    sample = _get_sample(args)
    curve = distance_curve(
        sample,
        _direction(args),
        np.asarray(args.r_grid, dtype=float),
        _solver_config(args),
    )
    rows = list(zip(curve.radii, curve.distances, curve.converged))
    return ["r", "distance", "converged"], rows


def _cmd_bounded_support(args) -> _Table:
    # the paper's Clayton(5) copula sample (uniform margins), own substream of --seed
    model = JointModel((dist.Uniform(), dist.Uniform()), ClaytonCopula(5.0, 2))
    sample = simulate(model, _sample_size(args.n), substream(args.seed, "bounded-support"))
    rows = bounded_support_check(
        sample,
        r_list=np.asarray(args.r_list, dtype=float),
        n_phi=args.nphi,
        config=_solver_config(args),
    )
    return ["r", "exits_support", "converged"], [astuple(row) for row in rows]


def _cmd_uniform_analytic(args) -> _Table:
    box_vals = args.box
    if len(box_vals) != 4:
        raise ValueError("--box must be a1,b1,a2,b2")
    box = UniformBox(*box_vals)
    if args.alpha is None:
        raise ValueError("--alpha is required")
    alpha = np.asarray(args.alpha, dtype=float)
    return _report_table(uniform_expectile(box, alpha, _solver_config(args)))


# ---------------------------------------------------------------------------
# parser assembly

@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, dict[str, _Opt]]]:
    # Built once per process: each parse returns a fresh Namespace, every
    # _Opt default is immutable, and the _cmd_* functions look up the
    # library names at call time, so reuse shares no state between calls.
    parser = _Parser(prog="geomrisk", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="cmd", required=True)
    specs: dict[str, dict[str, _Opt]] = {}

    def register(name: str, func, opts: list[_Opt], help_text: str) -> None:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key = value config file")
        specs[name] = _add_opts(p, [*opts, _OUT])
        p.set_defaults(func=func)

    register(
        "simulate",
        _cmd_simulate,
        [_MODEL, _N, _SEED],
        "draw a sample from a model and write it as CSV (columns x1..xd)",
    )
    sample_opts = [_MODEL, _DATA, _N, _SEED]
    solve_opts = [
        *sample_opts,
        _ALPHA,
        _Opt("--level", float, None, "classical level l; index (2l-1) e1"),
        _SOLVER,
    ]
    register("expectile", _cmd_expectile, solve_opts, "geometric expectile of a sample")
    register("var", _cmd_var, solve_opts, "geometric value-at-risk of a sample")
    register(
        "curve",
        _cmd_curve,
        [
            *sample_opts,
            _Opt("--path", str, None, "index path: " + _PATH_FORMS),
            # each path kind's flags have no default, so that one set for
            # the other kind is seen and rejected
            _Opt("--nphi", int, None, f"arc path angles (default {_NPHI.default})"),
            _DIRECTION,
            _Opt("--magnitudes", _conv_grid, None, "ray magnitudes grid"),
            _MEASURE,
            _SOLVER,
        ],
        "trace a risk-measure curve along an index path",
    )
    register(
        "subadd",
        _cmd_subadd,
        [
            *sample_opts,
            _Opt("--r", float, 0.2, "index circle radius"),
            _NPHI,
            _MEASURE,
            _SOLVER,
        ],
        "subadditivity region check on a 4-column sample (X = cols 1-2, Y = cols 3-4)",
    )
    register(
        "compare-uni",
        _cmd_compare_uni,
        [
            *sample_opts,
            _Opt(
                "--levels", _conv_floats, (0.8, 0.9, 0.95, 0.99), "comma-separated classical levels"
            ),
            _SOLVER,
        ],
        "geometric vs classical univariate measures of the first component",
    )
    register(
        "match-magnitude",
        _cmd_match_magnitude,
        [
            *sample_opts,
            _DIRECTION,
            _Opt("--theta", float, None, "expectile index magnitude"),
            _SOLVER,
        ],
        "value-at-risk magnitude matching a given expectile magnitude",
    )
    register(
        "marginalize",
        _cmd_marginalize,
        [
            *sample_opts,
            _Opt("--r", float, 0.1, "planar index radius"),
            _NPHI,
            _SOLVER,
        ],
        "marginal vs full-model expectile curves (first three sample columns)",
    )
    register(
        "distance",
        _cmd_distance,
        [
            *sample_opts,
            _DIRECTION,
            _Opt("--r-grid", _conv_grid, _conv_grid("0:0.995:0.005"), "magnitude grid"),
            _SOLVER,
        ],
        "distance from the mean to expectiles along one index direction",
    )
    register(
        "bounded-support",
        _cmd_bounded_support,
        [
            _Opt("--n", int, 20_000, "copula sample size"),
            _SEED,
            _Opt("--r-list", _conv_grid, DEFAULT_STRESS_RADII, "stress radii"),
            _NPHI,
            _SOLVER,
        ],
        "expectile curves of a Clayton(5) copula sample vs its [0,1]^2 support",
    )
    register(
        "uniform-analytic",
        _cmd_uniform_analytic,
        [
            _Opt("--box", _conv_floats, (0.0, 1.0, 0.0, 1.0), "box a1,b1,a2,b2"),
            _ALPHA,
            _SOLVER,
        ],
        "closed-form geometric expectile of a bivariate uniform box",
    )
    return parser, specs


def main(argv=None) -> int:
    parser, specs = _build_parser()
    try:
        args = parser.parse_args(argv)
        _merge_config(args, specs[args.cmd])
        header, rows = args.func(args)
        _write_csv(args.out, header, rows)
    except (_CliError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # the output is written either way; exit 2 if any row's solve did not converge
    if "converged" in header:
        column = header.index("converged")
        if not all(row[column] for row in rows):
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
