"""Command line interface.

Batch subcommands around the library: simulate data, solve single
estimates, trace curves and run the bundled experiments.  All
output is CSV (stdout or --out) with floats printed at 17 significant
digits so files round-trip exactly.  Exit codes: 0 success, 1 validation
error, 2 solver non-convergence (output is still written).

Randomness: every subcommand derives its generator from --seed via a
named substream (see ``models.substream``), so a fixed command line
yields byte-identical output.  GEOMRISK_THREADS sets the default thread
count for the multi-curve experiments.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import distributions as dist
from .copulas import ClaytonCopula, FrankCopula, GumbelCopula, IndependenceCopula
from .estimators import (
    SolverConfig,
    geometric_expectile,
    geometric_var,
    univariate_expectile,
    univariate_quantile,
)
from .experiments import (
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

__all__ = ["main", "run_selftest"]


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
        n = int(np.floor((stop - start) / step + 1e-9)) + 1
        return tuple(start + k * step for k in range(n))
    return _conv_floats(text)


@dataclass(frozen=True)
class _Opt:
    flags: tuple[str, ...]
    dest: str
    conv: Callable[[str], object]
    default: object
    help: str
    choices: tuple | None = None


def _add_opts(parser: argparse.ArgumentParser, opts: list[_Opt]) -> dict[str, _Opt]:
    spec: dict[str, _Opt] = {}
    for opt in opts:
        parser.add_argument(
            *opt.flags,
            dest=opt.dest,
            type=opt.conv,
            default=None,
            choices=opt.choices,
            help=opt.help,
        )
        spec[opt.dest] = opt
    return spec


def _read_config(path: str, spec: dict[str, _Opt]) -> dict[str, object]:
    """Parse a 'key = value' config file; unknown keys are line-numbered errors."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise _CliError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, object] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _CliError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in spec:
            raise _CliError(f"{path}:{lineno}: unknown key {key!r}")
        opt = spec[key]
        try:
            parsed = opt.conv(value)
        except ValueError as exc:
            raise _CliError(f"{path}:{lineno}: invalid value for {key!r}: {exc}") from None
        if opt.choices is not None and parsed not in opt.choices:
            raise _CliError(
                f"{path}:{lineno}: invalid value for {key!r}: must be one of {opt.choices}"
            )
        values[key] = parsed
    return values


def _merge_config(args: argparse.Namespace, spec: dict[str, _Opt]) -> None:
    """Precedence: explicit flag > config file > built-in default."""
    from_file = _read_config(args.config, spec) if getattr(args, "config", None) else {}
    for dest, opt in spec.items():
        if getattr(args, dest) is None:
            setattr(args, dest, from_file.get(dest, opt.default))


def _default_threads() -> int:
    raw = os.environ.get("GEOMRISK_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def _write_csv(out: str | None, header: list[str], rows: list[list]) -> None:
    text = ",".join(header) + "\n"
    text += "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _coords(dim: int) -> list[str]:
    return [f"x{j + 1}" for j in range(dim)]


def _write_report(out: str | None, report) -> int:
    """One row: the minimizer and its solve report; exit code 2 unless converged."""
    header = _coords(report.argmin.size) + ["objective", "grad_norm", "iterations", "converged"]
    row = list(report.argmin) + [
        report.objective,
        report.grad_norm,
        report.iterations,
        report.converged,
    ]
    _write_csv(out, header, [row])
    return 0 if report.converged else 2


def _write_curves(out: str | None, curves: list, extra: Sequence[tuple[str, bool]] = ()) -> int:
    """One row per curve point: ``[curve,] param, x1..xd, converged`` then ``extra``.

    ``curves`` holds (name, Curve) pairs; a None name leaves out the curve
    column.  ``extra`` holds (column, value) pairs repeated on every row.
    Returns exit code 2 unless every point converged.
    """
    named = curves[0][0] is not None
    header = (["curve"] if named else []) + ["param"] + _coords(curves[0][1].points.shape[1])
    header += ["converged"] + [column for column, _ in extra]
    tail = [bool(value) for _, value in extra]
    rows = [
        ([name] if named else [])
        + [curve.params[i]]
        + list(curve.points[i])
        + [bool(curve.converged[i])]
        + tail
        for name, curve in curves
        for i in range(curve.params.size)
    ]
    _write_csv(out, header, rows)
    return 0 if all(curve.all_converged for _, curve in curves) else 2


# ---------------------------------------------------------------------------
# model parsing and sample acquisition

_MARGIN_BUILDERS = {
    "normal": lambda a: dist.Normal(a.get("mu", 0.0), a.get("sigma", 1.0)),
    "t": lambda a: dist.StudentT(a["nu"]),
    "skewnormal": lambda a: dist.SkewNormal(a.get("xi", 0.0), a.get("omega", 1.0), a.get("shape", 0.0)),
    "gumbel": lambda a: dist.Gumbel(a.get("loc", 0.0), a.get("scale", 1.0)),
    "logistic": lambda a: dist.Logistic(a.get("loc", 0.0), a.get("scale", 1.0)),
    "exponential": lambda a: dist.Exponential(a["rate"]),
    "uniform": lambda a: dist.Uniform(a.get("a", 0.0), a.get("b", 1.0)),
}


def _build_copula(obj: dict, dim: int):
    kind = obj.get("type")
    if kind == "independence":
        return IndependenceCopula(dim)
    if kind == "clayton":
        return ClaytonCopula(obj["theta"], dim)
    if kind == "gumbel":
        return GumbelCopula(obj["theta"], dim)
    if kind == "frank":
        return FrankCopula(obj["theta"], dim)
    raise ValueError(f"unknown copula type {kind!r}")


def _build_joint(obj: dict) -> JointModel:
    margins = []
    for m in obj["margins"]:
        kind = m.get("type")
        if kind not in _MARGIN_BUILDERS:
            raise ValueError(f"unknown margin type {kind!r}")
        margins.append(_MARGIN_BUILDERS[kind](m))
    return JointModel(tuple(margins), _build_copula(obj["copula"], len(margins)))


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


def _draw_sample(args) -> np.ndarray:
    """--n draws of --model from the 'simulate' substream of --seed."""
    model = _parse_model(args.model)
    n = args.n if args.n is not None else _default_n(args.model)
    if n < 1:
        raise ValueError("--n must be at least 1")
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
    return SolverConfig(grad_tolerance=args.tol, max_iterations=args.max_iter)


def _alpha_for(args, dim: int) -> np.ndarray:
    has_alpha = getattr(args, "alpha", None) is not None
    has_level = getattr(args, "level", None) is not None
    if has_alpha == has_level:
        raise ValueError("exactly one of --alpha or --level is required")
    if has_alpha:
        alpha = np.asarray(args.alpha, dtype=float)
        if alpha.size != dim:
            raise ValueError(f"--alpha has {alpha.size} components but the sample has {dim}")
        return alpha
    level = float(args.level)
    if not (0.0 < level < 1.0):
        raise ValueError("--level must lie in (0, 1)")
    alpha = np.zeros(dim)
    alpha[0] = 2.0 * level - 1.0
    return alpha


def _direction(args, dim: int) -> np.ndarray:
    """--direction scaled to a unit vector; it must have ``dim`` components."""
    if args.direction is None:
        raise ValueError("--direction is required")
    d = np.asarray(args.direction, dtype=float)
    norm = np.linalg.norm(d)
    if not np.all(np.isfinite(d)) or norm == 0.0:
        raise ValueError("direction must be a finite nonzero vector")
    if d.size != dim:
        raise ValueError("--direction dimension must match the sample")
    return d / norm


# ---------------------------------------------------------------------------
# shared option groups

_SEED = _Opt(("--seed",), "seed", int, 1, "root RNG seed (default 1)")
_OUT = _Opt(("--out",), "out", str, None, "output CSV path (default stdout)")
_MODEL = _Opt(("--model",), "model", str, None, "preset name or model JSON")
_DATA = _Opt(("--data",), "data", str, None, "CSV sample file (columns x1..xd)")
_N = _Opt(("--n",), "n", int, None, "sample size (default: preset's standard size)")
_NPHI = _Opt(("--nphi",), "nphi", int, 64, "number of angles")
_MEASURE = _Opt(
    ("--measure",), "measure", str, "expectile", "risk measure", choices=("expectile", "var")
)
_SOLVER = (
    _Opt(("--tol",), "tol", float, 1e-8, "relative gradient tolerance"),
    _Opt(("--max-iter",), "max_iter", int, 500, "maximum solver iterations"),
)
_THREADS = _Opt(
    ("--threads",),
    "threads",
    int,
    None,
    "worker threads for independent curves (default: GEOMRISK_THREADS or 1)",
)


def _threads(args) -> int:
    return args.threads if args.threads is not None else _default_threads()


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(args) -> int:
    if args.model is None:
        raise ValueError("--model is required")
    sample = _draw_sample(args)
    _write_csv(args.out, _coords(sample.shape[1]), [list(row) for row in sample])
    return 0


def _solve_cmd(args, solver) -> int:
    sample = _get_sample(args)
    alpha = _alpha_for(args, sample.shape[1])
    return _write_report(args.out, solver(sample, alpha, _solver_config(args)))


def _cmd_expectile(args) -> int:
    return _solve_cmd(args, geometric_expectile)


def _cmd_var(args) -> int:
    return _solve_cmd(args, geometric_var)


def _build_path(args, dim: int):
    kind = args.path
    if ":" in kind:
        # Inline form circle:R, ellipse:R1:R2, quarter:R; radii override --r/--r2.
        kind, *radii = kind.split(":")
        try:
            values = [float(p) for p in radii]
        except ValueError as exc:
            raise ValueError(f"bad inline path radius in {args.path!r}") from exc
        if kind in ("circle", "quarter") and len(values) == 1:
            args.r = values[0]
        elif kind == "ellipse" and len(values) == 2:
            args.r, args.r2 = values
        else:
            raise ValueError(f"unknown path {args.path!r}")
    if kind == "circle":
        if args.r is None:
            raise ValueError("--r is required for a circle path")
        return CirclePath(args.r, args.nphi)
    if kind == "ellipse":
        if args.r is None or args.r2 is None:
            raise ValueError("--r and --r2 are required for an ellipse path")
        return EllipsePath(args.r, args.r2, args.nphi)
    if kind == "quarter":
        if args.r is None:
            raise ValueError("--r is required for a quarter-circle path")
        return QuarterCirclePath(args.r, args.nphi)
    if kind == "ray":
        if args.magnitudes is None:
            raise ValueError("--magnitudes is required for a ray path")
        return RayPath(_direction(args, dim), np.asarray(args.magnitudes, dtype=float))
    raise ValueError(f"unknown path {kind!r}")


def _cmd_curve(args) -> int:
    sample = _get_sample(args)
    path = _build_path(args, sample.shape[1])
    curve = trace_curve(sample, path, args.measure, _solver_config(args))
    return _write_curves(args.out, [(None, curve)])


def _cmd_subadd(args) -> int:
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
        threads=_threads(args),
    )
    curves = [("sum", result.curve_sum), ("add", result.curve_add)]
    return _write_curves(args.out, curves, [("included", result.included)])


def _cmd_compare_uni(args) -> int:
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
    table = [
        [
            row.level,
            row.univariate_var,
            row.univariate_expectile,
            row.geometric_var_first,
            row.geometric_expectile_first,
            row.converged,
        ]
        for row in rows
    ]
    _write_csv(args.out, header, table)
    return 0 if all(row.converged for row in rows) else 2


def _cmd_match_magnitude(args) -> int:
    if args.theta is None:
        raise ValueError("--theta is required")
    sample = _get_sample(args)
    m_star, _, converged = match_magnitude(
        sample,
        _direction(args, sample.shape[1]),
        args.theta,
        config=_solver_config(args),
        tol=args.tol_search,
        return_trace=True,
    )
    _write_csv(
        args.out,
        ["theta", "matched_magnitude", "converged"],
        [[args.theta, m_star, bool(converged)]],
    )
    return 0 if converged else 2


def _cmd_marginalize(args) -> int:
    sample = _get_sample(args)
    if sample.shape[1] < 3:
        raise ValueError("marginalize needs a sample with at least 3 columns")
    result = marginalization_curves(
        sample[:, :3],
        args.r,
        n_phi=args.nphi,
        config=_solver_config(args),
        threads=_threads(args),
    )
    curves = [("margin", result.margin_curve)] + [
        (f"full_{i + 1}", c) for i, c in enumerate(result.full_curves)
    ]
    return _write_curves(args.out, curves, [("included_i4", result.inclusion_i4)])


def _cmd_distance(args) -> int:
    sample = _get_sample(args)
    curve = distance_curve(
        sample,
        _direction(args, sample.shape[1]),
        np.asarray(args.r_grid, dtype=float),
        _solver_config(args),
    )
    rows = [
        [curve.radii[i], curve.distances[i], bool(curve.converged[i])]
        for i in range(curve.radii.size)
    ]
    _write_csv(args.out, ["r", "distance", "converged"], rows)
    return 0 if bool(np.all(curve.converged)) else 2


def _cmd_bounded_support(args) -> int:
    rows = bounded_support_check(
        args.n,
        r_list=np.asarray(args.r_list, dtype=float),
        n_phi=args.nphi,
        config=_solver_config(args),
        rng=substream(args.seed, "bounded-support"),
    )
    table = [[row.r, row.exits_support, row.all_converged] for row in rows]
    _write_csv(args.out, ["r", "exits_support", "converged"], table)
    return 0 if all(row.all_converged for row in rows) else 2


def _cmd_uniform_analytic(args) -> int:
    box_vals = args.box
    if len(box_vals) != 4:
        raise ValueError("--box must be a1,b1,a2,b2")
    box = UniformBox(*box_vals)
    if args.alpha is None:
        raise ValueError("--alpha is required")
    alpha = np.asarray(args.alpha, dtype=float)
    return _write_report(args.out, uniform_expectile(box, alpha, _solver_config(args)))


def _cmd_selftest(args) -> int:
    results = run_selftest()
    for name, passed in results:
        print(f"{'ok  ' if passed else 'FAIL'} {name}")
    failed = sum(1 for _, passed in results if not passed)
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# selftest suites (quick invariant checks, no file output)

def _random_index(rng: np.random.Generator, dim: int, max_norm: float = 0.95) -> np.ndarray:
    v = rng.standard_normal(dim)
    v /= max(np.linalg.norm(v), 1e-300)
    return v * rng.uniform(0.0, max_norm)


def _suite_loss_inequalities() -> bool:
    from .losses import expectile_loss, expectile_loss_grad, quantile_loss

    rng = np.random.default_rng(20240801)
    for dim in (1, 2, 3, 5):
        u = _random_index(rng, dim)
        unorm = np.linalg.norm(u)
        t = rng.standard_normal((2000, dim)) * 3.0
        lam = expectile_loss(u, t)
        phi = quantile_loss(u, t)
        norms = np.linalg.norm(t, axis=1)
        if np.any(lam < -1e-12) or np.any(phi < -1e-12):
            return False
        if np.any(lam < 0.5 * (1.0 - unorm) * norms**2 - 1e-9):
            return False
        grads = expectile_loss_grad(u, t)
        if np.any(np.linalg.norm(grads, axis=1) > 2.0 * norms * (1.0 + unorm) + 1e-9):
            return False
        x, y = t[:1000], t[1000:]
        gap = 2 * expectile_loss(u, x) + 2 * expectile_loss(u, y) - expectile_loss(u, x + y)
        bound = 0.5 * (1.0 - unorm) * np.linalg.norm(x - y, axis=1) ** 2
        if np.any(gap < bound - 1e-9 * (1.0 + np.abs(gap))):
            return False
    return True


def _suite_loss_gradient_fd() -> bool:
    from .losses import expectile_loss, expectile_loss_grad

    rng = np.random.default_rng(7)
    step = 1e-6
    for _ in range(40):
        dim = int(rng.integers(1, 5))
        u = _random_index(rng, dim)
        t = rng.standard_normal(dim) * 2.0
        grad = expectile_loss_grad(u, t)
        for k in range(dim):
            e_k = np.zeros(dim)
            e_k[k] = step
            fd = (expectile_loss(u, t + e_k) - expectile_loss(u, t - e_k)) / (2 * step)
            if abs(fd - grad[k]) > 1e-5 * (1.0 + abs(fd)):
                return False
    return True


def _suite_univariate_reduction() -> bool:
    from .losses import check_loss, expectile_loss, expectile_loss_1d, quantile_loss

    for u in np.arange(-0.9, 0.95, 0.1):
        level = (1.0 + u) / 2.0
        for t in (-2.5, -0.3, 0.0, 0.7, 4.0):
            if abs(quantile_loss([u], [t]) - check_loss(level, t)) > 1e-12:
                return False
            if abs(expectile_loss([u], [t]) - expectile_loss_1d(level, t)) > 1e-12:
                return False
    return True


def _suite_estimator_identities() -> bool:
    rng = np.random.default_rng(11)
    sample = rng.standard_normal((300, 2))
    rep = geometric_expectile(sample, np.zeros(2))
    if np.linalg.norm(rep.argmin - sample.mean(axis=0)) > 1e-7:
        return False
    alpha = np.array([0.4, -0.2])
    base = geometric_expectile(sample, alpha).argmin
    shift = np.array([3.0, -1.0])
    moved = geometric_expectile(sample + shift, alpha).argmin
    if np.linalg.norm(moved - base - shift) > 1e-6:
        return False
    scaled = geometric_expectile(3.5 * sample, alpha).argmin
    return np.linalg.norm(scaled - 3.5 * base) <= 1e-6 * 3.5


def _suite_univariate_oracles() -> bool:
    from .losses import check_loss

    rng = np.random.default_rng(13)
    x = rng.standard_normal(37)
    for alpha in (0.1, 0.5, 0.8, 0.9):
        q = univariate_quantile(x, alpha)
        objective = lambda c: float(np.mean(check_loss(alpha, x - c)))
        best = min(x, key=objective)
        if abs(objective(q) - objective(best)) > 1e-12:
            return False
        e = univariate_expectile(x, alpha)
        foc = alpha * np.maximum(x - e, 0.0).sum() - (1 - alpha) * np.maximum(e - x, 0.0).sum()
        if abs(foc) > 1e-6 * x.size:
            return False
    return True


def _suite_copula_tau() -> bool:
    from scipy.stats import kendalltau

    rng = np.random.default_rng(17)
    u = ClaytonCopula(5.0, 2).sample(20_000, rng)
    if abs(kendalltau(u[:, 0], u[:, 1]).statistic - 5.0 / 7.0) > 0.03:
        return False
    v = GumbelCopula(2.0, 2).sample(20_000, rng)
    return abs(kendalltau(v[:, 0], v[:, 1]).statistic - 0.5) <= 0.03


def _suite_uniform_analytic() -> bool:
    from .uniform_exact import (
        expected_squared_distance,
        norm_primitive,
        weighted_norm_primitive,
    )

    rng = np.random.default_rng(19)
    step = 1e-6
    for _ in range(25):
        x, y = rng.uniform(-2.0, 2.0, size=2)
        d_dy = (norm_primitive(x, y + step) - norm_primitive(x, y - step)) / (2 * step)
        if abs(d_dy - np.hypot(x, y)) > 1e-5 * (1.0 + np.hypot(x, y)):
            return False
        d_dx = (weighted_norm_primitive(x + step, y) - weighted_norm_primitive(x - step, y)) / (
            2 * step
        )
        if abs(d_dx - x * norm_primitive(x, y)) > 1e-5 * (1.0 + abs(x * norm_primitive(x, y))):
            return False
    box = UniformBox(0.0, 1.0, 0.0, 1.0)
    if abs(expected_squared_distance(box, (0.5, 0.5)) - 1.0 / 6.0) > 1e-12:
        return False
    rep = uniform_expectile(box, np.zeros(2))
    return bool(rep.converged and np.linalg.norm(rep.argmin - box.midpoint) <= 1e-6)


def _suite_var_reductions() -> bool:
    rng = np.random.default_rng(23)
    half = rng.standard_normal((250, 2)) + np.array([1.0, -2.0])
    sym = np.vstack([half, 2 * half.mean(axis=0) - half])
    rep = geometric_var(sym, np.zeros(2))
    if np.linalg.norm(rep.argmin - sym.mean(axis=0)) > 1e-6:
        return False
    x = rng.standard_normal(400)
    for u in (-0.6, 0.0, 0.5):
        rep1 = geometric_var(x[:, None], np.array([u]))
        classical = univariate_quantile(x, (1.0 + u) / 2.0)
        gap = np.max(np.diff(np.sort(x)))
        if abs(float(rep1.argmin[0]) - classical) > gap + 1e-9:
            return False
    return True


def run_selftest() -> list[tuple[str, bool]]:
    """Run the quick invariant suites; returns (name, passed) pairs."""
    suites = [
        ("loss-inequalities", _suite_loss_inequalities),
        ("loss-gradient-fd", _suite_loss_gradient_fd),
        ("univariate-reduction", _suite_univariate_reduction),
        ("estimator-identities", _suite_estimator_identities),
        ("univariate-oracles", _suite_univariate_oracles),
        ("copula-tau", _suite_copula_tau),
        ("uniform-analytic", _suite_uniform_analytic),
        ("var-reductions", _suite_var_reductions),
    ]
    results = []
    for name, fn in suites:
        try:
            results.append((name, bool(fn())))
        except Exception:
            results.append((name, False))
    return results


# ---------------------------------------------------------------------------
# parser assembly

def _build_parser() -> tuple[_Parser, dict[str, dict[str, _Opt]]]:
    parser = _Parser(prog="geomrisk", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="cmd", required=True)
    specs: dict[str, dict[str, _Opt]] = {}

    def register(name: str, func, opts: list[_Opt], help_text: str) -> None:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key = value config file")
        specs[name] = _add_opts(p, opts)
        p.set_defaults(func=func)

    register(
        "simulate",
        _cmd_simulate,
        [_MODEL, _N, _SEED, _OUT],
        "draw a sample from a model and write it as CSV (columns x1..xd)",
    )
    sample_opts = [_MODEL, _DATA, _N, _SEED]
    solve_opts = [
        *sample_opts,
        _Opt(("--alpha",), "alpha", _conv_floats, None, "index vector, comma separated"),
        _Opt(("--level",), "level", float, None, "classical level l; index (2l-1) e1"),
        *_SOLVER,
        _OUT,
    ]
    register("expectile", _cmd_expectile, solve_opts, "geometric expectile of a sample")
    register("var", _cmd_var, solve_opts, "geometric value-at-risk of a sample")
    register(
        "curve",
        _cmd_curve,
        [
            *sample_opts,
            _Opt(
                ("--path",),
                "path",
                str,
                "circle",
                "index path type: circle|ellipse|quarter|ray, optionally with"
                " inline radii as circle:R, ellipse:R1:R2, quarter:R",
            ),
            _Opt(("--r",), "r", float, None, "radius (circle/quarter) or first ellipse radius"),
            _Opt(("--r2",), "r2", float, None, "second ellipse radius"),
            _NPHI,
            _Opt(("--direction",), "direction", _conv_floats, None, "ray direction (normalized)"),
            _Opt(("--magnitudes",), "magnitudes", _conv_grid, None, "ray magnitudes grid"),
            _MEASURE,
            *_SOLVER,
            _OUT,
        ],
        "trace a risk-measure curve along an index path",
    )
    register(
        "subadd",
        _cmd_subadd,
        [
            *sample_opts,
            _Opt(("--r",), "r", float, 0.2, "index circle radius"),
            _NPHI,
            _MEASURE,
            _THREADS,
            *_SOLVER,
            _OUT,
        ],
        "subadditivity region check on a 4-column sample (X = cols 1-2, Y = cols 3-4)",
    )
    register(
        "compare-uni",
        _cmd_compare_uni,
        [
            *sample_opts,
            _Opt(
                ("--levels",),
                "levels",
                _conv_floats,
                (0.8, 0.9, 0.95, 0.99),
                "comma-separated classical levels",
            ),
            *_SOLVER,
            _OUT,
        ],
        "geometric vs classical univariate measures of the first component",
    )
    register(
        "match-magnitude",
        _cmd_match_magnitude,
        [
            *sample_opts,
            _Opt(("--direction",), "direction", _conv_floats, None, "search direction (normalized)"),
            _Opt(("--theta",), "theta", float, None, "expectile index magnitude"),
            _Opt(("--tol-search",), "tol_search", float, 1e-6, "search tolerance on m"),
            *_SOLVER,
            _OUT,
        ],
        "value-at-risk magnitude matching a given expectile magnitude",
    )
    register(
        "marginalize",
        _cmd_marginalize,
        [
            *sample_opts,
            _Opt(("--r",), "r", float, 0.1, "planar index radius"),
            _NPHI,
            _THREADS,
            *_SOLVER,
            _OUT,
        ],
        "marginal vs full-model expectile curves (first three sample columns)",
    )
    register(
        "distance",
        _cmd_distance,
        [
            *sample_opts,
            _Opt(("--direction",), "direction", _conv_floats, None, "index direction (normalized)"),
            _Opt(("--r-grid",), "r_grid", _conv_grid, _conv_grid("0:0.995:0.005"), "magnitude grid"),
            *_SOLVER,
            _OUT,
        ],
        "distance from the mean to expectiles along one index direction",
    )
    register(
        "bounded-support",
        _cmd_bounded_support,
        [
            _Opt(("--n",), "n", int, 20_000, "copula sample size"),
            _SEED,
            _Opt(("--r-list",), "r_list", _conv_grid, DEFAULT_STRESS_RADII, "stress radii"),
            _NPHI,
            *_SOLVER,
            _OUT,
        ],
        "expectile curves of a Clayton(5) copula sample vs its [0,1]^2 support",
    )
    register(
        "uniform-analytic",
        _cmd_uniform_analytic,
        [
            _Opt(("--box",), "box", _conv_floats, (0.0, 1.0, 0.0, 1.0), "box a1,b1,a2,b2"),
            _Opt(("--alpha",), "alpha", _conv_floats, None, "index vector, comma separated"),
            *_SOLVER,
            _OUT,
        ],
        "closed-form geometric expectile of a bivariate uniform box",
    )
    register("selftest", _cmd_selftest, [], "run the quick invariant suites")
    return parser, specs


def main(argv=None) -> int:
    parser, specs = _build_parser()
    try:
        args = parser.parse_args(argv)
        _merge_config(args, specs.get(args.cmd, {}))
        return int(args.func(args))
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
