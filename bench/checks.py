"""Output checks for benchmark ops, run outside the timed region.

For every op the check verifies the exit code (0 or 2; 1 is a failed op),
the CSV header and row count documented in the README, that every value is
finite, and that the exit code agrees with the ``converged`` column.  Every
``converged=true`` row that exposes a full point (``curve``, ``expectile``,
``var`` and the ``sum`` rows of ``subadd``) is then tested for first-order
optimality on the op's own sample, regenerated from the same model, n and
seed (see ``SampleCache``):

- expectile: ``||grad|| / mean_i ||x_i - c||`` (scale-free);
- VaR: ``max(0, ||grad|| - 0.5 m / n)`` where m sample rows sit exactly at
  c.  The public gradient gives each such atom the value ``-0.5 u / n``, so
  this is the subdifferential condition ``0 in dF(c)``.

Both residuals must be at most ``OPTIMALITY_TOL``.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field

import numpy as np

import geomrisk.cli as cli
from geomrisk.estimators import empirical_objective_grad
from geomrisk.experiments import DEFAULT_STRESS_RADII
from geomrisk.models import (
    PRESET_DEFAULT_N,
    PRESETS,
    CompoundPoissonModel,
    simulate,
    simulate_compound,
    substream,
)

OPTIMALITY_TOL = 1e-6

_SOLVE_TAIL = ["objective", "grad_norm", "iterations", "converged"]
_COMPARE_HEADER = ["level", "univariate_var", "univariate_expectile",
                   "geometric_var_x1", "geometric_expectile_x1", "converged"]
_COMPARE_DEFAULT_LEVELS = 4
_TEXT_COLUMNS = {"curve"}
_BOOL_COLUMNS = {"converged", "included", "included_i4", "exits_support"}


@dataclass
class OpCheck:
    """Outcome of checking one op's output."""

    rows: int = 0
    failed_rows: int = 0
    checked_points: int = 0
    worst_residual: float = 0.0
    problems: list[str] = field(default_factory=list)


def flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    """Value of ``--name value`` or ``--name=value`` in an op's argv."""
    for i, arg in enumerate(argv):
        if arg == name and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return default


def expected_layout(argv: list[str]) -> tuple[list[str], int]:
    """README header and data-row count of an op's CSV output."""
    cmd = argv[0]
    nphi = int(flag(argv, "--nphi", "64"))
    dim = PRESETS[flag(argv, "--model")].dim if flag(argv, "--model") else 2
    coords = [f"x{j + 1}" for j in range(dim)]
    if cmd in ("expectile", "var"):
        return coords + _SOLVE_TAIL, 1
    if cmd == "curve":
        return ["param", *coords, "converged"], nphi
    if cmd == "subadd":
        return ["curve", "param", "x1", "x2", "converged", "included"], 2 * nphi
    if cmd == "marginalize":
        return ["curve", "param", "x1", "x2", "converged", "included_i4"], 8 * nphi
    if cmd == "bounded-support":
        return ["r", "exits_support", "converged"], len(DEFAULT_STRESS_RADII)
    if cmd == "compare-uni":
        return list(_COMPARE_HEADER), _COMPARE_DEFAULT_LEVELS
    raise ValueError(f"no output layout known for subcommand {cmd!r}")


class SampleCache:
    """Op samples regenerated in-process, keyed by model, n and seed.

    Each op simulates with the public ``simulate``/``simulate_compound`` on
    the ``substream(seed, "simulate")`` stream, as the CLI does.  Writing every
    sample through ``geomrisk simulate`` would cost more than the ops, so the
    first sample is compared once against that command's CSV output.
    """

    def __init__(self) -> None:
        self._samples: dict[tuple, np.ndarray] = {}
        self.problems: list[str] = []

    def get(self, argv: list[str]) -> np.ndarray:
        model, n, seed = flag(argv, "--model"), flag(argv, "--n"), flag(argv, "--seed", "1")
        key = (model, n, seed)
        if key not in self._samples:
            preset = PRESETS[model]
            count = int(n) if n is not None else PRESET_DEFAULT_N[model]
            draw = simulate_compound if isinstance(preset, CompoundPoissonModel) else simulate
            sample = draw(preset, count, substream(int(seed), "simulate"))
            if not self._samples:
                self.problems += _compare_with_cli(sample, model, n, seed)
            self._samples[key] = sample
        return self._samples[key]


def _compare_with_cli(sample: np.ndarray, model: str, n: str | None, seed: str) -> list[str]:
    argv = ["simulate", "--model", model, "--seed", seed] + (["--n", n] if n else [])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    cli_sample = np.loadtxt(io.StringIO(buf.getvalue()), delimiter=",", skiprows=1, ndmin=2)
    if code != 0 or not np.array_equal(cli_sample, sample):
        return [f"geomrisk {' '.join(argv)} differs from the sample regenerated in-process"]
    return []


def optimality_residual(sample: np.ndarray, alpha: np.ndarray, point: np.ndarray,
                        kind: str) -> float:
    """Scale-free first-order residual of ``point`` as the minimizer (see module doc)."""
    g = float(np.linalg.norm(empirical_objective_grad(sample, alpha, point, kind)))
    if kind == "expectile":
        scale = float(np.mean(np.linalg.norm(sample - point, axis=1)))
        return g / scale if scale > 0.0 else g
    atoms = int(np.count_nonzero(np.all(sample == point, axis=1)))
    return max(0.0, g - 0.5 * atoms / sample.shape[0])


def _circle_index(radius: float, phi: float) -> np.ndarray:
    return radius * np.array([np.cos(phi), np.sin(phi)])


def _points(argv: list[str], header: list[str], rows: list[list[str]], samples: SampleCache):
    """(row number, sample, alpha, point, kind) for each converged row exposing a point."""
    cmd = argv[0]
    conv = header.index("converged")
    measure = cmd if cmd in ("expectile", "var") else flag(argv, "--measure", "expectile")
    kind = "quantile" if measure == "var" else "expectile"
    if cmd in ("expectile", "var", "curve"):
        sample = samples.get(argv)
    elif cmd == "subadd":
        full = samples.get(argv)
        sample = full[:, :2] + full[:, 2:]
    else:
        return
    for i, row in enumerate(rows):
        if row[conv] != "true":
            continue
        if cmd in ("expectile", "var"):
            alpha = np.array([float(v) for v in flag(argv, "--alpha").split(",")])
            point = np.array([float(v) for v in row[:sample.shape[1]]])
        elif cmd == "curve":
            alpha = _circle_index(float(flag(argv, "--path").split(":")[1]), float(row[0]))
            point = np.array([float(v) for v in row[1:conv]])
        elif row[0] == "sum":
            alpha = _circle_index(float(flag(argv, "--r")), float(row[1]))
            point = np.array([float(row[2]), float(row[3])])
        else:
            continue
        yield i + 1, sample, alpha, point, kind


def check_op(argv: list[str], code: int | None, text: str, samples: SampleCache) -> OpCheck:
    """Check one op's exit code and CSV output; ``code`` None means it raised."""
    out = OpCheck()
    header_want, nrows = expected_layout(argv)
    out.rows = nrows
    if code not in (0, 2):
        out.failed_rows = nrows
        out.problems.append(f"exit code {code}")
        return out
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    rows = [line.split(",") for line in lines[1:]]
    if header != header_want:
        out.problems.append(f"header {header} != {header_want}")
        out.failed_rows = nrows
        return out
    if len(rows) != nrows:
        out.problems.append(f"{len(rows)} rows, expected {nrows}")
    conv = header.index("converged")
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            out.problems.append(f"row {i}: {len(row)} fields, expected {len(header)}")
            continue
        for name, value in zip(header, row):
            if name in _BOOL_COLUMNS:
                ok = value in ("true", "false")
            elif name in _TEXT_COLUMNS:
                ok = bool(value)
            else:
                try:
                    ok = bool(np.isfinite(float(value)))
                except ValueError:
                    ok = False
            if not ok:
                out.problems.append(f"row {i}: {name}={value!r} is not a finite value")
    # rows that are missing count as failed, like every row of an op that exits 1
    out.failed_rows = max(0, nrows - len(rows)) + sum(
        1 for row in rows if len(row) > conv and row[conv] != "true")
    if (code == 2) != (out.failed_rows > 0):
        out.problems.append(f"exit code {code} disagrees with {out.failed_rows} "
                            "non-converged rows")
    if out.problems:
        return out
    for rowno, sample, alpha, point, kind in _points(argv, header, rows, samples):
        res = optimality_residual(sample, alpha, point, kind)
        out.checked_points += 1
        out.worst_residual = max(out.worst_residual, res)
        if not res <= OPTIMALITY_TOL:
            out.problems.append(f"row {rowno}: {kind} optimality residual {res:.3g} "
                                f"> {OPTIMALITY_TOL:g}")
    return out
