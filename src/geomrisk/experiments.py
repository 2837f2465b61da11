"""Experiment harness: index paths, traced curves and inclusion/monotonicity checks.

A curve is the image of a one-parameter family of index vectors under a
geometric risk measure of one fixed sample.  Adjacent indices have
nearby minimizers, so every experiment traces its indices through one
warm-started engine, ``_trace``, which starts each solve at the previous
solution.  On top of curve tracing this module builds the standard
checks: subadditivity region inclusion, univariate comparison,
expectile/value-at-risk magnitude matching, marginalization inclusion,
distance-from-mean profiles and the bounded-support stress test.  Only
the independent curves of ``subadditivity_sets`` and
``marginalization_curves`` run in parallel, on ``threads`` workers.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Union

import numpy as np

from .copulas import ClaytonCopula
from .estimators import (
    SolverConfig,
    as_sample,
    geometric_expectile,
    geometric_var,
    univariate_expectile,
    univariate_quantile,
)

__all__ = [
    "CirclePath",
    "EllipsePath",
    "RayPath",
    "QuarterCirclePath",
    "IndexPath",
    "Curve",
    "trace_curve",
    "point_in_polygon",
    "SubadditivityResult",
    "subadditivity_sets",
    "ComparisonRow",
    "compare_univariate",
    "match_magnitude",
    "MarginalizationResult",
    "marginalization_curves",
    "DistanceCurve",
    "distance_curve",
    "BoundedSupportRow",
    "bounded_support_check",
    "DEFAULT_STRESS_RADII",
]

_MEASURES = ("expectile", "var")

# stress-test radii, increasingly close to the unit sphere
DEFAULT_STRESS_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.9995, 0.9999, 0.99999)


def _circle_indices(radius: float, n_phi: int, dim: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Angles of a full turn of ``n_phi`` equispaced steps and the indices
    ``radius (cos phi, sin phi)`` on the first two of ``dim`` axes (zero elsewhere)."""
    if not (0.0 < radius < 1.0):
        raise ValueError("radius must lie in (0, 1)")
    if int(n_phi) < 1:
        raise ValueError("n_phi must be at least 1")
    if dim < 2:
        raise ValueError("circle indices need a sample of dimension d >= 2")
    phi = 2.0 * np.pi * np.arange(int(n_phi)) / int(n_phi)
    idx = np.zeros((phi.size, dim))
    idx[:, 0] = radius * np.cos(phi)
    idx[:, 1] = radius * np.sin(phi)
    return phi, idx


def _unit_direction(direction, dim: int | None = None) -> np.ndarray:
    """``direction`` as a finite unit 1-D vector, of length ``dim`` when given."""
    d = np.asarray(direction, dtype=float)
    if d.ndim != 1 or d.size == 0 or not np.all(np.isfinite(d)):
        raise ValueError("direction must be a finite 1-D vector")
    if dim is not None and d.size != dim:
        raise ValueError("direction must match the sample dimension")
    if abs(np.linalg.norm(d) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    return d


def _increasing(values, name: str) -> np.ndarray:
    """``values`` as a finite, non-empty, strictly increasing 1-D array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be a finite 1-D array")
    if arr.size > 1 and np.any(np.diff(arr) <= 0.0):
        raise ValueError(f"{name} must be strictly increasing")
    return arr


@dataclass(frozen=True)
class CirclePath:
    """Indices r (cos phi, sin phi) over a full turn of n_phi equispaced angles."""

    radius: float
    n_phi: int = 64

    def __post_init__(self) -> None:
        self.indices()  # validates radius and n_phi

    def indices(self) -> tuple[np.ndarray, np.ndarray]:
        return _circle_indices(self.radius, self.n_phi)


@dataclass(frozen=True)
class EllipsePath:
    """Indices (r1 cos phi, r2 sin phi) over a full turn of n_phi angles."""

    r1: float
    r2: float
    n_phi: int = 64

    def __post_init__(self) -> None:
        if not (0.0 < self.r1 < 1.0 and 0.0 < self.r2 < 1.0):
            raise ValueError("EllipsePath requires radii in (0, 1)")
        if int(self.n_phi) < 1:
            raise ValueError("EllipsePath requires n_phi >= 1")

    def indices(self) -> tuple[np.ndarray, np.ndarray]:
        phi = 2.0 * np.pi * np.arange(int(self.n_phi)) / int(self.n_phi)
        idx = np.column_stack([self.r1 * np.cos(phi), self.r2 * np.sin(phi)])
        return phi, idx


@dataclass(frozen=True)
class QuarterCirclePath:
    """Indices r (cos phi, sin phi) for phi on [0, pi/2] inclusive."""

    radius: float
    n_phi: int = 8

    def __post_init__(self) -> None:
        if not (0.0 < self.radius < 1.0):
            raise ValueError("QuarterCirclePath requires 0 < radius < 1")
        if int(self.n_phi) < 2:
            raise ValueError("QuarterCirclePath requires n_phi >= 2")

    def indices(self) -> tuple[np.ndarray, np.ndarray]:
        phi = np.linspace(0.0, 0.5 * np.pi, int(self.n_phi))
        idx = self.radius * np.column_stack([np.cos(phi), np.sin(phi)])
        return phi, idx


@dataclass(frozen=True, eq=False)
class RayPath:
    """Indices m * direction for increasing magnitudes m in [0, 1)."""

    direction: np.ndarray
    magnitudes: np.ndarray

    def __post_init__(self) -> None:
        d = _unit_direction(self.direction)
        m = _increasing(self.magnitudes, "magnitudes")
        if m[0] < 0.0 or m[-1] >= 1.0:
            raise ValueError("magnitudes must lie in [0, 1)")
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "magnitudes", m)

    def indices(self) -> tuple[np.ndarray, np.ndarray]:
        return self.magnitudes.copy(), self.magnitudes[:, np.newaxis] * self.direction


IndexPath = Union[CirclePath, EllipsePath, QuarterCirclePath, RayPath]


@dataclass(frozen=True, eq=False)
class Curve:
    """Traced risk-measure curve: parameter grid, points and per-point convergence."""

    params: np.ndarray
    points: np.ndarray
    converged: np.ndarray

    def __post_init__(self) -> None:
        p = _increasing(self.params, "params")
        pts = np.asarray(self.points, dtype=float)
        conv = np.asarray(self.converged, dtype=bool)
        if pts.ndim != 2 or pts.shape[0] != p.size or not np.all(np.isfinite(pts)):
            raise ValueError("points must be a finite (k, d) array matching params")
        if conv.shape != (p.size,):
            raise ValueError("converged must be a boolean array matching params")
        object.__setattr__(self, "params", p)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "converged", conv)

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.converged))


def _trace(sample, indices, measure: str, config: SolverConfig | None):
    """Solve ``measure`` at each row of ``indices`` in order; return (points, converged).

    The first solve starts at ``config.initial_point`` (sample mean when
    None); every later solve starts at the previous minimizer.
    """
    if measure not in _MEASURES:
        raise ValueError(f"measure must be one of {_MEASURES}")
    s = as_sample(sample)
    idx = np.asarray(indices, dtype=float)
    if idx.ndim != 2 or idx.shape[1] != s.shape[1]:
        raise ValueError("path index dimension must match the sample dimension")
    # looked up per call so the module-level solver names stay the entry points
    solver = geometric_expectile if measure == "expectile" else geometric_var
    cfg = config if config is not None else SolverConfig()
    points = np.empty(idx.shape)
    converged = np.empty(idx.shape[0], dtype=bool)
    prev = cfg.initial_point
    for i, alpha in enumerate(idx):
        report = solver(s, alpha, dataclasses.replace(cfg, initial_point=prev))
        points[i] = report.argmin
        converged[i] = report.converged
        prev = report.argmin
    return points, converged


def trace_curve(
    sample, path: IndexPath, measure: str = "expectile", config: SolverConfig | None = None
) -> Curve:
    """Solve the risk measure along ``path``, warm-starting successive solves.

    ``measure`` is ``"expectile"`` or ``"var"``.  The first solve starts
    at ``config.initial_point`` (sample mean when None); every later
    solve starts at the previous minimizer.
    """
    if not isinstance(path, (CirclePath, EllipsePath, QuarterCirclePath, RayPath)):
        raise ValueError(f"unknown path type: {type(path).__name__}")
    params, idx = path.indices()
    points, converged = _trace(sample, idx, measure, config)
    return Curve(params=params, points=points, converged=converged)


def point_in_polygon(point, vertices, boundary_tol: float = 1e-9) -> bool:
    """Even-odd (ray casting) test of ``point`` against a closed polygon.

    ``vertices`` is a (k, 2) array of polygon corners in order; the edge
    from the last vertex back to the first is implicit.  Points within
    ``boundary_tol`` of any edge count as inside.
    """
    p = np.asarray(point, dtype=float)
    v = np.asarray(vertices, dtype=float)
    if p.shape != (2,) or not np.all(np.isfinite(p)):
        raise ValueError("point must be a finite 2-vector")
    if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3 or not np.all(np.isfinite(v)):
        raise ValueError("vertices must be a finite (k, 2) array with k >= 3")
    a = v
    b = np.roll(v, -1, axis=0)
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    tpar = np.einsum("ij,ij->i", p - a, ab) / np.where(denom == 0.0, 1.0, denom)
    nearest = a + np.clip(tpar, 0.0, 1.0)[:, np.newaxis] * ab
    if float(np.min(np.linalg.norm(p - nearest, axis=1))) <= boundary_tol:
        return True
    ya, yb = a[:, 1], b[:, 1]
    crosses = (ya > p[1]) != (yb > p[1])
    dy = np.where(crosses, yb - ya, 1.0)
    x_int = a[:, 0] + (p[1] - ya) / dy * (b[:, 0] - a[:, 0])
    return bool(np.count_nonzero(crosses & (p[0] < x_int)) % 2)


def _parallel_map(fn, items, threads: int):
    items = list(items)
    if int(threads) <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True, eq=False)
class SubadditivityResult:
    """Curves rho(X + Y) and rho(X) + rho(Y); ``included`` is None unless d = 2."""

    curve_sum: Curve
    curve_add: Curve
    included: bool | None


def subadditivity_sets(
    sample_x,
    sample_y,
    r: float,
    measure: str = "expectile",
    n_phi: int = 64,
    config: SolverConfig | None = None,
    threads: int = 1,
) -> SubadditivityResult:
    """Compare the risk set of X + Y against the sum of the X and Y risk sets.

    Traces the measure of ``sample_x + sample_y`` and the pointwise sum
    of the separate traces over the circle of radius ``r``; for d = 2,
    ``included`` reports whether every point of the sum curve lies
    inside the polygon spanned by the added curve.
    """
    sx = as_sample(sample_x)
    sy = as_sample(sample_y)
    if sx.shape != sy.shape:
        raise ValueError("sample_x and sample_y must have identical shapes (paired samples)")
    # circles are planar; for d > 2 trace along the first two axes
    params, idx = _circle_indices(r, n_phi, sx.shape[1])
    traced = _parallel_map(lambda s: _trace(s, idx, measure, config), (sx + sy, sx, sy), threads)
    (sum_pts, sum_ok), (x_pts, x_ok), (y_pts, y_ok) = traced
    curve_sum = Curve(params=params, points=sum_pts, converged=sum_ok)
    curve_add = Curve(params=params, points=x_pts + y_pts, converged=x_ok & y_ok)
    included: bool | None = None
    if sx.shape[1] == 2 and int(n_phi) >= 3:
        included = all(point_in_polygon(pt, curve_add.points) for pt in curve_sum.points)
    return SubadditivityResult(curve_sum=curve_sum, curve_add=curve_add, included=included)


@dataclass(frozen=True)
class ComparisonRow:
    """Geometric vs classical univariate measures of the first component."""

    level: float
    univariate_var: float
    univariate_expectile: float
    geometric_var_first: float
    geometric_expectile_first: float
    converged: bool


def compare_univariate(
    sample, levels, config: SolverConfig | None = None
) -> list[ComparisonRow]:
    """First components of the geometric measures at index (2l - 1, 0) against
    the classical quantile/expectile of the first margin, per level l."""
    s = as_sample(sample)
    if s.shape[1] != 2:
        raise ValueError("comparison requires a bivariate sample")
    lv = np.asarray(levels, dtype=float)
    if lv.ndim != 1 or lv.size == 0 or not np.all((lv > 0.0) & (lv < 1.0)):
        raise ValueError("levels must be a 1-D array with entries in (0, 1)")
    idx = np.column_stack([2.0 * lv - 1.0, np.zeros(lv.size)])
    exp_pts, exp_ok = _trace(s, idx, "expectile", config)
    var_pts, var_ok = _trace(s, idx, "var", config)
    first = s[:, 0]
    return [
        ComparisonRow(
            level=float(level),
            univariate_var=univariate_quantile(first, level),
            univariate_expectile=univariate_expectile(first, level),
            geometric_var_first=float(var_pts[i, 0]),
            geometric_expectile_first=float(exp_pts[i, 0]),
            converged=bool(exp_ok[i] and var_ok[i]),
        )
        for i, level in enumerate(lv)
    ]


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_section(fun, lo: float, hi: float, tol: float):
    """Golden-section minimization recording every evaluation (for diagnostics)."""
    trace: list[tuple[float, float]] = []

    def f(m: float) -> float:
        val = float(fun(m))
        if not np.isfinite(val):
            raise ValueError(f"search objective is not finite at m = {m}")
        trace.append((m, val))
        return val

    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc = f(c)
    fd = f(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi), trace


def match_magnitude(
    sample,
    direction,
    theta: float,
    config: SolverConfig | None = None,
    tol: float = 1e-6,
    return_trace: bool = False,
):
    """Magnitude m* for which the geometric value-at-risk at ``m* direction``
    is closest to the geometric expectile at ``theta * direction``.

    Minimizes the squared distance between the two minimizers by
    golden-section search on m in [0, 0.999]; the evaluation trace is
    returned alongside when ``return_trace`` is True so non-unimodal
    behavior is detectable.
    """
    s = as_sample(sample)
    d = _unit_direction(direction, s.shape[1])
    th = float(theta)
    if not (0.0 <= th < 1.0):
        raise ValueError("theta must lie in [0, 1)")
    cfg = config if config is not None else SolverConfig()
    target = geometric_expectile(s, th * d, cfg).argmin
    state = {"warm": cfg.initial_point, "all_converged": True}

    def gap(m: float) -> float:
        rep = geometric_var(s, m * d, dataclasses.replace(cfg, initial_point=state["warm"]))
        state["warm"] = rep.argmin
        state["all_converged"] = state["all_converged"] and rep.converged
        return float(np.sum((rep.argmin - target) ** 2))

    m_star, trace = _golden_section(gap, 0.0, 0.999, float(tol))
    if return_trace:
        return m_star, trace, bool(state["all_converged"])
    return m_star


@dataclass(frozen=True, eq=False)
class MarginalizationResult:
    """2-D marginal curve vs projections of full-model curves at 7 heights."""

    margin_curve: Curve
    full_curves: tuple[Curve, ...]
    inclusion_i4: bool


def marginalization_curves(
    sample,
    r: float,
    n_phi: int = 64,
    config: SolverConfig | None = None,
    threads: int = 1,
) -> MarginalizationResult:
    """Marginal bivariate expectile curve against slices of the trivariate one.

    For a 3-D sample, traces the expectile curve of the first two
    components at radius ``r`` and, for i = 1..7, the full 3-D expectile
    over indices ``(r cos t, r sin t, z_i)`` with
    ``z_i = (-3/4 + (i-1)/4) sqrt(1 - r^2)`` (projected to the first two
    components).  ``inclusion_i4`` reports whether the marginal curve
    lies inside the polygon of the i = 4 (z = 0) projected curve.
    """
    s = as_sample(sample)
    if s.shape[1] != 3:
        raise ValueError("marginalization requires a trivariate sample")
    phi, planar = _circle_indices(r, n_phi)
    if phi.size < 3:
        raise ValueError("n_phi must be at least 3 (the curve spans a polygon)")
    heights = (np.arange(1, 8) - 4.0) / 4.0 * np.sqrt(1.0 - r * r)

    def trace_height(z: float) -> Curve:
        idx = np.column_stack([planar, np.full(phi.size, z)])
        points, converged = _trace(s, idx, "expectile", config)
        return Curve(params=phi, points=points[:, :2], converged=converged)

    margin_points, margin_converged = _trace(s[:, :2], planar, "expectile", config)
    margin_curve = Curve(params=phi, points=margin_points, converged=margin_converged)
    full_curves = tuple(_parallel_map(trace_height, heights, threads))
    inclusion = all(point_in_polygon(pt, full_curves[3].points) for pt in margin_curve.points)
    return MarginalizationResult(
        margin_curve=margin_curve, full_curves=full_curves, inclusion_i4=inclusion
    )


@dataclass(frozen=True, eq=False)
class DistanceCurve:
    """Distances from the sample mean to expectiles along one direction."""

    radii: np.ndarray
    distances: np.ndarray
    converged: np.ndarray


def distance_curve(sample, direction, r_grid, config: SolverConfig | None = None) -> DistanceCurve:
    """Distance ``||e(r u) - mean||`` as a function of the index magnitude r.

    ``direction`` is a unit vector; ``r_grid`` is strictly increasing in
    [0, 1).  Solves are warm-started along the grid.
    """
    s = as_sample(sample)
    d = _unit_direction(direction, s.shape[1])
    grid = _increasing(r_grid, "r_grid")
    if grid[0] < 0.0 or grid[-1] >= 1.0:
        raise ValueError("r_grid values must lie in [0, 1)")
    points, converged = _trace(s, grid[:, np.newaxis] * d, "expectile", config)
    mean = s.mean(axis=0)
    distances = np.array([np.linalg.norm(point - mean) for point in points])
    return DistanceCurve(radii=grid.copy(), distances=distances, converged=converged)


@dataclass(frozen=True)
class BoundedSupportRow:
    """One stress radius: did the traced curve exit the support box?"""

    r: float
    exits_support: bool
    all_converged: bool


def bounded_support_check(
    count: int,
    r_list=DEFAULT_STRESS_RADII,
    n_phi: int = 64,
    config: SolverConfig | None = None,
    rng: np.random.Generator | None = None,
) -> list[BoundedSupportRow]:
    """Expectile curves of a Clayton(5) copula sample versus its [0,1]^2 support.

    Draws ``count`` bivariate Clayton(theta = 5) copula observations and
    traces the expectile circle curve at every radius in ``r_list``
    (increasing, warm-started across radii).  A row flags whether any
    curve point leaves the support box; for radii near 1 the curve must
    eventually exit, illustrating that geometric expectiles need not
    respect bounded supports.
    """
    if rng is None:
        raise ValueError("an explicit numpy Generator is required for reproducibility")
    if int(count) < 1:
        raise ValueError(f"count (the sample size n) must be at least 1, got {count}")
    radii = _increasing(r_list, "r_list")
    if radii[0] <= 0.0 or radii[-1] >= 1.0:
        raise ValueError("r_list must contain radii strictly between 0 and 1")
    sample = ClaytonCopula(5.0, 2).sample(int(count), rng)
    cfg = config if config is not None else SolverConfig()
    rows: list[BoundedSupportRow] = []
    prev = cfg.initial_point
    for r in radii:
        _, idx = _circle_indices(float(r), n_phi)
        points, converged = _trace(
            sample, idx, "expectile", dataclasses.replace(cfg, initial_point=prev)
        )
        prev = points[0]
        exits = bool(np.any((points < 0.0) | (points > 1.0)))
        rows.append(BoundedSupportRow(float(r), exits, bool(np.all(converged))))
    return rows
