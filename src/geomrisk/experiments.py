"""Experiment harness: index paths, traced curves and inclusion/monotonicity checks.

A curve is the image of a one-parameter family of index vectors under a
geometric risk measure of one fixed sample.  Adjacent indices have
nearby minimizers on a smooth curve, so every experiment traces its
indices through one predictor-corrector engine, ``_trace``, whose solves
hand their minimizers and curvature on as
:class:`~geomrisk.estimators._Curvature` says.  Each distinct sample is
prepared once (validated, copied into the solver's column block, with its
mean and rank tests; see :mod:`geomrisk.estimators`) and shared by every
solve on it.  On top of curve tracing this module builds the standard
checks: subadditivity region inclusion, univariate comparison,
expectile/value-at-risk magnitude matching, marginalization inclusion,
distance-from-mean profiles and the bounded-support stress test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .estimators import (
    SolverConfig,
    _prepare,
    geometric_expectile,
    geometric_var,
    univariate_expectile,
    univariate_quantile,
)
from .losses import index_from_level

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


def _check_path(radii, n_phi: int, min_phi: int = 1) -> None:
    """Every path radius lies in (0, 1) and a path has at least ``min_phi`` angles."""
    if not all(0.0 < r < 1.0 for r in radii):
        raise ValueError("radius must lie in (0, 1)")
    if int(n_phi) < min_phi:
        raise ValueError(f"n_phi must be at least {min_phi}")


def _unit_direction(direction) -> np.ndarray:
    """``direction`` (finite, nonzero, 1-D) scaled to unit length; ``_solve`` checks its size."""
    d = np.asarray(direction, dtype=float)
    if d.ndim != 1 or not np.all(np.isfinite(d)) or not np.any(d):
        raise ValueError("direction must be a finite nonzero vector")
    largest = np.abs(d).max()
    if not 1e-150 < largest < 1e150:
        d = d / largest  # so that the squared norm neither overflows nor loses digits
    return d / np.linalg.norm(d)


def _increasing(values, name: str) -> np.ndarray:
    """``values`` as a finite, non-empty, strictly increasing 1-D array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be a finite 1-D array")
    if arr.size > 1 and np.any(np.diff(arr) <= 0.0):
        raise ValueError(f"{name} must be strictly increasing")
    return arr


def _arc(phi: np.ndarray, r1: float, r2: float) -> tuple[np.ndarray, np.ndarray]:
    """The angles ``phi`` and the indices ``(r1 cos phi, r2 sin phi)``: every arc path's rule."""
    return phi, np.column_stack([r1 * np.cos(phi), r2 * np.sin(phi)])


@dataclass(frozen=True)
class CirclePath:
    """Indices r (cos phi, sin phi) over a full turn of n_phi equispaced angles."""

    radius: float
    n_phi: int = 64

    def __post_init__(self) -> None:
        _check_path((self.radius,), self.n_phi)

    def indices(self) -> tuple[np.ndarray, np.ndarray]:
        return EllipsePath(self.radius, self.radius, self.n_phi).indices()


@dataclass(frozen=True)
class EllipsePath:
    """Indices (r1 cos phi, r2 sin phi) over a full turn of n_phi angles."""

    r1: float
    r2: float
    n_phi: int = 64

    def __post_init__(self) -> None:
        _check_path((self.r1, self.r2), self.n_phi)

    def indices(self) -> tuple[np.ndarray, np.ndarray]:
        phi = 2.0 * np.pi * np.arange(int(self.n_phi)) / int(self.n_phi)
        return _arc(phi, self.r1, self.r2)


@dataclass(frozen=True)
class QuarterCirclePath:
    """Indices r (cos phi, sin phi) for phi on [0, pi/2] inclusive."""

    radius: float
    n_phi: int = 8

    def __post_init__(self) -> None:
        _check_path((self.radius,), self.n_phi, min_phi=2)

    def indices(self) -> tuple[np.ndarray, np.ndarray]:
        return _arc(np.linspace(0.0, 0.5 * np.pi, int(self.n_phi)), self.radius, self.radius)


@dataclass(frozen=True, eq=False)
class RayPath:
    """Indices m * direction (scaled to unit length) for increasing magnitudes m in [0, 1)."""

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

    A predictor-corrector continuation.  ``sample`` is prepared once (or
    passed in already prepared) and every solve of the path runs on one
    view of it (:meth:`~geomrisk.estimators._Prepared.on_path`), whose
    :class:`~geomrisk.estimators._Curvature` sets each solve's start.
    """
    if measure not in _MEASURES:
        raise ValueError(f"measure must be one of {_MEASURES}")
    s = _prepare(sample).on_path()
    idx = np.asarray(indices, dtype=float)
    # looked up per call so the module-level solver names stay the entry points
    solver = geometric_expectile if measure == "expectile" else geometric_var
    points = np.empty(idx.shape)
    converged = np.empty(idx.shape[0], dtype=bool)
    for i, alpha in enumerate(idx):
        report = solver(s, alpha, config)
        points[i] = report.argmin
        converged[i] = report.converged
    return points, converged


def trace_curve(
    sample, path: IndexPath, measure: str = "expectile", config: SolverConfig | None = None
) -> Curve:
    """Solve the risk measure along ``path`` by predictor-corrector continuation.

    ``measure`` is ``"expectile"`` or ``"var"``.  The path is one traced
    path of ``_trace``; its points agree with cold solves to the solver's
    tolerance.
    """
    if not isinstance(path, IndexPath):
        raise ValueError(f"unknown path type: {type(path).__name__}")
    params, idx = path.indices()
    points, converged = _trace(sample, idx, measure, config)
    return Curve(params=params, points=points, converged=converged)


_BOUNDARY_TOL = 1e-9  # edge distance still inside, per unit of the polygon's size


def point_in_polygon(point, vertices) -> bool | np.ndarray:
    """Even-odd (ray casting) test of ``point`` against a closed polygon.

    ``point`` is a 2-vector (a ``bool`` verdict) or a (m, 2) batch (a (m,)
    boolean array), as in the ``losses`` kernels.  ``vertices`` is a (k, 2)
    array of polygon corners in order; the edge from the last vertex back
    to the first is implicit.  A point whose distance to an edge is at most
    ``_BOUNDARY_TOL`` (1e-9, a module constant: no caller needs another
    band) times the diagonal of the vertices' bounding box counts as
    inside, so the verdict does not change when point and polygon are
    scaled together.
    """
    p = np.asarray(point, dtype=float)
    v = np.asarray(vertices, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != 2 or not np.all(np.isfinite(p)):
        raise ValueError("point must be a finite 2-vector")
    if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3 or not np.all(np.isfinite(v)):
        raise ValueError("vertices must be a finite (k, 2) array with k >= 3")
    a, b = v, np.roll(v, -1, axis=0)  # edge i runs from a[i] to b[i]
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    pts = np.atleast_2d(p)[:, np.newaxis, :]  # (m, 1, 2): every point against every edge
    tpar = np.einsum("mki,ki->mk", pts - a, ab) / np.where(denom == 0.0, 1.0, denom)
    nearest = a + np.clip(tpar, 0.0, 1.0)[..., np.newaxis] * ab
    band = _BOUNDARY_TOL * math.hypot(*np.ptp(v, axis=0))
    on_edge = np.min(np.linalg.norm(pts - nearest, axis=2), axis=1) <= band
    px, py = pts[..., 0], pts[..., 1]
    ya, yb = a[:, 1], b[:, 1]
    crosses = (ya > py) != (yb > py)
    dy = np.where(crosses, yb - ya, 1.0)
    x_int = a[:, 0] + (py - ya) / dy * (b[:, 0] - a[:, 0])
    inside = on_edge | (np.count_nonzero(crosses & (px < x_int), axis=1) % 2 == 1)
    return bool(inside[0]) if p.ndim == 1 else inside


@dataclass(frozen=True, eq=False)
class SubadditivityResult:
    """Curves rho(X + Y) and rho(X) + rho(Y) of bivariate X and Y; ``included`` is a bool."""

    curve_sum: Curve
    curve_add: Curve
    included: bool


def subadditivity_sets(
    sample_x,
    sample_y,
    r: float,
    measure: str = "expectile",
    n_phi: int = 64,
    config: SolverConfig | None = None,
) -> SubadditivityResult:
    """Compare the risk set of X + Y against the sum of the X and Y risk sets.

    Traces the measure of ``sample_x + sample_y`` and the pointwise sum of
    the separate traces over the circle of radius ``r``; ``included``
    reports whether every point of the sum curve lies inside the polygon
    spanned by the added curve.  X and Y are paired bivariate samples: any
    other dimension, or n_phi < 3, is rejected before any solve.
    """
    sx = _prepare(sample_x)
    sy = _prepare(sample_y)
    if sx.shape != sy.shape:
        raise ValueError("sample_x and sample_y must have identical shapes (paired samples)")
    if sx.shape[1] != 2:
        raise ValueError("subadditivity requires bivariate samples")
    _check_path((r,), n_phi, min_phi=3)  # the inclusion test needs a polygon
    params, idx = CirclePath(r, n_phi).indices()
    sum_pts, sum_ok = _trace(sx.rows + sy.rows, idx, measure, config)
    x_pts, x_ok = _trace(sx, idx, measure, config)
    y_pts, y_ok = _trace(sy, idx, measure, config)
    curve_sum = Curve(params=params, points=sum_pts, converged=sum_ok)
    curve_add = Curve(params=params, points=x_pts + y_pts, converged=x_ok & y_ok)
    included = bool(point_in_polygon(curve_sum.points, curve_add.points).all())
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
    s = _prepare(sample)
    if s.shape[1] != 2:
        raise ValueError("comparison requires a bivariate sample")
    lv = np.asarray(levels, dtype=float)
    if lv.ndim != 1 or lv.size == 0:
        raise ValueError("levels must be a non-empty 1-D array")
    idx = np.column_stack([index_from_level(lv), np.zeros(lv.size)])
    exp_pts, exp_ok = _trace(s, idx, "expectile", config)
    var_pts, var_ok = _trace(s, idx, "var", config)
    first = s.rows[:, 0]
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
    # c < d fails once the bracket is down to rounding, whatever ``tol`` is
    while hi - lo > tol and c < d:
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
) -> tuple[float, list[tuple[float, float]], bool]:
    """Magnitude m* for which the geometric value-at-risk at ``m* direction``
    is closest to the geometric expectile at ``theta * direction``.

    ``direction`` is any finite nonzero vector; it is scaled to unit length.
    Minimizes the squared distance between the two minimizers by
    golden-section search on m in [0, 0.999].  Returns ``(m_star, trace,
    converged)``: the trace lists every evaluated ``(m, gap)`` so
    non-unimodal behavior is detectable, and ``converged`` is True when
    every solve (the expectile and each value-at-risk) converged.  m* is
    only as precise as the value-at-risk solves, to about
    ``sqrt(grad_tolerance)`` (the gap is quadratic in m near m*), so the
    search stops at a bracket two orders below that,
    ``sqrt(grad_tolerance) / 100``.  Its value-at-risk solves are one
    traced path (see ``_trace``).
    """
    s = _prepare(sample)
    d = _unit_direction(direction)
    th = float(theta)
    if not (0.0 <= th < 1.0):
        raise ValueError("theta must lie in [0, 1)")
    expectile = geometric_expectile(s, th * d, config)
    path = s.on_path()
    reports = []

    def gap(m: float) -> float:
        reports.append(geometric_var(path, m * d, config))
        return float(np.sum((reports[-1].argmin - expectile.argmin) ** 2))

    tol = (config or SolverConfig()).grad_tolerance
    m_star, trace = _golden_section(gap, 0.0, 0.999, math.sqrt(tol) / 100.0)
    return m_star, trace, all(rep.converged for rep in [expectile, *reports])


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
) -> MarginalizationResult:
    """Marginal bivariate expectile curve against slices of the trivariate one.

    For a 3-D sample, traces the expectile curve of the first two
    components at radius ``r`` and, for i = 1..7, the full 3-D expectile
    over indices ``(r cos t, r sin t, z_i)`` with
    ``z_i = (-3/4 + (i-1)/4) sqrt(1 - r^2)`` (projected to the first two
    components).  ``inclusion_i4`` reports whether the marginal curve
    lies inside the polygon of the i = 4 (z = 0) projected curve.
    """
    s = _prepare(sample)
    if s.shape[1] != 3:
        raise ValueError("marginalization requires a trivariate sample")
    _check_path((r,), n_phi, min_phi=3)  # the inclusion test needs a polygon
    phi, planar = CirclePath(r, n_phi).indices()
    heights = (np.arange(1, 8) - 4.0) / 4.0 * np.sqrt(1.0 - r * r)

    def trace_height(z: float) -> Curve:
        idx = np.column_stack([planar, np.full(phi.size, z)])
        points, converged = _trace(s, idx, "expectile", config)
        return Curve(params=phi, points=points[:, :2], converged=converged)

    margin_points, margin_converged = _trace(s.rows[:, :2], planar, "expectile", config)
    margin_curve = Curve(params=phi, points=margin_points, converged=margin_converged)
    full_curves = tuple(trace_height(z) for z in heights)
    inclusion = bool(point_in_polygon(margin_curve.points, full_curves[3].points).all())
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

    ``direction`` is any finite nonzero vector, scaled to unit length;
    ``r_grid`` is strictly increasing in [0, 1).  The grid is traced as one
    path (see :func:`trace_curve`).
    """
    s = _prepare(sample)
    radii, idx = RayPath(direction, r_grid).indices()
    points, converged = _trace(s, idx, "expectile", config)
    # from the cold start itself, so that r = 0 reads exactly 0
    distances = np.array([np.linalg.norm(point - s.mean) for point in points])
    return DistanceCurve(radii=radii, distances=distances, converged=converged)


@dataclass(frozen=True)
class BoundedSupportRow:
    """One stress radius: did the traced curve exit the support box?"""

    r: float
    exits_support: bool
    all_converged: bool


def bounded_support_check(
    sample,
    r_list=DEFAULT_STRESS_RADII,
    n_phi: int = 64,
    config: SolverConfig | None = None,
) -> list[BoundedSupportRow]:
    """Expectile curves of a bivariate sample on [0,1]^2 versus that support.

    ``sample`` is an (n, 2) sample whose rows lie in [0, 1]^2, such as the
    paper's Clayton(theta = 5) copula sample.  Traces the expectile circle
    curve at every radius in ``r_list`` (increasing).  Each radius's circle
    is one traced path (see ``_trace``).  A row flags whether any curve
    point leaves the support box; for radii near 1 the curve must
    eventually exit, illustrating that geometric expectiles need not
    respect bounded supports.
    """
    sample = _prepare(sample)
    if sample.shape[1] != 2 or np.any((sample.rows < 0.0) | (sample.rows > 1.0)):
        raise ValueError("sample must be bivariate with rows in [0, 1]^2")
    radii = _increasing(r_list, "r_list")
    _check_path(radii, n_phi)
    rows: list[BoundedSupportRow] = []
    for r in radii:
        _, idx = CirclePath(float(r), n_phi).indices()
        points, converged = _trace(sample, idx, "expectile", config)
        exits = bool(np.any((points < 0.0) | (points > 1.0)))
        rows.append(BoundedSupportRow(float(r), exits, bool(np.all(converged))))
    return rows
