"""Closed-form expected loss for a bivariate uniform distribution.

For U uniform on an axis-aligned box, the expected asymmetric
squared-norm loss of a candidate location has an exact antiderivative
representation, so the population geometric expectile can be computed
without sampling and serve as an oracle for the empirical estimator.

The building blocks are two primitives of the Euclidean norm:
``norm_primitive(x, y)`` integrates ``sqrt(x^2 + y^2)`` in y, and
``weighted_norm_primitive(x, y)`` integrates ``x * norm_primitive`` in
x.  Both carry the convention that their ``x^2 log(...)`` and
``x^4 log(...)`` terms vanish at x = 0, which keeps them continuous
where the logarithm degenerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .estimators import SolveReport, SolverConfig, minimize_convex
from .losses import as_index

__all__ = [
    "UniformBox",
    "norm_primitive",
    "weighted_norm_primitive",
    "expected_squared_distance",
    "expected_distance_times_dev1",
    "expected_distance_times_dev2",
    "uniform_expected_loss",
    "uniform_expectile",
]


@dataclass(frozen=True)
class UniformBox:
    """Axis-aligned rectangle [a1, b1] x [a2, b2] with positive area."""

    a1: float
    b1: float
    a2: float
    b2: float

    def __post_init__(self) -> None:
        vals = (self.a1, self.b1, self.a2, self.b2)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("box corners must be finite")
        if not (self.b1 > self.a1 and self.b2 > self.a2):
            raise ValueError("box requires b1 > a1 and b2 > a2")

    @property
    def midpoint(self) -> np.ndarray:
        return np.array([0.5 * (self.a1 + self.b1), 0.5 * (self.a2 + self.b2)])

    @property
    def area(self) -> float:
        return (self.b1 - self.a1) * (self.b2 - self.a2)


def _log_term(x: np.ndarray, y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """log(y + sqrt(x^2+y^2)) masked to 0 where x == 0 (convention)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(y + r)
    return np.where(x == 0.0, 0.0, out)


def norm_primitive(x, y):
    """Antiderivative in y of sqrt(x^2 + y^2).

    Equals ``(y sqrt(x^2+y^2) + x^2 log(y + sqrt(x^2+y^2))) / 2`` with
    the log term taken as 0 at x = 0.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    r = np.hypot(xa, ya)
    out = 0.5 * (ya * r + xa * xa * _log_term(xa, ya, r))
    return float(out) if out.ndim == 0 else out


def weighted_norm_primitive(x, y):
    """Antiderivative in x of ``x * norm_primitive(x, y)``.

    Equals ``(-3x^4 + 20x^2 y r + y^3(3y + 8r) + 12x^4 log(y + r)) / 96``
    with ``r = sqrt(x^2 + y^2)`` and the log term taken as 0 at x = 0.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    r = np.hypot(xa, ya)
    x2 = xa * xa
    x4 = x2 * x2
    out = (
        -3.0 * x4
        + 20.0 * x2 * ya * r
        + ya**3 * (3.0 * ya + 8.0 * r)
        + 12.0 * x4 * _log_term(xa, ya, r)
    ) / 96.0
    return float(out) if out.ndim == 0 else out


def _box_index(alpha) -> np.ndarray:
    u = as_index(alpha)
    if u.size != 2:
        raise ValueError("index must be 2-dimensional for a bivariate box")
    return u


def _check_location(c) -> np.ndarray:
    cc = np.asarray(c, dtype=float)
    if cc.shape != (2,) or not np.all(np.isfinite(cc)):
        raise ValueError("location must be a finite 2-vector")
    return cc


def expected_squared_distance(box: UniformBox, c) -> float:
    """E ||U - c||^2 for U uniform on ``box`` (exact polynomial)."""
    cc = _check_location(c)
    w1 = (box.b1 - cc[0]) ** 3 - (box.a1 - cc[0]) ** 3
    w2 = (box.b2 - cc[1]) ** 3 - (box.a2 - cc[1]) ** 3
    return ((box.b2 - box.a2) * w1 + (box.b1 - box.a1) * w2) / (3.0 * box.area)


def _corner_combination(box: UniformBox, c: np.ndarray, prim) -> float:
    """Inclusion-exclusion of ``prim`` over the corners of ``box`` shifted by -c,
    divided by the area: the box mean of its mixed second derivative."""
    xb, xa = box.b1 - c[0], box.a1 - c[0]
    yb, ya = box.b2 - c[1], box.a2 - c[1]
    total = prim(xb, yb) - prim(xa, yb) - prim(xb, ya) + prim(xa, ya)
    return float(total) / box.area


def expected_distance_times_dev1(box: UniformBox, c) -> float:
    """E [ ||U - c|| (U_1 - c_1) ] for U uniform on ``box``."""
    cc = _check_location(c)
    return _corner_combination(box, cc, weighted_norm_primitive)


def expected_distance_times_dev2(box: UniformBox, c) -> float:
    """E [ ||U - c|| (U_2 - c_2) ] for U uniform on ``box``."""
    cc = _check_location(c)
    return _corner_combination(box, cc, lambda x, y: weighted_norm_primitive(y, x))


def uniform_expected_loss(box: UniformBox, alpha, c) -> float:
    """Population expected asymmetric squared-norm loss at location ``c``.

    Equals ``E||U-c||^2 / 2 + alpha_1 E[||U-c||(U_1-c_1)] / 2
    + alpha_2 E[||U-c||(U_2-c_2)] / 2``; strictly convex in ``c``.
    """
    u = _box_index(alpha)
    cc = _check_location(c)
    return (
        0.5 * expected_squared_distance(box, cc)
        + 0.5 * u[0] * expected_distance_times_dev1(box, cc)
        + 0.5 * u[1] * expected_distance_times_dev2(box, cc)
    )


def _uniform_loss_grad(box: UniformBox, u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Exact gradient in ``c`` of :func:`uniform_expected_loss`.

    With ``W = weighted_norm_primitive`` and ``P = norm_primitive``,
    ``dW/dx = x P(x, y)`` and ``dW/dy = r^3 / 3 + y^3 / 8``, whose ``y^3``
    term cancels in the corner combination; the swapped W mirrors both.
    """
    cross = _corner_combination(box, c, lambda x, y: np.hypot(x, y) ** 3 / 3.0)
    dev1 = _corner_combination(box, c, lambda x, y: x * norm_primitive(x, y))
    dev2 = _corner_combination(box, c, lambda x, y: y * norm_primitive(y, x))
    dev = np.array([u[0] * dev1 + u[1] * cross, u[0] * cross + u[1] * dev2])
    return c - box.midpoint - 0.5 * dev


def uniform_expectile(box: UniformBox, alpha, config: SolverConfig | None = None) -> SolveReport:
    """Population geometric expectile of the uniform distribution on ``box``.

    Minimizes :func:`uniform_expected_loss` with the same quasi-Newton
    iteration used by the empirical estimators, using its exact gradient
    from the same primitives, starting at the box midpoint.
    """
    u = _box_index(alpha)
    fun = partial(uniform_expected_loss, box, u)
    return minimize_convex(fun, partial(_uniform_loss_grad, box, u), box.midpoint, config)
