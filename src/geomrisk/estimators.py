"""Empirical geometric expectiles and geometric value-at-risk.

Both estimators minimize an empirical expected loss
``(1/n) sum_i L_u(x_i - c)`` over the location ``c``; the loss is the
asymmetric squared-norm kernel for expectiles and the check-type kernel
for value-at-risk.  Minimization uses a damped quasi-Newton iteration
(inverse-Hessian secant updates with Armijo backtracking) that falls
back to steepest descent whenever the secant direction fails to be a
descent direction, which makes it safe on the nonsmooth value-at-risk
objective as well.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .losses import (
    _expectile_grad_rows,
    _expectile_rows,
    _quantile_grad_rows,
    _quantile_rows,
    as_index,
)

__all__ = [
    "SolverConfig",
    "SolveReport",
    "as_sample",
    "minimize_convex",
    "empirical_objective",
    "empirical_objective_grad",
    "geometric_expectile",
    "geometric_var",
    "univariate_expectile",
    "univariate_quantile",
]

_ARMIJO = 1e-4
_STEP_FLOOR = 1e-14
_KINDS = ("expectile", "quantile")


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for :func:`minimize_convex`.

    ``grad_tolerance`` is relative: the iteration stops once
    ``||grad|| <= grad_tolerance * (1 + |objective|)``.
    :func:`minimize_convex` starts at ``initial_point`` when it is set,
    and at its ``x0`` argument otherwise (the sample mean for the
    estimators).
    """

    grad_tolerance: float = 1e-8
    max_iterations: int = 500
    initial_point: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not (self.grad_tolerance > 0.0 and np.isfinite(self.grad_tolerance)):
            raise ValueError("grad_tolerance must be a positive finite number")
        if int(self.max_iterations) < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a convex minimization.

    ``converged`` is True exactly when the final gradient satisfied the
    relative tolerance; ``note`` carries a warning string (for instance
    when a quantile minimizer may be non-unique) and is None otherwise.
    """

    argmin: np.ndarray
    objective: float
    grad_norm: float
    iterations: int
    converged: bool
    note: str | None = None


def as_sample(s) -> np.ndarray:
    """Validate ``s`` as a sample: a finite (n, d) array with n >= 1."""
    arr = np.asarray(s, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("sample must be a 2-D array of shape (n, d); reshape 1-D data to (n, 1)")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample entries must be finite")
    return arr


def minimize_convex(fun, grad, x0, config: SolverConfig | None = None) -> SolveReport:
    """Minimize a convex function with damped quasi-Newton iterations.

    ``fun`` maps a d-vector to a float, ``grad`` to a d-vector (a
    subgradient suffices almost everywhere).  Line search is Armijo
    backtracking with halving; steps below 1e-14 stop the iteration as
    stagnation.  The objective never increases across accepted steps.
    The iteration starts at ``config.initial_point`` when it is set (a
    finite vector of the shape of ``x0``) and at ``x0`` otherwise.
    """
    cfg = config if config is not None else SolverConfig()
    x = np.array(x0, dtype=float)
    if cfg.initial_point is not None:
        start = np.array(cfg.initial_point, dtype=float)
        if start.shape != x.shape or not np.all(np.isfinite(start)):
            raise ValueError("initial_point must be a finite vector matching the problem dimension")
        x = start
    f = float(fun(x))
    g = np.asarray(grad(x), dtype=float)
    dim = x.size
    h_inv = None
    iterations = 0
    for _ in range(int(cfg.max_iterations)):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= cfg.grad_tolerance * (1.0 + abs(f)):
            break
        p = -g if h_inv is None else -(h_inv @ g)
        slope = float(g @ p)
        if slope >= 0.0:
            # secant model broke down: restart from steepest descent
            h_inv = None
            p = -g
            slope = -gnorm * gnorm
        step = 1.0
        x_new = x
        f_new = f
        while step >= _STEP_FLOOR:
            x_new = x + step * p
            f_new = float(fun(x_new))
            if f_new <= f + _ARMIJO * step * slope:
                break
            step *= 0.5
        if step < _STEP_FLOOR:
            break  # stagnation: no measurable descent left
        g_new = np.asarray(grad(x_new), dtype=float)
        assert f_new <= f + 1e-12 * (1.0 + abs(f))
        s_vec = x_new - x
        y_vec = g_new - g
        sy = float(s_vec @ y_vec)
        if sy > 1e-12 * float(np.linalg.norm(s_vec)) * float(np.linalg.norm(y_vec)):
            if h_inv is None:
                # scale the initial inverse Hessian to the secant pair
                h_inv = (sy / float(y_vec @ y_vec)) * np.eye(dim)
            rho = 1.0 / sy
            hy = h_inv @ y_vec
            h_inv = (
                h_inv
                - rho * np.outer(s_vec, hy)
                - rho * np.outer(hy, s_vec)
                + (rho * rho * float(y_vec @ hy) + rho) * np.outer(s_vec, s_vec)
            )
        else:
            h_inv = None  # curvature unusable (kink crossed)
        x, f, g = x_new, f_new, g_new
        iterations += 1
    gnorm = float(np.linalg.norm(g))
    converged = bool(gnorm <= cfg.grad_tolerance * (1.0 + abs(f)))
    return SolveReport(
        argmin=x,
        objective=f,
        grad_norm=gnorm,
        iterations=iterations,
        converged=converged,
    )


def _objective_closures(sample: np.ndarray, u: np.ndarray, kind: str):
    """Build fast objective/gradient closures over a prevalidated sample."""
    if kind == "expectile":
        rows, grad_rows = _expectile_rows, _expectile_grad_rows
    else:
        rows, grad_rows = _quantile_rows, _quantile_grad_rows

    def fun(c):
        return float(np.mean(rows(u, sample - c)))

    def grad(c):
        return -grad_rows(u, sample - c).mean(axis=0)

    return fun, grad


def _validated_closures(sample, u, c, kind: str):
    """Validate the public objective arguments; return (fun, grad, location)."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}")
    s = as_sample(sample)
    uu = as_index(u)
    cc = np.asarray(c, dtype=float)
    if cc.shape != (s.shape[1],) or uu.size != s.shape[1]:
        raise ValueError("sample, index and location dimensions must agree")
    if not np.all(np.isfinite(cc)):
        raise ValueError("location must be finite")
    fun, grad = _objective_closures(s, uu, kind)
    return fun, grad, cc


def empirical_objective(sample, u, c, kind: str = "expectile") -> float:
    """Mean loss ``(1/n) sum_i L_u(x_i - c)`` of a candidate location ``c``."""
    fun, _, cc = _validated_closures(sample, u, c, kind)
    return fun(cc)


def empirical_objective_grad(sample, u, c, kind: str = "expectile") -> np.ndarray:
    """Gradient (subgradient for ``kind='quantile'``) of :func:`empirical_objective` in ``c``."""
    _, grad, cc = _validated_closures(sample, u, c, kind)
    return grad(cc)


def _solve(sample, alpha, config, kind: str) -> SolveReport:
    s = as_sample(sample)
    u = as_index(alpha)
    if u.size != s.shape[1]:
        raise ValueError("index dimension must match the sample dimension")
    if np.all(s == s[0]):
        # all observations identical: the minimizer is that point, loss zero
        return SolveReport(
            argmin=s[0].copy(),
            objective=0.0,
            grad_norm=0.0,
            iterations=0,
            converged=True,
        )
    fun, grad = _objective_closures(s, u, kind)
    # a set initial_point overrides x0, whose shape alone then matters; the
    # sample mean costs about half a kernel pass, so warm starts skip it
    cold = config is None or config.initial_point is None
    x0 = s.mean(axis=0) if cold else np.zeros(s.shape[1])
    report = minimize_convex(fun, grad, x0, config)
    if kind == "quantile" and s.shape[1] >= 2 and _collinear(s):
        report = dataclasses.replace(report, note="degenerate_possible")
    return report


def _collinear(sample: np.ndarray) -> bool:
    """True when all observations lie on one line (minimizer may be non-unique)."""
    if sample.shape[0] <= 2:
        return True
    centered = sample - sample.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    return bool(svals[1] <= 1e-12 * max(svals[0], 1.0))


def geometric_expectile(sample, alpha, config: SolverConfig | None = None) -> SolveReport:
    """Geometric expectile of an empirical sample at index ``alpha``.

    The unique minimizer of the empirical asymmetric squared-norm loss.
    At ``alpha = 0`` it equals the sample mean; it is equivariant under
    translation, positive scaling and rotation (with the index rotated
    alongside).
    """
    return _solve(sample, alpha, config, "expectile")


def geometric_var(sample, alpha, config: SolverConfig | None = None) -> SolveReport:
    """Geometric value-at-risk (geometric quantile) of a sample at index ``alpha``.

    Minimizes the empirical check-type loss.  At ``alpha = 0`` this is
    the spatial median.  For d >= 2 the minimizer is unique unless all
    observations are collinear, in which case the report carries
    ``note='degenerate_possible'``; for d = 1 flat regions of the
    objective mean any point of the interval minimizer may be returned.
    """
    return _solve(sample, alpha, config, "quantile")


def _as_univariate(sample) -> np.ndarray:
    arr = np.asarray(sample, dtype=float)
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("univariate sample must be a 1-D array with n >= 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample entries must be finite")
    return arr


def univariate_expectile(sample, alpha: float) -> float:
    """Classical alpha-expectile of a 1-D sample by bisection on the FOC.

    The first-order condition
    ``G(e) = alpha sum (x_i - e)^+ - (1 - alpha) sum (e - x_i)^+``
    is strictly decreasing with a root in [min x, max x]; bisection runs
    to an interval width of 1e-12.
    """
    x = _as_univariate(sample)
    a = float(alpha)
    if not (0.0 < a < 1.0):
        raise ValueError("alpha must lie in the open interval (0, 1)")
    lo = float(x.min())
    hi = float(x.max())
    if lo == hi:
        return lo

    def foc(e: float) -> float:
        return a * float(np.maximum(x - e, 0.0).sum()) - (1.0 - a) * float(
            np.maximum(e - x, 0.0).sum()
        )

    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if foc(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def univariate_quantile(sample, alpha: float) -> float:
    """Classical alpha-quantile of a 1-D sample, lower-endpoint convention.

    Returns ``inf { x : F_n(x) >= alpha }``, i.e. the k-th smallest
    observation with ``k = ceil(n * alpha)``.  This is the left endpoint
    of the set minimizing the empirical check loss.
    """
    x = np.sort(_as_univariate(sample))
    a = float(alpha)
    if not (0.0 < a < 1.0):
        raise ValueError("alpha must lie in the open interval (0, 1)")
    n = x.size
    # the 1e-12 slack keeps n*alpha values that are integers up to fp noise exact
    k = int(np.ceil(n * a - 1e-12))
    k = min(max(k, 1), n)
    return float(x[k - 1])
