"""Loss kernels for geometric risk measures.

The univariate check and asymmetric-square losses are generalized to d
dimensions by combining the Euclidean norm with an inner product against
an index vector ``u`` from the open unit ball: the direction of ``u``
orients the asymmetry, its magnitude controls how lopsided the loss is,
and ``u = 0`` recovers the symmetric norm losses.  Minimizing the
expected loss over translations of a random vector defines the geometric
value-at-risk (check-type loss) and the geometric expectile
(square-type loss).

All functions are pure.  Point arguments accept a single vector of
length d or a batch of shape (n, d); batched calls return one value (or
one gradient row) per input row.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_index",
    "check_loss",
    "expectile_loss_1d",
    "quantile_loss",
    "quantile_loss_subgrad",
    "expectile_loss",
    "expectile_loss_grad",
    "expectile_score",
    "index_from_level",
]


def as_index(u) -> np.ndarray:
    """Validate and return ``u`` as an index vector.

    An index is a finite 1-D vector lying strictly inside the Euclidean
    unit ball.  The norm constraint is strict: ``||u|| = 1`` is rejected.
    """
    arr = np.asarray(u, dtype=float)
    if arr.ndim == 0:
        arr = arr[np.newaxis]
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("index must be a 1-D vector with at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValueError("index entries must be finite")
    if np.linalg.norm(arr) >= 1.0:
        raise ValueError("index must lie strictly inside the unit ball (||u|| < 1)")
    return arr


def _as_points(t, dim: int) -> tuple[np.ndarray, bool]:
    """Coerce ``t`` to an (n, dim) batch; report whether input was a single point."""
    arr = np.asarray(t, dtype=float)
    if arr.ndim == 0 and dim == 1:
        arr = arr[np.newaxis]
    single = arr.ndim == 1
    if single:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(
            f"point dimension does not match index dimension {dim}: got shape {np.shape(t)}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("points must be finite")
    return arr, single


def _check_level(alpha: float) -> float:
    a = float(alpha)
    if not (0.0 < a < 1.0):
        raise ValueError("level must lie in the open interval (0, 1)")
    return a


# Row formulas of the multivariate losses for an (n, d) batch ``t``.  They do
# no validation: the public kernels below and the estimators' solver
# closures validate first and then share these.

def _quantile_rows(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    return 0.5 * (np.linalg.norm(t, axis=1) + t @ u)


def _quantile_grad_rows(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(t, axis=1)
    # rows with t = 0 divide by 1 instead, leaving exactly 0.5 * u
    safe = np.where(norms == 0.0, 1.0, norms)
    return 0.5 * (t / safe[:, np.newaxis] + u)


def _expectile_rows(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(t, axis=1)
    return 0.5 * norms * (norms + t @ u)


def _expectile_grad_rows(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(t, axis=1)
    # rows with t = 0 divide by 1; both summands vanish there anyway
    safe = np.where(norms == 0.0, 1.0, norms)
    return t * (1.0 + (t @ u) / (2.0 * safe))[:, np.newaxis] + 0.5 * norms[:, np.newaxis] * u


def check_loss(alpha: float, t):
    """Univariate check loss ``|alpha - 1{t <= 0}| |t|``.

    Its expected value over ``X - c`` is minimized by the classical
    alpha-quantile of ``X``.
    """
    a = _check_level(alpha)
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("loss argument must be finite")
    w = np.where(arr <= 0.0, 1.0 - a, a)
    out = w * np.abs(arr)
    return float(out) if arr.ndim == 0 else out


def expectile_loss_1d(alpha: float, t):
    """Univariate asymmetric squared loss ``|alpha - 1{t <= 0}| t^2``.

    Its expected value over ``X - c`` is minimized by the classical
    alpha-expectile of ``X``.
    """
    a = _check_level(alpha)
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("loss argument must be finite")
    w = np.where(arr <= 0.0, 1.0 - a, a)
    out = w * arr * arr
    return float(out) if arr.ndim == 0 else out


def quantile_loss(u, t):
    """Multivariate check loss ``0.5 (||t|| + <u, t>)``.

    Convex and positively homogeneous of order one; nonnegative on the
    whole space because ``||u|| < 1``.  With d = 1 it reduces to the
    univariate check loss at level ``(1 + u) / 2``.
    """
    uu = as_index(u)
    pts, single = _as_points(t, uu.size)
    vals = _quantile_rows(uu, pts)
    return float(vals[0]) if single else vals


def quantile_loss_subgrad(u, t):
    """A subgradient of :func:`quantile_loss` in ``t``.

    Equals the gradient ``0.5 (t / ||t|| + u)`` away from the origin;
    at ``t = 0`` the chosen element of the subdifferential is ``0.5 u``.
    """
    uu = as_index(u)
    pts, single = _as_points(t, uu.size)
    out = _quantile_grad_rows(uu, pts)
    return out[0] if single else out


def expectile_loss(u, t):
    """Multivariate asymmetric squared loss ``0.5 ||t|| (||t|| + <u, t>)``.

    Strictly convex, differentiable everywhere (including the origin),
    nonnegative, and coercive: it dominates
    ``0.5 (1 - ||u||) ||t||^2``.  With d = 1 it reduces to the
    univariate asymmetric squared loss at level ``(1 + u) / 2``.
    """
    uu = as_index(u)
    pts, single = _as_points(t, uu.size)
    vals = _expectile_rows(uu, pts)
    return float(vals[0]) if single else vals


def expectile_loss_grad(u, t):
    """Gradient of :func:`expectile_loss` in ``t``.

    Componentwise ``t_k (1 + <u, t> / (2 ||t||)) + 0.5 ||t|| u_k`` for
    ``t != 0`` and exactly zero at the origin.  Its norm is bounded by
    ``2 ||t|| (1 + ||u||)``.
    """
    uu = as_index(u)
    pts, single = _as_points(t, uu.size)
    out = _expectile_grad_rows(uu, pts)
    return out[0] if single else out


def expectile_score(u, x, y):
    """Score of forecast ``y`` against realization ``x``: ``expectile_loss(u, x - y)``.

    Usable for comparing competing forecasts of a geometric expectile by
    average score.  Positively homogeneous of order two in ``(x, y)``.
    """
    uu = as_index(u)
    px, sx = _as_points(x, uu.size)
    py, sy = _as_points(y, uu.size)
    if px.shape[0] != py.shape[0] and min(px.shape[0], py.shape[0]) != 1:
        raise ValueError("x and y batches must have equal length or length one")
    vals = _expectile_rows(uu, px - py)
    return float(vals[0]) if sx and sy else vals


def index_from_level(level):
    """Map a classical confidence level in (0, 1) to a scalar index in (-1, 1).

    ``level = 0.5`` maps to 0 (the symmetric case), ``level = 0.99`` to
    0.98.  Univariate reductions of the multivariate losses at scalar
    index ``u`` correspond to classical level ``(1 + u) / 2``; this is
    the inverse of that correspondence.
    """
    arr = np.asarray(level, dtype=float)
    if not np.all(np.isfinite(arr)) or not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("level must lie in the open interval (0, 1)")
    out = 2.0 * arr - 1.0
    return float(out) if arr.ndim == 0 else out
