"""Loss kernels for geometric risk measures.

The univariate check and asymmetric-square losses are generalized to d
dimensions by combining the Euclidean norm with an inner product against
an index vector ``u`` from the open unit ball: the direction of ``u``
orients the asymmetry, its magnitude controls how lopsided the loss is,
and ``u = 0`` recovers the symmetric norm losses.  Minimizing the
expected loss over translations of a random vector defines the geometric
value-at-risk (check-type loss) and the geometric expectile
(square-type loss).

All public functions are pure.  Point arguments accept a single vector of
length d or a batch of shape (n, d); batched calls return one value (or
one gradient row) per input row.
"""

from __future__ import annotations

import math

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


def _norm(v: np.ndarray) -> float:
    # what np.linalg.norm computes for a 1-D vector, without its call overhead
    return math.sqrt(float(v.dot(v)))


def _nonzero(norms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``norms`` with 1 in place of 0: the one statement of the t = 0 rule.

    Every gradient formula divides by it, so a row at (or, by underflow,
    next to) the origin has check-type subgradient ``0.5 u`` and squared-type
    gradient 0; a floor at the tiniest float would give it ~1e137 instead.
    Without a zero it is ``norms`` itself, and no copy is made; else a
    copy, into ``out`` when given.
    """
    if norms.all():
        return norms
    out = np.empty_like(norms) if out is None else out
    np.copyto(out, norms)
    out[norms == 0.0] = 1.0
    return out


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
    if not np.isfinite(arr).all():
        raise ValueError("index entries must be finite")
    if _norm(arr) >= 1.0:
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


def _check_level(level):
    """``level`` as a float (or float array) whose entries lie in (0, 1).

    The one statement of the rule for classical levels; NaN fails it.
    """
    arr = np.asarray(level, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("level must lie in the open interval (0, 1)")
    return float(arr) if arr.ndim == 0 else arr


# Row formulas of the multivariate losses for an (n, d) batch ``t``.  They do
# no validation: the public kernels below and empirical_objective(_grad)
# validate first and then share these; the solver reads the column-block ones.

def _quantile_rows(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    return 0.5 * (np.linalg.norm(t, axis=1) + t @ u)


def _quantile_grad_rows(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    return 0.5 * (t / _nonzero(np.linalg.norm(t, axis=1))[:, np.newaxis] + u)


def _expectile_rows(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(t, axis=1)
    return 0.5 * norms * (norms + t @ u)


def _expectile_grad_rows(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(t, axis=1)
    weights = 1.0 + (t @ u) / (2.0 * _nonzero(norms))
    return t * weights[:, np.newaxis] + 0.5 * norms[:, np.newaxis] * u


# Column-block formulas: the means over all points of the row formulas above,
# for the points held as the columns of one contiguous (d, n) block ``xt``.
# The estimators' solver closures use these; the row formulas stay the
# reference.  ``_pass_state`` computes the state of one location ``c``
# into a preallocated ``_PassState`` workspace: ``t = xt - c``, its column
# norms and the inner products ``u @ t``, each reduced along the long axis.
# The value and gradient readers only read that state (their temporaries go
# to its scratch row), so a gradient at a point just valued costs one
# matrix-vector product and no second sweep over the block.

class _PassState:
    """Workspace for the pass state of one location over a (d, n) column block.

    ``t``, ``norms`` and ``inner`` hold the state; ``scratch`` is the
    readers' temporary row.  ``key`` names the arguments the state was
    computed for, and is None while no valid state is held.  The estimators
    keep one per thread and block shape, for all the samples of that shape
    (:mod:`geomrisk._scratch`): each solve claims it by setting ``key`` to
    None, and so does a sample that centres itself into ``t``.
    """

    __slots__ = ("t", "norms", "inner", "scratch", "key")

    def __init__(self, d: int, n: int) -> None:
        self.t = np.empty((d, n))
        self.norms = np.empty(n)
        self.inner = np.empty(n)
        self.scratch = np.empty(n)
        self.key = None

    @property
    def nbytes(self) -> int:
        return self.t.nbytes + 3 * self.norms.nbytes


def _pass_state(state: _PassState, u: np.ndarray, xt: np.ndarray, c: np.ndarray) -> None:
    """Fill ``state`` with ``t = xt - c``, its column norms and ``u @ t``."""
    np.subtract(xt, c[:, np.newaxis], out=state.t)
    np.einsum("ij,ij->j", state.t, state.t, out=state.norms)
    np.sqrt(state.norms, out=state.norms)
    np.matmul(u, state.t, out=state.inner)


def _quantile_value(u: np.ndarray, state: _PassState) -> float:
    # sum the nonnegative row terms ||t_i|| + <u, t_i>: the split form
    # sum ||t_i|| + <u, sum t_i> cancels and loses digits near the minimizer
    terms = np.add(state.norms, state.inner, out=state.scratch)
    return 0.5 * float(terms.sum()) / terms.size


def _quantile_grad(u: np.ndarray, state: _PassState) -> np.ndarray:
    inverse = np.divide(1.0, _nonzero(state.norms, out=state.scratch), out=state.scratch)
    return 0.5 * (state.t @ inverse / inverse.size + u)


def _expectile_value(u: np.ndarray, state: _PassState) -> float:
    norms = state.norms
    return 0.5 * float(norms @ np.add(norms, state.inner, out=state.scratch)) / norms.size


def _expectile_grad(u: np.ndarray, state: _PassState) -> np.ndarray:
    n = state.norms.size
    mean_norm = float(state.norms.sum()) / n
    # 1 + inner / (2 norms); the halving is exact, so the bits are those of
    # the division by 2 norms
    weights = np.divide(state.inner, _nonzero(state.norms, out=state.scratch), out=state.scratch)
    weights *= 0.5
    weights += 1.0
    return state.t @ weights / n + 0.5 * mean_norm * u


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
    at ``t = 0`` it is ``0.5 u``, the choice of the private ``_nonzero``
    divisor that every gradient formula here and in the solver shares.
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
    return 2.0 * _check_level(level) - 1.0
