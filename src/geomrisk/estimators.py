"""Empirical geometric expectiles and geometric value-at-risk.

Both estimators minimize an empirical expected loss
``(1/n) sum_i L_u(x_i - c)`` over the location ``c``; the loss is the
asymmetric squared-norm kernel for expectiles and the check-type kernel
for value-at-risk.  Minimization uses a damped quasi-Newton iteration
(inverse-Hessian secant updates with Armijo backtracking) that falls
back to steepest descent whenever the secant direction fails to be a
descent direction or its line search finds no descent, which makes it
safe on the nonsmooth value-at-risk objective as well.  A value-at-risk
minimizer on a data atom, where the gradient test cannot hold, is
certified by the subdifferential test.

A sample is validated once and laid out once as a contiguous (d, n)
column block (a view, for a sample that :func:`geomrisk.models.simulate`
drew, or any other whose transpose is C-contiguous; a copy otherwise),
and every objective and gradient pass of the solver runs over that block
with the column-block formulas of :mod:`geomrisk.losses`.  The private
``_Prepared`` sample holds the block with its mean, the all-rows-identical
flag, and the lazily computed collinearity flag and covariance, from which
a value-at-risk solve predicts its start; a direct estimator call prepares
its sample once per call, and the experiment layer prepares each sample
once for every solve on it.  Each solve claims its thread's workspace for
the sample's shape (:mod:`geomrisk._scratch`), which holds the pass state
of the last location evaluated (``x - c``, the norms and the inner products
with the index): the value and the gradient at one location share a single
sweep over the block.
:func:`empirical_objective` and :func:`empirical_objective_grad` average
the public kernels' row formulas instead; they are the reference that the
solver's passes are tested against.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import _scratch
from .losses import (
    _check_level,
    _expectile_grad,
    _expectile_grad_rows,
    _expectile_rows,
    _expectile_value,
    _norm,
    _pass_state,
    _PassState,
    _quantile_grad,
    _quantile_grad_rows,
    _quantile_rows,
    _quantile_value,
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
# a traced path starts each solve at the polynomial extrapolation of its
# last _ORDER minimizers (fewer at its start), and at the secant when that
# lands farther than _GUARD secant steps from the secant's prediction
_ORDER = 5
_GUARD = 0.5
# an expectile path's carried estimate is not turned between indices whose
# unit vectors sum to less than this (opposite up to rounding: ||a^ + b^|| is
# 2 sin(delta / 2) for a turn of pi - delta)
_ANTIPARALLEL = 1e-8
# k -> oldest-first weights of the degree k - 1 extrapolation from k equal
# steps, (-1)^(k-1-j) C(k, j): [1], [-1, 2] (the secant), ..., [1, -5, 10, -10, 5]
_EXTRAPOLATION = {k: tuple(float((-1) ** (k - 1 - j) * math.comb(k, j)) for j in range(k))
                  for k in range(1, _ORDER + 1)}
# kind -> (loss, gradient) row formulas of the public kernels: the reference
# that empirical_objective(_grad) average
_ROWS = {
    "expectile": (_expectile_rows, _expectile_grad_rows),
    "quantile": (_quantile_rows, _quantile_grad_rows),
}
# kind -> (mean loss, mean gradient) readers of a pass state, for the solver
_READERS = {
    "expectile": (_expectile_value, _expectile_grad),
    "quantile": (_quantile_value, _quantile_grad),
}


@dataclass(frozen=True)
class SolverConfig:
    """The one knob of :func:`minimize_convex`: its stopping tolerance.

    ``grad_tolerance`` is relative: the iteration stops once
    ``||grad|| <= grad_tolerance * (1 + |objective|)``.  A value-at-risk
    solve also stops, without slack, once a data atom satisfies the
    subdifferential optimality condition (see :class:`SolveReport`).  The
    iteration cap ``max_iterations`` is a constant: the objectives are
    convex, and a solve that cannot meet the tolerance stagnates far below it.
    """

    grad_tolerance: float = 1e-8
    max_iterations: ClassVar[int] = 500

    def __post_init__(self) -> None:
        if not (self.grad_tolerance > 0.0 and np.isfinite(self.grad_tolerance)):
            raise ValueError("grad_tolerance must be a positive finite number")


_DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a convex minimization.

    ``converged`` is True exactly when the final gradient satisfied the
    relative tolerance, or when ``argmin`` is a data atom certified
    optimal: ``grad_norm <= 0.5 m / n`` with m of the n rows at ``argmin``,
    so that 0 lies in the subdifferential.  ``stop_reason`` says which rule
    ended the solve: ``"converged"``, ``"optimal_at_atom"``,
    ``"max_iterations"``, ``"stagnation"`` (no measurable descent left) or
    ``"identical_rows"`` (every row is the same point).  ``note`` carries a
    warning string (for instance when a quantile minimizer may be
    non-unique), else None.
    """

    argmin: np.ndarray
    objective: float
    grad_norm: float
    iterations: int
    converged: bool
    stop_reason: str
    note: str | None = None


def as_sample(s) -> np.ndarray:
    """Validate ``s`` as a sample: a finite (n, d) array with n >= 1."""
    arr = np.asarray(s, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("sample must be a 2-D array of shape (n, d); reshape 1-D data to (n, 1)")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample entries must be finite")
    return arr


def minimize_convex(fun, grad, x0, config: SolverConfig | None = None, *,
                    _curvature=None) -> SolveReport:
    """Minimize a convex function with damped quasi-Newton iterations.

    ``fun`` maps a d-vector to a float, ``grad`` to a d-vector (a
    subgradient suffices almost everywhere).  Line search is Armijo
    backtracking with halving; steps below 1e-14 stop the iteration as
    stagnation.  The objective never increases across accepted steps.
    ``converged`` means the relative gradient test held, or a data atom
    was certified optimal (see :class:`SolveReport`).  The private
    ``_curvature`` is the path state, a :class:`_Curvature` (a fresh one,
    which starts at ``x0`` and tests no atom, when None): the solve starts
    where it says, from its inverse-Hessian estimate (None: steepest
    descent), tests data atoms by its rule (:meth:`_Curvature.certify`),
    and leaves its outcome there.  A line search that finds no descent
    along the secant direction is retried along steepest descent before
    the solve stops as stagnation; along a carried estimate's direction
    only the unit step is tried.  The iteration cap is the constant
    ``SolverConfig.max_iterations``.
    """
    cfg = config if config is not None else _DEFAULT_CONFIG
    curvature = _Curvature() if _curvature is None else _curvature
    x, f = curvature.start(x0, fun)
    report = curvature.certify(fun, grad, x, 0, at_start=True)
    if report is not None:
        return curvature.leave(report, None)
    if f is None:
        f = float(fun(x))
    g = np.asarray(grad(x), dtype=float)
    dim = x.size
    h_inv = curvature.h_inv
    backtracked = False
    stop_reason = "max_iterations"
    for iterations in range(SolverConfig.max_iterations + 1):
        gnorm = _norm(g)
        if gnorm <= cfg.grad_tolerance * (1.0 + abs(f)):
            stop_reason = "converged"
            break
        if iterations == SolverConfig.max_iterations:
            break
        if backtracked:
            report = curvature.certify(fun, grad, x, iterations)
            if report is not None:
                break
        p = -g if h_inv is None else -h_inv.dot(g)
        slope = float(g.dot(p))
        if slope >= 0.0:
            # secant model broke down: restart from steepest descent
            h_inv = None
            p = -g
            slope = -gnorm * gnorm
        # an estimate carried in may fit another stretch of the path (an
        # expectile's is turned with the index, but not rescaled; a VaR's
        # is not turned): it gets the unit step only, and fails over to
        # steepest descent like any other secant direction without descent
        carried = iterations == 0 and h_inv is not None
        accepted = _line_search(fun, grad, x, f, gnorm, p, slope,
                                1.0 if carried else _STEP_FLOOR)
        if accepted is None and h_inv is not None:
            # the secant model points nowhere useful (at a value-at-risk
            # minimizer on a data atom, say): retry along steepest descent
            h_inv = None
            accepted = _line_search(fun, grad, x, f, gnorm, -g, -gnorm * gnorm)
        if accepted is None:
            stop_reason = "stagnation"  # no measurable descent left
            break
        step, x_new, f_new, g_new = accepted
        backtracked = step < 1.0
        if g_new is None:
            g_new = np.asarray(grad(x_new), dtype=float)
        s_vec = x_new - x
        y_vec = g_new - g
        sy = float(s_vec.dot(y_vec))
        if sy > 1e-12 * _norm(s_vec) * _norm(y_vec):
            if h_inv is None:
                # scale the initial inverse Hessian to the secant pair
                h_inv = (sy / float(y_vec.dot(y_vec))) * np.eye(dim)
            rho = 1.0 / sy
            hy = h_inv.dot(y_vec)
            s_col = s_vec[:, np.newaxis]
            # h_inv - rho s hy^T - rho hy s^T + (rho^2 y.hy + rho) s s^T, in
            # that order: rho (hy_i s_j) is the transposed a_ji exactly.  The
            # first subtraction allocates; the estimate carried in is never
            # written, as it may be the path's
            a = s_col * hy
            a *= rho
            ss = s_col * s_vec
            ss *= rho * rho * float(y_vec.dot(hy)) + rho
            h_inv = h_inv - a
            h_inv -= a.T
            h_inv += ss
        else:
            h_inv = None  # curvature unusable (kink crossed)
        x, f, g = x_new, f_new, g_new
    if report is None and stop_reason != "converged":
        report = curvature.certify(fun, grad, x, iterations)
    if report is None:
        report = SolveReport(
            argmin=x,
            objective=f,
            grad_norm=gnorm,
            iterations=iterations,
            converged=stop_reason == "converged",
            stop_reason=stop_reason,
        )
    return curvature.leave(report, h_inv)


def _line_search(fun, grad, x, f: float, gnorm: float, p, slope: float,
                 floor: float = _STEP_FLOOR):
    """Armijo backtracking by halving from the unit step along the descent direction ``p``.

    Returns ``(step, x_new, f_new, g_new)`` for the first accepted step, or
    None once the step falls below ``floor`` or no longer moves ``x``.
    A step must decrease ``f`` strictly: once ``_ARMIJO * step * |slope|``
    is below half an ulp of ``f`` the Armijo bound rounds to ``f`` itself.
    A step that leaves ``f`` unchanged to the last bit there (``f`` cannot
    resolve the change near a minimizer) is accepted only when it lowers
    the gradient norm; ``g_new`` is that gradient, and None otherwise.
    """
    step = 1.0
    while step >= floor:
        x_new = x + step * p
        f_new = float(fun(x_new))
        armijo = f_new <= f + _ARMIJO * step * slope
        if armijo and f_new < f:
            return step, x_new, f_new, None
        if (x_new == x).all():
            return None  # shorter steps round to x as well
        if armijo:
            g_new = np.asarray(grad(x_new), dtype=float)
            if _norm(g_new) < gnorm:
                return step, x_new, f_new, g_new
        step *= 0.5
    return None


def _objective_closures(prep: _Prepared, u: np.ndarray, kind: str):
    """Solver objective/gradient closures over a prepared sample.

    Both read the pass state of their location from the calling thread's
    workspace for the sample's shape (:meth:`_Prepared.workspace`), which
    taking the closures claims: the state it held, perhaps another
    sample's, is dropped.  Its key is the exact bytes of ``(u, c)``, held
    on the workspace itself, so a gradient at the point just valued reuses
    the state, and closures of other indices on the same sample recompute
    it.  Closures taken later in the thread on another sample of that
    shape claim the workspace in turn, so every solve takes its own.
    """
    value, gradient = _READERS[kind]
    xt = prep.block
    state = prep.workspace()
    state.key = None
    u_key = u.tobytes()

    def current(c):
        key = (u_key, c.tobytes())
        if state.key != key:
            state.key = None  # no stale key while the arrays are rewritten
            _pass_state(state, u, xt, c)
            state.key = key
        return state

    def fun(c):
        return value(u, current(c))

    def grad(c):
        return -gradient(u, current(c))

    return fun, grad


def _validated(sample, u, c, kind: str):
    """Validate the public objective arguments; return (sample, index, location)."""
    if kind not in _ROWS:
        raise ValueError(f"kind must be one of {tuple(_ROWS)}")
    s = as_sample(sample)
    uu = as_index(u)
    cc = np.asarray(c, dtype=float)
    if cc.shape != (s.shape[1],) or uu.size != s.shape[1]:
        raise ValueError("sample, index and location dimensions must agree")
    if not np.all(np.isfinite(cc)):
        raise ValueError("location must be finite")
    return s, uu, cc


def empirical_objective(sample, u, c, kind: str = "expectile") -> float:
    """Mean loss ``(1/n) sum_i L_u(x_i - c)`` of a candidate location ``c``."""
    s, uu, cc = _validated(sample, u, c, kind)
    rows, _ = _ROWS[kind]
    return float(np.mean(rows(uu, s - cc)))


def empirical_objective_grad(sample, u, c, kind: str = "expectile") -> np.ndarray:
    """Gradient (subgradient for ``kind='quantile'``) of :func:`empirical_objective` in ``c``."""
    s, uu, cc = _validated(sample, u, c, kind)
    _, grad_rows = _ROWS[kind]
    return -grad_rows(uu, s - cc).mean(axis=0)


class _Prepared:
    """A sample validated and laid out once, for every solve on it.

    Holds the validated (n, d) ``rows`` as a read-only view (the caller's
    array and its flags are untouched), the contiguous (d, n) column
    ``block`` the solver's passes run over (a read-only view of ``rows.T``
    when that is C-contiguous, as a sample from
    :func:`~geomrisk.models.simulate` is, and a copy otherwise), the block
    ``mean`` (the expectile's cold start), whether all rows are
    ``identical``, and, computed on first use from one centring of the
    rows, whether they are collinear (``_collinear``: a d x d Gram
    certificate clears most samples, and an SVD decides the rest) with the
    1/n covariance, that Gram over n, and the mean distance to ``mean``,
    which :meth:`asymptote` reads.  To numpy it is the (n, d) sample: it has
    ``ndim`` and ``shape``, and ``np.asarray`` gives the rows.  Beyond the
    block it holds no buffer: the pass-state :meth:`workspace` of the
    solver's closures, and the scratch of :meth:`_spread` and
    :meth:`nearest_atom`, are the calling thread's, shared with its other
    samples of the same shape.  A solve claims the workspace when it
    starts, so a thread must finish one solve before it starts the next.
    ``curvature`` is None, except on the view that :meth:`on_path` makes
    for the solves of one traced path.
    """

    __slots__ = ("rows", "block", "mean", "identical", "_lazy", "curvature")
    ndim = 2

    def __init__(self, sample) -> None:
        rows = as_sample(sample).view()
        block = np.ascontiguousarray(rows.T)
        mean = block.mean(axis=1)
        for arr in (rows, block, mean):
            arr.flags.writeable = False
        self.rows = rows
        self.block = block
        self.mean = mean
        self.identical = bool(np.all(rows == rows[0]))
        self._lazy = {}  # tests computed on first use, shared with every view
        self.curvature = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.shape

    def __array__(self, dtype=None, copy=None):
        return np.array(self.rows, dtype=dtype, copy=copy)

    def on_path(self) -> _Prepared:
        """A view of this sample for the solves of one traced path.

        It shares the arrays and the tests computed on first use, and
        carries a fresh :class:`_Curvature` for its solves.
        """
        view = copy.copy(self)
        view.curvature = _Curvature()
        return view

    def _spread(self) -> tuple[bool, np.ndarray, float]:
        """``(collinear, covariance, mean distance)`` of the rows, computed once per sample.

        The rows are centred once, into the ``t`` of the thread's
        :meth:`workspace` (whose pass state is dropped), which the Gram
        matrix, the distances and :func:`_collinear` all read: centred
        through ``block.T``, they come out in Fortran order, which the SVD,
        when the Gram certificate leaves it the verdict, reads 2-3x faster
        than the C-ordered rows at n = 10k.  They are centred once more in
        place, as :func:`_collinear` rules.
        """
        if "spread" not in self._lazy:
            state = self.workspace()
            state.key = None
            centred = np.subtract(self.block.T, self.mean, out=state.t.T)
            centred -= centred.mean(axis=0)
            with np.errstate(over="ignore", invalid="ignore"):  # see _collinear
                gram = centred.T @ centred
                distance = np.einsum("ij,ij->i", centred, centred, out=state.scratch)
                distance = float(np.sqrt(distance, out=distance).mean())
            self._lazy["spread"] = (_collinear(centred, gram), gram / self.shape[0], distance)
        return self._lazy["spread"]

    def asymptote(self, u: np.ndarray) -> tuple[np.ndarray, float] | None:
        """The value-at-risk start at ``u`` from the extreme-index asymptote, and the bar it must beat.

        For a law with finite second moments the geometric quantile at
        ``a v`` (v a unit vector) satisfies ``(1 - a) ||q - mean||^2 -> (tr S
        - v^T S v) / 2`` and ``q / ||q|| -> v`` as a -> 1 (Girard and
        Stupfler, REVSTAT 15, 2017), and a sample meets this with S its 1/n
        covariance.  The start is ``mean + ||u|| r0 v``, ``r0 = sqrt((tr S
        - v^T S v) / (2 (1 - ||u||)))``.  The bar is the objective at the
        mean, ``0.5 mean ||x_i - mean||`` for every index, as ``mean(x_i -
        mean) = 0``.  None at ``u = 0``, on a collinear sample, and where r0
        is not a positive finite number: the solve starts at the mean.
        """
        collinear, cov, distance = self._spread()
        norm = _norm(u)
        if norm == 0.0 or collinear:
            return None
        v = u / norm
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed cov: inf or nan
            across = 0.5 * float(np.trace(cov) - v @ cov @ v)
        r0 = math.sqrt(across / (1.0 - norm)) if across > 0.0 else 0.0
        if not 0.0 < r0 < math.inf:
            return None
        return self.mean + (norm * r0) * v, 0.5 * distance

    def workspace(self) -> _PassState:
        """The calling thread's pass-state workspace for this sample's (d, n) block shape.

        It is made on the thread's first solve at that shape and kept for
        the next (:mod:`geomrisk._scratch`); the solver's closures claim it
        for each solve.
        """
        return _scratch.buffer("pass", _PassState, *self.block.shape)

    def nearest_atom(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """The row nearest ``x`` (an exact copy) and ``0.5 m / n``, m the rows equal to it.

        The differences go to the thread's spare buffer, never to the
        workspace, whose pass state stays valid.
        """
        t = _scratch.spare(self.block.size).reshape(self.block.shape)
        np.subtract(self.block, x[:, np.newaxis], out=t)
        row = self.rows[int(np.argmin(np.einsum("ij,ij->j", t, t)))]
        m = np.count_nonzero((self.rows == row).all(axis=1))
        return row.copy(), 0.5 * float(m) / self.shape[0]


class _Curvature:
    """The path state: what the solves of one traced path hand to the next, and its rules.

    Each solve starts at :meth:`start`: the first at its cold start, and
    later ones at an extrapolation of the minimizers before them.  A
    solve's cold start is its measure's prediction: the sample mean for
    the expectile, and for value-at-risk the extreme-index asymptote
    (:meth:`_Prepared.asymptote`) where its objective is below the
    objective at the mean, else the mean; ``_solve`` hands a path's first
    VaR solve, and every direct one, its asymptote as ``prediction``.
    Each solve starts from the inverse-Hessian estimate ``h_inv`` the
    solve before left (None until a solve leaves one: steepest descent),
    which an expectile solve first turns with the index (:meth:`turn`).
    A value-at-risk solve tests data atoms by :meth:`certify`.  Every
    solve then records its outcome with :meth:`leave`.

    ``past`` holds the minimizers of its solves, oldest first (a list: the
    block a deque allocates made each direct expectile solve at n = 10k
    ~2.5% slower).  ``direction`` is the unit direction of the last
    expectile solve's index (None before the first, and after a zero
    index).  ``atom`` is the ``(row, 0.5 m / n)`` of the data atom the last
    solve certified (its row is ``past[-1]``), and None after any other
    stop.  ``nearest_atom`` is the atom finder of the value-at-risk solve
    under way (:meth:`_Prepared.nearest_atom`), which ``_solve`` sets and
    :meth:`leave` drops, and None otherwise.  ``prediction`` is the
    ``(point, bar)`` a first solve tries before its cold start, or None.  A
    direct solve gets a fresh one of its own.
    """

    __slots__ = ("h_inv", "atom", "past", "direction", "prediction", "nearest_atom")

    def __init__(self, nearest_atom=None) -> None:
        self.h_inv = None
        self.atom = None
        self.past = []
        self.direction = None
        self.prediction = None
        self.nearest_atom = nearest_atom

    def turn(self, index: np.ndarray) -> None:
        """Turn ``h_inv`` from the last expectile solve's index to ``index``.

        The expectile Hessian at ``c`` is ``(1 + 0.5 mean r) I + 0.5 (a u^T
        + u a^T) - 0.5 mean(r t t^T / ||t||^2)``, with ``t = x - c``, ``r =
        u.t / ||t||`` and ``a = mean(t / ||t||)``: every anisotropic term is
        linear in ``u``, so along a path the long axis of the curvature
        turns with the index (near the unit sphere the estimate of the last
        index points the wrong way at the next).  ``h_inv`` becomes a new
        array ``R h_inv R^T``, R the plane rotation of :func:`_rotation`
        between the two directions; the array carried in is never written.
        A zero index has no direction, and a turn from or to it leaves
        ``h_inv`` as it is.  A value-at-risk Hessian, ``0.5 mean((I - t
        t^T / ||t||^2) / ||t||)``, holds no ``u``, and its solves do not
        call this.
        """
        norm = _norm(index)
        last = self.direction
        self.direction = index / norm if norm > 0.0 else None
        if self.h_inv is None or last is None or self.direction is None:
            return
        r = _rotation(last, self.direction)
        if r is not None:
            self.h_inv = r @ self.h_inv @ r.T

    def certify(self, fun, grad, x, iterations: int, at_start: bool = False) -> SolveReport | None:
        """The report of a data atom at ``x`` certified optimal, or None: the atom rule.

        A value-at-risk minimizer may sit on a data atom, where the gradient
        test cannot hold.  With m of the n rows at a row ``c``, ``grad``
        gives each of them the value ``-0.5 u / n`` (the t = 0 choice of
        ``losses._nonzero``), so ``c`` is a minimizer iff ``||grad(c)|| <=
        0.5 m / n``; then ``c`` is returned exactly, and held in ``atom``.
        The row tested is the held atom where ``x`` is that row, and no
        other ``at_start``, before any line search: a path starts on the
        atom its last solve ended on when the solve before ended there too,
        or was the first (a zero secant step leaves the secant, and 2a - a
        is exact).  Within a solve, after a backtracking step, on stagnation
        and at the iteration cap, it is otherwise the row ``nearest_atom``
        finds nearest ``x``; without a finder, none.
        """
        held = self.atom
        if held is not None and (x == held[0]).all():
            candidate = held
        elif not at_start and self.nearest_atom is not None:
            candidate = self.nearest_atom(x)
        else:
            return None
        c, radius = candidate
        gnorm = _norm(grad(c))
        if gnorm > radius:
            return None
        self.atom = candidate
        return SolveReport(
            argmin=c,
            objective=float(fun(c)),
            grad_norm=gnorm,
            iterations=iterations,
            converged=True,
            stop_reason="optimal_at_atom",
        )

    def leave(self, report: SolveReport, h_inv) -> SolveReport:
        """Record a solve's ``report`` and final estimate ``h_inv``; return the report.

        Every solve's minimizer joins ``past``, a held atom re-certified
        at its start included.  Near a data atom the secant pairs measure
        the kink, not the curvature of the objective: a solve certified on
        an atom hands on no estimate, and keeps that atom held for the next
        start instead; any other stop drops the held atom.  The finder goes
        too: a method of the view that holds this state, it would keep the
        sample alive in a reference cycle.
        """
        if report.stop_reason == "optimal_at_atom":
            self.h_inv = None
        else:
            self.h_inv, self.atom = h_inv, None
        self.past.append(report.argmin)
        self.nearest_atom = None
        return report

    def start(self, cold, fun) -> tuple[np.ndarray, float | None]:
        """The next solve's start, a new array, and ``fun`` there when known.

        The first solve starts at the ``point`` of its ``prediction`` when
        ``fun(point)``, the solve's first value pass, is below its ``bar``
        (the value at ``cold``, which then costs no pass), and at ``cold``
        otherwise.  Every later one starts at the
        equal-step extrapolation of the k = min(solves so far, ``_ORDER``)
        last minimizers: the degree k - 1 polynomial through them, read one
        step on.  The order ramps up from the first minimizer (k = 1) and
        the secant prediction ``2 c[-1] - c[-2]`` (k = 2) to ``c[-5] - 5
        c[-4] + 10 c[-3] - 10 c[-2] + 5 c[-1]``.  A prediction farther than
        ``_GUARD`` ``||c[-1] - c[-2]||`` from the secant's (the minimizers
        turned or jumped, say between the data atoms of a value-at-risk
        path) gives way to the secant, which is also the start whenever the
        last two minimizers are equal: that point, bit for bit.  The sums
        run elementwise in a fixed order, so a start does not depend on the
        BLAS build or its thread count.
        """
        past = self.past[-_ORDER:]
        if not past:
            if self.prediction is not None:
                point, bar = self.prediction
                f = float(fun(point))
                if f < bar:
                    return point, f
            return np.array(cold, dtype=float), None
        weights = _EXTRAPOLATION[len(past)]
        start = weights[0] * past[0]
        for w, c in zip(weights[1:], past[1:]):
            start += w * c
        if len(past) < 2:
            return start, None
        secant = 2.0 * past[-1] - past[-2]
        miss = start - secant
        step = past[-1] - past[-2]
        if (miss * miss).sum() < _GUARD * _GUARD * (step * step).sum():
            return start, None
        return secant, None


def _rotation(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """The rotation in the plane of the unit vectors ``a`` and ``b`` that takes ``a`` onto ``b``.

    It is ``R = I + K + K^2 / (1 + c)`` with ``K = b a^T - a b^T`` and ``c
    = a.b``, and fixes every vector orthogonal to both.  It is computed as
    ``I + 2 b a^T - 2 m m^T``, m the unit vector along ``a + b``: the
    product of the reflections that take ``a`` to ``-b`` and ``-b`` to
    ``b``; it is orthogonal to ``~eps / ||a + b||``, where the K form loses
    ``eps / (1 + c)``.  None stands for the identity, when ``||a + b|| <
    _ANTIPARALLEL``: the vectors are opposite up to rounding, and no plane
    is singled out (at d = 2 the half-turn ``-I`` gives ``R H R^T = H``,
    as the identity does, and at d = 1 a flip of the index is the only
    turn).
    """
    m = a + b
    nm = _norm(m)
    if nm < _ANTIPARALLEL:
        return None
    m /= nm
    r = b[:, np.newaxis] * (2.0 * a)
    r -= m[:, np.newaxis] * (2.0 * m)
    r.flat[::a.size + 1] += 1.0
    return r


def _prepare(sample) -> _Prepared:
    """``sample`` prepared for solving; an already prepared sample is returned as is."""
    return sample if isinstance(sample, _Prepared) else _Prepared(sample)


def _solve(sample, alpha, config, kind: str) -> SolveReport:
    """Solve the ``kind`` objective of ``sample`` at index ``alpha``.

    The solve runs on a path state, :class:`_Curvature`: the path's, on a
    traced path's view, else a fresh one.  An expectile solve first turns
    it to ``alpha``.  A VaR solve sets the sample's atom finder on it, so
    that its minimizer may be certified on a data atom, and a first solve
    on it gets the extreme-index asymptote as its prediction.
    """
    prep = _prepare(sample)
    u = as_index(alpha)
    if u.size != prep.shape[1]:
        raise ValueError("index dimension must match the sample dimension")
    if prep.identical:
        # all observations identical: the minimizer is that point, loss zero
        return SolveReport(
            argmin=prep.rows[0].copy(),
            objective=0.0,
            grad_norm=0.0,
            iterations=0,
            converged=True,
            stop_reason="identical_rows",
        )
    fun, grad = _objective_closures(prep, u, kind)
    curvature = _Curvature() if prep.curvature is None else prep.curvature
    if kind == "expectile":
        curvature.turn(u)
    else:
        curvature.nearest_atom = prep.nearest_atom
        if not curvature.past:
            curvature.prediction = prep.asymptote(u)
    report = minimize_convex(fun, grad, prep.mean, config, _curvature=curvature)
    if kind == "quantile" and prep._spread()[0]:
        report = dataclasses.replace(report, note="degenerate_possible")
    return report


def _collinear(centred: np.ndarray, gram: np.ndarray | None = None) -> bool:
    """True when the rows of a centred (n, d) sample lie on one line (non-unique minimizer).

    The test, ``sigma_2 <= 1e-12 sigma_1``, is relative to the largest
    singular value, so it does not depend on the scale of the sample;
    all-identical samples never get here, and a sample with d = 1 or
    n <= 2 is collinear by shape.  The rows are centred once more:
    a mean that is large against the spread leaves the rounding error of
    its computation in every row, off the line, and the verdict would
    depend on how the caller centred.  A caller that passes ``gram``, the
    Gram matrix ``centred.T @ centred``, has centred them once more itself.

    The d x d Gram matrix ``G = C^T C`` clears most samples first: the sum
    ``e2`` of its 2 x 2 principal minors is at most ``C(d, 2) lambda_1
    lambda_2`` and ``tr G >= lambda_1``, so ``e2 > C(d, 2) 1e-6 (tr G)^2``
    proves ``sigma_2 / sigma_1 > 1e-3``, six orders above the Gram's
    rounding (~n eps relative).  The SVD decides the rest, so the verdict
    is the SVD's.
    """
    n, d = centred.shape
    if n <= 2 or d == 1:
        return True
    # e2 = ((tr G)^2 - ||G||_F^2) / 2.  A trace near underflow leaves G and
    # its squares to subnormal rounding; an overflow gives inf or nan, which
    # fails the comparison
    with np.errstate(over="ignore", invalid="ignore"):
        if gram is None:
            centred = centred - centred.mean(axis=0)  # keeps the Fortran order the SVD reads fast
            gram = centred.T @ centred
        trace = np.trace(gram)
        e2 = 0.5 * (trace * trace - np.vdot(gram, gram))
        if trace > 1e-150 and e2 > 0.5 * d * (d - 1) * 1e-6 * trace * trace:
            return False
    svals = np.linalg.svd(centred, compute_uv=False)
    return bool(svals[1] <= 1e-12 * svals[0])


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
    the spatial median.  The minimizer is unique unless all observations
    are collinear, which every sample with d = 1 is; then the report
    carries ``note='degenerate_possible'``, as the minimizer set may be an
    interval of which any point may be returned.
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
    """Classical alpha-expectile of a 1-D sample, solved exactly from its FOC.

    ``G(e) = alpha sum (x_i - e)^+ - (1 - alpha) sum (e - x_i)^+`` is
    decreasing and linear between order statistics.  Prefix sums of the
    sorted sample, centred on its mean so that they round relative to its
    spread, locate the segment where G changes sign, and the linear piece
    is solved there: no loop and no tolerance, at any scale or location.
    """
    x = _as_univariate(sample)
    a = _check_level(float(alpha))
    mean = float(x.mean())
    y = np.sort(x - mean)
    n = y.size
    k = np.arange(1, n + 1)
    below = np.concatenate(([0.0], np.cumsum(y)))  # below[k]: sum of the k smallest
    # G at y[k-1], counting the k smallest as below it (ties add 0 either way)
    g = a * (below[-1] - below[1:] - (n - k) * y) - (1.0 - a) * (k * y - below[1:])
    j = min(int(np.searchsorted(-g, 0.0)), n - 1)
    # on [y[j-1], y[j]] exactly j observations lie below e
    e = (a * (below[-1] - below[j]) + (1.0 - a) * below[j]) / (a * (n - j) + (1.0 - a) * j)
    return float(np.clip(e, y[max(j - 1, 0)], y[j]) + mean)


def univariate_quantile(sample, alpha: float) -> float:
    """Classical alpha-quantile of a 1-D sample, lower-endpoint convention.

    Returns ``inf { x : F_n(x) >= alpha }``, i.e. the k-th smallest
    observation with ``k = ceil(n * alpha)``.  This is the left endpoint
    of the set minimizing the empirical check loss.
    """
    x = np.sort(_as_univariate(sample))
    a = _check_level(float(alpha))
    n = x.size
    # the 1e-12 slack keeps n*alpha values that are integers up to fp noise exact
    k = int(np.ceil(n * a - 1e-12))
    k = min(max(k, 1), n)
    return float(x[k - 1])
