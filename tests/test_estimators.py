"""Estimators: empirical objectives, the convex solver, and the multivariate
minimizers against independent oracles (scipy optimizers, Weiszfeld iteration,
order statistics)."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import gc
import math
import sys
import threading
import weakref
from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize, special

from geomrisk import estimators, experiments
from geomrisk import (
    IndependenceCopula,
    JointModel,
    Normal,
    SolveReport,
    SolverConfig,
    StudentT,
    as_sample,
    empirical_objective,
    empirical_objective_grad,
    expectile_loss,
    expectile_loss_grad,
    geometric_expectile,
    geometric_var,
    get_preset,
    minimize_convex,
    quantile_loss,
    quantile_loss_subgrad,
    simulate,
    substream,
    univariate_expectile,
    univariate_quantile,
)


# ---------------------------------------------------------------------------
# pinned objective values

def test_empirical_objective_pinned():
    sample = np.array([[0.0, 0.0], [2.0, 0.0]])
    u = np.zeros(2)
    c = np.array([1.0, 0.0])
    assert empirical_objective(sample, u, c, kind="expectile") == pytest.approx(0.5, abs=1e-14)
    assert empirical_objective(sample, u, c, kind="quantile") == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize(
    "kind, loss, loss_grad",
    [("expectile", expectile_loss, expectile_loss_grad),
     ("quantile", quantile_loss, quantile_loss_subgrad)],
)
def test_empirical_objective_is_the_mean_public_kernel(kind, loss, loss_grad):
    sample = np.random.default_rng(5).standard_normal((200, 3))
    sample[7] = [0.1, 0.2, -0.3]  # one row at c exercises the t = 0 branch
    u = np.array([0.3, -0.2, 0.5])
    c = np.array([0.1, 0.2, -0.3])
    assert empirical_objective(sample, u, c, kind) == float(np.mean(loss(u, sample - c)))
    grad = empirical_objective_grad(sample, u, c, kind)
    assert np.all(grad == -loss_grad(u, sample - c).mean(axis=0))


def test_empirical_objective_grad_pinned():
    sample = np.array([[0.0, 0.0], [2.0, 0.0]])
    u = np.zeros(2)
    c = np.zeros(2)
    np.testing.assert_allclose(
        empirical_objective_grad(sample, u, c, kind="expectile"), [-1.0, 0.0], atol=1e-14
    )


def test_empirical_objective_matches_mean_loss():
    rng = np.random.default_rng(1)
    sample = rng.standard_normal((200, 3))
    u = np.array([0.2, -0.1, 0.4])
    c = np.array([0.3, 0.0, -0.2])
    assert empirical_objective(sample, u, c, "expectile") == pytest.approx(
        float(np.mean(expectile_loss(u, sample - c))), abs=1e-13
    )
    assert empirical_objective(sample, u, c, "quantile") == pytest.approx(
        float(np.mean(quantile_loss(u, sample - c))), abs=1e-13
    )


def test_empirical_objective_grad_matches_central_differences():
    rng = np.random.default_rng(2)
    sample = rng.standard_normal((150, 3))
    u = np.array([0.3, 0.1, -0.2])
    step = 1e-6
    for _ in range(20):
        c = rng.standard_normal(3)
        grad = empirical_objective_grad(sample, u, c, "expectile")
        for k in range(3):
            e_k = np.zeros(3)
            e_k[k] = step
            fd = (
                empirical_objective(sample, u, c + e_k, "expectile")
                - empirical_objective(sample, u, c - e_k, "expectile")
            ) / (2 * step)
            assert abs(fd - grad[k]) <= 1e-6 * (1.0 + abs(fd))


@pytest.mark.parametrize("offset", [0.0, 1e4])
@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize(
    "estimator, loss, loss_grad",
    [(geometric_expectile, expectile_loss, expectile_loss_grad),
     (geometric_var, quantile_loss, quantile_loss_subgrad)],
)
def test_solver_closures_are_the_mean_public_kernel(solver_calls, monkeypatch, estimator, loss,
                                                    loss_grad, d, offset):
    # the solver's passes run over a column block; they must agree with the
    # mean of the public row kernels up to the order of summation
    rng = np.random.default_rng(11 + d)
    sample = rng.standard_normal((300, d)) + offset
    u = np.linspace(0.4, -0.2, d)
    c = np.full(d, 0.8) + offset
    sample[17] = c  # one row at c exercises the t = 0 branch
    monkeypatch.setattr(SolverConfig, "max_iterations", 1)
    estimator(sample, u)
    fun, grad = solver_calls[0]["closures"]
    np.testing.assert_allclose(fun(c), float(np.mean(loss(u, sample - c))), rtol=1e-12, atol=0)
    np.testing.assert_allclose(grad(c), -loss_grad(u, sample - c).mean(axis=0),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", ["expectile", "quantile"])
def test_closures_sharing_a_workspace_give_the_bits_of_fresh_ones(kind):
    # every closure of one sample reads the pass state of its one workspace;
    # interleaved closures of other indices must never read each other's
    # state, and a returned gradient must not alias it
    sample = np.random.default_rng(5).standard_normal((200, 3))
    sample[7] = [0.1, 0.2, 0.3]  # a row at one of the locations: t = 0
    index = {"a": np.array([0.5, -0.2, 0.1]), "b": np.array([-0.3, 0.4, 0.0])}
    where = {1: np.array([0.1, 0.2, 0.3]), 2: np.array([-0.4, 0.0, 0.7])}
    want = {}
    for name, u in index.items():
        for k, c in where.items():
            fun, grad = estimators._objective_closures(estimators._prepare(sample), u, kind)
            want[name, "grad", k] = grad(c)  # a fresh workspace per closure
            want[name, "fun", k] = fun(c)
    prep = estimators._prepare(sample)
    closures = {name: dict(zip(("fun", "grad"), estimators._objective_closures(prep, u, kind)))
                for name, u in index.items()}
    # fun then grad, grad then fun, grad alone, each interleaved with the
    # other closure at the same and at another location
    sequence = [("a", "fun", 1), ("a", "grad", 1), ("b", "fun", 1), ("a", "grad", 1),
                ("b", "grad", 2), ("b", "fun", 2), ("a", "fun", 2), ("b", "grad", 2),
                ("a", "grad", 1), ("a", "fun", 1), ("b", "fun", 1), ("a", "fun", 1)]
    kept = []
    for name, which, k in sequence:
        got = closures[name][which](where[k].copy())
        assert np.array_equal(got, want[name, which, k]), (name, which, k)
        if which == "grad":
            kept.append((got, got.copy()))
    for got, snapshot in kept:
        assert np.array_equal(got, snapshot)


def test_solver_subgradient_is_bounded_next_to_a_row():
    # the squared distance to a row 1e-170 away underflows to 0: the row
    # takes the t = 0 subgradient, not a unit vector divided by a tiny floor
    sample = np.random.default_rng(12).standard_normal((50, 3))
    sample[0] = 0.0
    u = np.array([0.5, -0.2, 0.1])
    _, grad = estimators._objective_closures(estimators._prepare(sample), u, "quantile")
    assert np.linalg.norm(grad(np.array([1e-170, 0.0, 0.0]))) <= (1.0 + np.linalg.norm(u)) / 2.0


def test_workspace_lifetime():
    sample = np.random.default_rng(6).standard_normal((50, 2))
    # a prepared sample holds no buffer of its own, solved or not
    prep = estimators._prepare(sample)
    path = prep.on_path()
    assert prep._lazy == {}
    # a sample of identical rows needs no pass at all
    same = estimators._prepare(np.tile([1.0, 2.0], (20, 1)))
    assert geometric_expectile(same, [0.3, 0.1]).stop_reason == "identical_rows"
    assert same._lazy == {}
    # the views of a traced path, and every sample of the same shape, share
    # the thread's workspace for that shape; other shapes and threads have
    # their own
    geometric_var(path, [0.3, 0.1])
    assert set(prep._lazy) == {"spread"}
    workspace = prep.workspace()
    assert path.workspace() is workspace
    assert prep.on_path().workspace() is workspace
    assert estimators._prepare(sample + 1.0).workspace() is workspace
    assert estimators._prepare(sample[:40]).workspace() is not workspace
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        assert pool.submit(prep.workspace).result() is not workspace
    assert workspace.t.shape == prep.block.shape
    # nearest_atom computes its distances elsewhere: the state stays valid
    held = (workspace.key, workspace.t.copy(), workspace.norms.copy(), workspace.inner.copy())
    path.nearest_atom(np.array([5.0, -5.0]))
    assert workspace.key == held[0]
    for now, before in zip((workspace.t, workspace.norms, workspace.inner), held[1:]):
        assert np.array_equal(now, before)


def test_a_simulated_sample_is_prepared_without_a_copy():
    # simulate returns the transpose of a (d, n) block: the solver's block is
    # a view of the caller's sample, which keeps its flags; a C-ordered copy
    # of it is laid out anew, and solves on either give the same bits
    sample = simulate(get_preset("Z-clayton5"), 500, substream(90, "no-copy"))
    prep = estimators._Prepared(sample)
    assert np.shares_memory(prep.block, sample)
    assert prep.block.flags.c_contiguous and not prep.block.flags.writeable
    assert sample.flags.writeable
    rows = np.ascontiguousarray(sample)
    copied = estimators._Prepared(rows)
    assert not np.shares_memory(copied.block, rows)
    assert copied.block.tobytes() == prep.block.tobytes()
    u = np.array([0.5, -0.3, 0.2, 0.1])
    for solver in (geometric_expectile, geometric_var):
        assert solver(sample, u).argmin.tobytes() == solver(rows, u).argmin.tobytes()


def _solve_bits(sample, indices) -> list:
    prep = estimators._prepare(sample)
    return [_report_bits(solver(prep, u)) for u in indices
            for solver in (geometric_expectile, geometric_var)]


def _report_bits(report: SolveReport) -> tuple:
    return (report.argmin.tobytes(), report.objective, report.grad_norm, report.iterations,
            report.stop_reason)


_THREAD_INDICES = [np.array([0.3, -0.2]), np.array([-0.6, 0.5]), np.array([0.0, 0.9])]


def _thread_work(seed: int) -> tuple:
    # a draw, direct solves and a traced subadditivity run, on samples of one
    # shape for every seed
    model = get_preset("X4")
    x = simulate(model, 1_500, substream(seed, "threads-x"))
    y = simulate(model, 1_500, substream(seed, "threads-y"))
    sets = experiments.subadditivity_sets(x, y, r=0.6, measure="var", n_phi=6)
    return (x.tobytes(), _solve_bits(x, _THREAD_INDICES), _solve_bits(y, _THREAD_INDICES),
            sets.curve_sum.points.tobytes(), sets.curve_add.points.tobytes(), sets.included)


def test_threads_reuse_none_of_each_others_buffers():
    # each thread draws and solves through buffers of its own: more threads
    # than cores, switching often, running the same work on different
    # same-shape samples concurrently give the bits of serial runs
    seeds = (1, 2, 3, 4)
    serial = {seed: _thread_work(seed) for seed in seeds}
    barrier = threading.Barrier(len(seeds), timeout=60)

    def run(seed):
        barrier.wait()
        return [_thread_work(seed) for _ in range(2)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(len(seeds)) as pool:
            futures = {seed: pool.submit(run, seed) for seed in seeds}
            for seed, future in futures.items():
                assert all(got == serial[seed] for got in future.result(timeout=120)), seed
    finally:
        sys.setswitchinterval(interval)


def test_solves_alternating_between_same_shape_samples_match_separate_ones():
    # subadditivity holds X, Y and X + Y prepared at once, and they share the
    # thread's workspace: each solve claims it, so solves that alternate
    # between two samples give the bits of solves on each alone
    model = get_preset("X3")
    x = simulate(model, 2_000, substream(91, "alternate-x"))
    y = simulate(model, 2_000, substream(91, "alternate-y"))
    want = {"x": _solve_bits(x, _THREAD_INDICES), "y": _solve_bits(y, _THREAD_INDICES)}
    prepared = {"x": estimators._prepare(x), "y": estimators._prepare(y)}
    got = {"x": [], "y": []}
    for u in _THREAD_INDICES:
        for solver in (geometric_expectile, geometric_var):
            for name, prep in prepared.items():
                got[name].append(_report_bits(solver(prep, u)))
    assert got == want
    # closures taken on y after a pass on x at the same (u, c) read y's state
    u, c = _THREAD_INDICES[0], np.array([0.1, 0.2])
    fun_x, _ = estimators._objective_closures(prepared["x"], u, "quantile")
    at_x = fun_x(c)
    fun_y, _ = estimators._objective_closures(prepared["y"], u, "quantile")
    at_y = fun_y(c)
    assert at_y == pytest.approx(empirical_objective(y, u, c, "quantile"), rel=1e-12, abs=0.0)
    assert at_y != pytest.approx(at_x, rel=1e-6, abs=0.0)


# ---------------------------------------------------------------------------
# generic convex solver

def test_minimize_convex_quadratic_exact():
    # f(x) = 0.5 (x-a)' A (x-a) with known SPD A has the unique minimizer a.
    a = np.array([1.0, -2.0, 0.5])
    A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])

    def fun(x):
        d = x - a
        return 0.5 * d @ A @ d

    def grad(x):
        return A @ (x - a)

    rep = minimize_convex(fun, grad, np.zeros(3))
    assert rep.converged
    assert rep.stop_reason == "converged"
    np.testing.assert_allclose(rep.argmin, a, atol=1e-7)
    assert rep.objective == pytest.approx(0.0, abs=1e-12)
    assert rep.iterations <= 50


def test_minimize_convex_reports_non_convergence(monkeypatch):
    # Ill-conditioned quadratic cannot meet a tight tolerance in two steps.
    scale = np.array([1.0, 1e4])

    def fun(x):
        return float(0.5 * np.sum(scale * x**2))

    def grad(x):
        return scale * x

    monkeypatch.setattr(SolverConfig, "max_iterations", 2)
    rep = minimize_convex(fun, grad, np.array([1.0, 1.0]), SolverConfig(grad_tolerance=1e-12))
    assert isinstance(rep, SolveReport)
    assert not rep.converged
    assert rep.iterations == 2
    assert rep.stop_reason == "max_iterations"


def test_minimize_convex_reports_stagnation():
    # a zero function with a non-zero "gradient" admits no Armijo step at all
    rep = minimize_convex(lambda x: 0.0, lambda x: np.ones_like(x), np.zeros(2))
    assert not rep.converged
    assert rep.stop_reason == "stagnation"
    assert rep.iterations == 0
    np.testing.assert_array_equal(rep.argmin, [0.0, 0.0])


def test_minimize_convex_flat_function_stagnates():
    # with |f| ~ 1 the Armijo bound f + 1e-4 step slope rounds to f for tiny
    # steps; a step that does not lower f must not be accepted there
    passes = {"fun": 0, "grad": 0}

    def fun(x):
        passes["fun"] += 1
        return 1.0

    def grad(x):
        passes["grad"] += 1
        return np.ones_like(x)

    rep = minimize_convex(fun, grad, np.zeros(2))
    assert not rep.converged
    assert rep.stop_reason == "stagnation"
    assert rep.iterations == 0
    assert passes["fun"] <= 100 and passes["grad"] <= 100


def test_minimize_convex_converges_below_the_resolution_of_f():
    # at x0 the gradient (1.4e-8) fails the tolerance (1e-8), yet the
    # minimizer's f = 1 equals f(x0) to the last bit: the step that leaves f
    # unchanged is accepted because it lowers the gradient norm
    def fun(x):
        return 1.0 + 0.5 * float(x @ x)

    x0 = np.array([1.4e-8, 0.0])
    assert fun(x0) == fun(np.zeros(2))
    rep = minimize_convex(fun, lambda x: x, x0, SolverConfig(grad_tolerance=5e-9))
    assert rep.converged
    assert rep.iterations == 1
    np.testing.assert_array_equal(rep.argmin, [0.0, 0.0])


@pytest.mark.parametrize("poison", [1e-20 * np.eye(2), -np.eye(2), np.diag([1.0, -1.0])],
                         ids=["tiny", "negative", "indefinite"])
@pytest.mark.parametrize("estimator", [geometric_expectile, geometric_var])
def test_poisoned_carried_curvature_still_converges(estimator, poison):
    # a traced path hands each solve the inverse Hessian of the previous one;
    # a useless one costs passes but never the minimizer: its line search
    # fails over to steepest descent (1e-20 I moves no coordinate of the
    # start).  The tolerance is tight so that both solves pin the minimizer
    # well inside 1e-8.
    sample = np.random.default_rng(9).standard_normal((300, 2)) * [1.0, 3.0]
    alpha = np.array([0.6, -0.3])
    cfg = SolverConfig(grad_tolerance=1e-12)
    cold = estimator(sample, alpha, cfg)
    path = estimators._prepare(sample).on_path()
    path.curvature.h_inv = poison.copy()
    warm = estimator(path, alpha, cfg)
    assert cold.converged and warm.converged
    np.testing.assert_allclose(warm.argmin, cold.argmin, rtol=0, atol=1e-8)
    # the solve hands on the estimate it built, not the poison
    assert np.all(np.isfinite(path.curvature.h_inv))
    assert np.all(np.linalg.eigvalsh(path.curvature.h_inv) > 0.0)


def test_minimize_convex_starts_at_x0():
    def fun(x):
        return float(np.sum((x - 3.0) ** 2))

    def grad(x):
        return 2.0 * (x - 3.0)

    rep = minimize_convex(fun, grad, np.array([2.9, 3.1]))
    assert rep.converged
    np.testing.assert_allclose(rep.argmin, [3.0, 3.0], atol=1e-7)
    # started at the minimizer, the solver takes no step
    rep = minimize_convex(fun, grad, np.array([3.0, 3.0]))
    assert rep.iterations == 0
    np.testing.assert_array_equal(rep.argmin, [3.0, 3.0])


def _heavy_atom_sample() -> np.ndarray:
    """60 of 100 rows at (1, 2), the rest scattered: VaR at small indices sits on the atom."""
    rest = np.random.default_rng(21).standard_normal((40, 2)) * 2.0
    return np.vstack([np.tile([1.0, 2.0], (60, 1)), rest])


@pytest.mark.parametrize("estimator, atom_bound",
                         [(geometric_expectile, False), (geometric_var, False),
                          (geometric_var, True)],
                         ids=["geometric_expectile", "geometric_var", "geometric_var-atom"])
def test_estimators_pass_their_closures_through_minimize_convex(solver_calls, estimator,
                                                                atom_bound):
    # profilers count kernel passes by wrapping the fun/grad arguments of
    # estimators.minimize_convex; every solve must go through that name, and
    # so must the passes that certify a minimizer at a data atom
    if atom_bound:
        sample = _heavy_atom_sample()
    else:
        sample = np.random.default_rng(3).standard_normal((50, 2))
    report = estimator(sample, [0.3, 0.2])
    assert len(solver_calls) == 1
    assert solver_calls[0]["fun"] >= 1 and solver_calls[0]["grad"] >= 1
    assert report is solver_calls[0]["result"]
    assert report.converged
    if atom_bound:
        assert report.stop_reason == "optimal_at_atom"
        assert any(np.array_equal(x, report.argmin) for x in solver_calls[0]["grad_points"])


def test_atom_finder_counts_the_rows_equal_to_it():
    # -0.0 and 0.0 are one point; a row one ulp away is another
    sample = np.array([[1.0, 2.0], [3.0, 3.0], [1.0, 2.0], [0.0, -0.0], [-0.0, 0.0],
                       [1.0, np.nextafter(2.0, 3.0)], [1.0, 2.0]])
    prep = estimators._prepare(sample)
    row, radius = prep.nearest_atom(np.array([1.0, 1.9]))
    assert np.array_equal(row, [1.0, 2.0]) and radius == 0.5 * 3 / 7
    row, radius = prep.nearest_atom(np.array([0.1, 0.0]))
    assert np.array_equal(row, [0.0, 0.0]) and radius == 0.5 * 2 / 7
    row, radius = prep.nearest_atom(np.array([1.0, 2.1]))
    assert row[1] > 2.0 and radius == 0.5 / 7


def test_path_view_starts_from_its_own_minimizers(solver_calls):
    # a path's first solve starts at the sample mean, and the second at the
    # first minimizer
    sample = np.random.default_rng(8).standard_normal((200, 2))
    prep = estimators._prepare(sample)
    path = prep.on_path()
    first = geometric_expectile(path, [0.3, 0.1])
    assert len(path.curvature.past) == 1 and path.curvature.past[0] is first.argmin
    second = geometric_expectile(path, [0.3, 0.1])
    assert first.iterations > 0 and second.iterations == 0
    assert np.array_equal(solver_calls[0]["points"][0], prep.mean)
    assert np.array_equal(solver_calls[1]["points"][0], first.argmin)
    assert np.array_equal(second.argmin, first.argmin)
    assert [id(c) for c in path.curvature.past] == [id(first.argmin), id(second.argmin)]


def _history(points) -> estimators._Curvature:
    """A path's curvature state after solves that ended at ``points``, oldest first."""
    curvature = estimators._Curvature()
    curvature.past.extend(np.array(c, dtype=float) for c in points)
    return curvature


# c_k = sum_j a_j k^j, led by its linear term: each start of the path stays
# well inside half a secant step of the secant prediction
_POLY = np.array([[0.3, -1.2], [1.0, 0.5], [0.02, -0.03], [-0.002, 0.001], [1e-4, 2e-4],
                  [1e-5, -2e-5]])


def _poly(coef, k: float) -> np.ndarray:
    return sum(a * k ** j for j, a in enumerate(coef))


@pytest.mark.parametrize("solves", [5, 7])
@pytest.mark.parametrize("degree", range(5))
def test_path_start_extrapolates_a_polynomial_history_exactly(degree, solves):
    # a history of degree <= 4 is continued exactly, up to rounding (the
    # weights sum to 31 in absolute value); beyond five solves the oldest drop
    coef = _POLY[:degree + 1]
    start = _history([_poly(coef, k) for k in range(solves)]).start(None, None)[0]
    expected = _poly(coef, float(solves))
    np.testing.assert_allclose(start, expected, rtol=0.0,
                               atol=64.0 * np.finfo(float).eps * np.abs(expected).max())


@pytest.mark.parametrize("solves", range(1, 6))
def test_path_start_order_ramps_up_with_the_solves(solves):
    # after k <= 5 solves the start continues a history of degree k - 1
    # exactly, and one of degree k only to its k-th difference a_k k!
    exact = _history([_poly(_POLY[:solves], k) for k in range(solves)]).start(None, None)[0]
    np.testing.assert_allclose(exact, _poly(_POLY[:solves], float(solves)), rtol=0.0,
                               atol=1e-12)
    coef = _POLY[:solves + 1]
    missed = _history([_poly(coef, k) for k in range(solves)]).start(None, None)[0]
    np.testing.assert_allclose(_poly(coef, float(solves)) - missed,
                               coef[solves] * math.factorial(solves), rtol=1e-9)


@pytest.mark.parametrize("bend, guarded", [(0.19, False), (0.21, True)])
def test_path_start_falls_back_to_the_secant_past_half_a_step(bend, guarded):
    # x = 0, 1, 2, 3, 4 + e: order 5 predicts 5 + 5e and the secant 5 + 2e,
    # 3e apart, against half a step of (1 + e) / 2: the guard trips at e = 0.2
    x = [0.0, 1.0, 2.0, 3.0, 4.0 + bend]
    start = _history([[v, 0.0] for v in x]).start(None, None)[0]
    secant = 2.0 * x[4] - x[3]
    extrapolated = x[0] - 5.0 * x[1] + 10.0 * x[2] - 10.0 * x[3] + 5.0 * x[4]
    assert start[0] == (secant if guarded else extrapolated) and start[1] == 0.0


@pytest.mark.parametrize("solves", [2, 3, 5, 7])
def test_path_start_after_two_equal_minimizers_is_that_point(solves):
    # a zero secant step admits no higher order: the start is the point,
    # bit for bit, whatever the minimizers before it
    atom = np.array([0.1 + 0.2, 1.0 / 3.0])
    rng = np.random.default_rng(41)
    history = [*rng.standard_normal((solves - 2, 2)) * 3.0, atom, atom.copy()]
    assert _history(history).start(None, None)[0].tobytes() == atom.tobytes()


def test_solve_on_an_atom_hands_on_no_curvature():
    # near a data atom the secant pairs measure the kink, not the curvature
    # of the objective; the next solve of a path starts without them
    path = estimators._prepare(_heavy_atom_sample()).on_path()
    path.curvature.h_inv = np.eye(2)
    report = geometric_var(path, [0.3, 0.2])
    assert report.stop_reason == "optimal_at_atom"
    assert path.curvature.h_inv is None


def test_traced_var_path_leaves_no_reference_cycle():
    # a VaR solve's atom finder is a method of the path's view, which holds
    # the path state: the solve drops it from that state, so the sample is
    # freed by reference counting, not left to the cyclic garbage collector
    gc.disable()
    try:
        path = estimators._prepare(_heavy_atom_sample()).on_path()
        block = weakref.ref(path.block)
        for u in ([0.3, 0.2], [0.9, 0.0]):
            geometric_var(path, u)
        assert path.curvature.nearest_atom is None
        del path
        assert block() is None
    finally:
        gc.enable()


def _assert_no_false_atom(sample, u, report):
    # the certificate holds wherever it is claimed: ||grad|| <= 0.5 m / n
    # at the m rows equal to the point, by the reference gradient
    if report.stop_reason == "optimal_at_atom":
        m = int(np.count_nonzero(np.all(sample == report.argmin, axis=1)))
        grad = empirical_objective_grad(sample, u, report.argmin, "quantile")
        assert m >= 1 and np.linalg.norm(grad) <= 0.5 * m / len(sample)


def test_traced_var_certifies_a_repeated_atom_in_one_pass(solver_calls):
    # every index of this circle puts VaR on the heavy atom, so each solve
    # after the first starts on it exactly (the first minimizer, then the
    # secant 2a - a, as a zero step admits no higher order, also once the
    # path holds five minimizers) and certifies it without a line search
    sample = _heavy_atom_sample()
    phi = np.linspace(0.0, 2.0 * np.pi, 13)[:-1]
    indices = 0.3 * np.column_stack([np.cos(phi), np.sin(phi)])
    points, converged = experiments._trace(sample, indices, "var", None)
    assert converged.all() and len(solver_calls) == len(indices)
    for call in solver_calls[1:]:
        report = call["result"]
        assert call["points"][0].tobytes() == points[0].tobytes()
        assert report.stop_reason == "optimal_at_atom" and report.iterations == 0
        assert call["states"] == 1 and call["fun"] == 1 and call["grad"] == 1
    assert np.array_equal(solver_calls[-1]["curvature"].atom[0], [1.0, 2.0])
    solver_calls.clear()
    for k, u in enumerate(indices):
        cold = geometric_var(sample, u)
        assert np.array_equal(points[k], cold.argmin)
        _assert_no_false_atom(sample, u, cold)


def test_held_atom_solves_join_the_path_history():
    # a solve that re-certifies the held atom at its start is one index step
    # of the path like any other: its minimizer joins past, so the order-k
    # start extrapolates minimizers one step apart
    sample = _heavy_atom_sample()
    phi = np.linspace(0.0, 2.0 * np.pi, 13)[:-1]
    path = estimators._prepare(sample).on_path()
    for u in 0.3 * np.column_stack([np.cos(phi), np.sin(phi)]):
        assert geometric_var(path, u).stop_reason == "optimal_at_atom"
    assert len(path.curvature.past) == 12
    assert all(np.array_equal(c, [1.0, 2.0]) for c in path.curvature.past)


def test_traced_var_leaves_a_held_atom_that_fails_the_test(solver_calls):
    # the third solve starts on the held atom, where ||grad|| exceeds
    # 0.5 m / n at its index: it iterates as usual to a point off the data
    sample = _heavy_atom_sample()
    indices = np.array([[0.2, 0.1], [0.25, 0.1], [0.9, 0.0]])
    atom = np.array([1.0, 2.0])
    assert np.linalg.norm(empirical_objective_grad(sample, indices[2], atom, "quantile")) > 0.3
    points, converged = experiments._trace(sample, indices, "var", None)
    assert converged.all()
    for call, u in zip(solver_calls, indices):
        _assert_no_false_atom(sample, u, call["result"])
    leaving = solver_calls[2]
    report = leaving["result"]
    assert np.array_equal(leaving["grad_points"][0], atom)
    assert report.stop_reason == "converged" and report.iterations > 0
    assert leaving["states"] > 1
    assert not np.any(np.all(sample == report.argmin, axis=1))
    assert leaving["curvature"].atom is None
    cold = geometric_var(sample, indices[2])
    assert cold.stop_reason == "converged"
    assert np.linalg.norm(points[2] - cold.argmin) <= 1e-6 * (1.0 + np.linalg.norm(cold.argmin))


@pytest.mark.parametrize("carried", [False, True], ids=["scaled-identity", "carried"])
def test_bfgs_update_keeps_the_secant_equation(carried, monkeypatch):
    # one iteration at d = 4 on a quadratic: the updated estimate maps the
    # gradient change onto the step, and is symmetric and positive definite,
    # all to rounding; the estimate carried in keeps its values
    rng = np.random.default_rng(31)
    m = rng.standard_normal((4, 4))
    a = m @ m.T + np.eye(4)
    b = rng.standard_normal(4)

    def fun(x):
        return 0.5 * float(x @ a @ x) - float(b @ x)

    def grad(x):
        return a @ x - b

    curvature = estimators._Curvature()
    if carried:
        # not a multiple of the inverse Hessian, so that H y is not along s
        curvature.h_inv = 0.5 * np.linalg.inv(a) + 0.05 * np.eye(4)
    h_in = curvature.h_inv
    kept = None if h_in is None else h_in.copy()
    x0 = np.ones(4)
    monkeypatch.setattr(SolverConfig, "max_iterations", 1)
    rep = minimize_convex(fun, grad, x0, _curvature=curvature)
    assert rep.iterations == 1
    h_inv = curvature.h_inv
    s = rep.argmin - x0
    y = grad(rep.argmin) - grad(x0)
    eps = np.finfo(float).eps
    assert np.linalg.norm(h_inv @ y - s) <= 64.0 * eps * np.linalg.norm(s)
    assert np.abs(h_inv - h_inv.T).max() <= 8.0 * eps * np.abs(h_inv).max()
    assert np.linalg.eigvalsh(h_inv).min() > 0.0
    if carried:
        assert h_inv is not h_in
        np.testing.assert_array_equal(h_in, kept)


def test_solve_does_not_write_the_path_estimate_in_place():
    # the second solve of a path starts at the first minimizer, from the
    # estimate the first left, takes its unit step and updates a copy of it
    sample = np.random.default_rng(5).standard_normal((200, 2)) * [1.0, 2.0]
    path = estimators._prepare(sample).on_path()
    geometric_expectile(path, [0.4, -0.3])
    h_inv = path.curvature.h_inv
    kept = h_inv.copy()
    report = geometric_expectile(path, [0.45, -0.3])
    assert report.converged and report.iterations >= 1
    assert path.curvature.h_inv is not h_inv
    np.testing.assert_array_equal(h_inv, kept)


def _turned(h_inv, last, index):
    """What ``_Curvature.turn`` leaves for ``h_inv`` when a path steps from ``last`` to ``index``."""
    curvature = estimators._Curvature()
    curvature.turn(np.asarray(last, dtype=float))  # no estimate yet: records the direction
    curvature.h_inv = h_inv
    curvature.turn(np.asarray(index, dtype=float))
    return curvature.h_inv


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rotation_takes_the_old_index_direction_onto_the_new(d):
    rng = np.random.default_rng(60 + d)
    eps = np.finfo(float).eps
    for _ in range(20):
        a, b = _unit(rng.standard_normal(d)), _unit(rng.standard_normal(d))
        r = estimators._rotation(a, b)
        # rounding grows as the directions near opposite, as eps / ||a + b||
        tol = 16.0 * eps / np.linalg.norm(a + b)
        assert np.linalg.norm(r @ a - b) <= tol
        assert np.abs(r @ r.T - np.eye(d)).max() <= tol
        assert np.linalg.det(r) == pytest.approx(1.0, abs=tol)
        # a plane rotation: whatever is orthogonal to both directions stays put
        basis = np.linalg.svd(np.vstack([a, b]))[2][2:]
        for w in basis:
            assert np.linalg.norm(r @ w - w) <= tol


@pytest.mark.parametrize("d", [2, 3, 4])
def test_turned_estimate_stays_symmetric_positive_definite(d):
    # R H R^T is H seen from the turned frame: symmetric to rounding, with
    # the eigenvalues of H
    rng = np.random.default_rng(70 + d)
    eps = np.finfo(float).eps
    m = rng.standard_normal((d, d))
    h_inv = m @ m.T + 0.1 * np.eye(d)
    for _ in range(20):
        a, b = rng.standard_normal((2, d)) * 0.3
        turned = _turned(h_inv, a, b)
        assert np.abs(turned - turned.T).max() <= 8.0 * eps * np.abs(h_inv).max()
        np.testing.assert_allclose(np.linalg.eigvalsh(turned), np.linalg.eigvalsh(h_inv),
                                   rtol=1e-13)
        assert np.linalg.eigvalsh(turned).min() > 0.0


@pytest.mark.parametrize("last, index", [
    ([0.3, -0.4], [-0.3, 0.4]),
    ([0.3, -0.4, 0.1], [-0.15, 0.2, -0.05]),
    ([0.3, -0.4, 0.1], [-0.9, 1.2, -0.3]),
    ([0.3, -0.4], [0.0, 0.0]),
    ([0.0, 0.0, 0.0], [0.3, -0.4, 0.1]),
    ([0.3], [-0.5]),
], ids=["antiparallel", "antiparallel-3d", "antiparallel-rounded", "to-zero", "from-zero",
        "d1-flipped"])
def test_turn_is_the_identity_without_a_plane(last, index):
    # opposite and zero indices single out no plane to turn in: the
    # estimate is carried on as it is, the same array
    if np.any(last) and np.any(index):
        assert estimators._rotation(_unit(last), _unit(index)) is None
    d = len(last)
    h_inv = np.eye(d) + 0.25 * np.ones((d, d))
    assert _turned(h_inv, last, index) is h_inv


@pytest.mark.parametrize("last, index", [
    ([0.3, -0.4], [0.15, -0.2]),
    ([0.3, -0.4, 0.1], [0.6, -0.8, 0.2]),
    ([0.3, -0.4, 0.1, 0.2], [0.09, -0.12, 0.03, 0.06]),
    ([0.3], [0.6]),
], ids=["parallel", "parallel-3d", "parallel-4d", "d1"])
def test_turn_between_parallel_indices_is_the_identity(last, index):
    # one direction, or a line, which has no other: R is I to rounding
    d = len(last)
    eps = np.finfo(float).eps
    r = estimators._rotation(_unit(last), _unit(index))
    assert np.abs(r - np.eye(d)).max() <= 4.0 * eps
    h_inv = np.eye(d) + 0.25 * np.ones((d, d))
    np.testing.assert_allclose(_turned(h_inv, last, index), h_inv, rtol=0, atol=16.0 * eps)


def test_turn_does_not_write_the_carried_estimate():
    h_inv = np.array([[2.0, 0.5], [0.5, 1.0]])
    kept = h_inv.copy()
    turned = _turned(h_inv, [0.5, 0.0], [0.0, 0.5])
    assert turned is not h_inv
    np.testing.assert_array_equal(h_inv, kept)
    # a quarter turn swaps the axes and flips the coupling
    np.testing.assert_allclose(turned, [[1.0, -0.5], [-0.5, 2.0]], rtol=0, atol=1e-15)


@pytest.mark.parametrize("measure", ["expectile", "var"])
def test_path_turns_only_the_expectile_estimate(solver_calls, measure):
    # each solve of a path starts from the estimate the solve before it left:
    # a VaR solve bit for bit (its Hessian holds no index), an expectile solve
    # turned from the last index to its own
    sample = simulate(get_preset("X3"), 2000, substream(87, "turn"))
    phi = np.linspace(0.0, 2.0 * np.pi, 17)[:-1]
    indices = 0.95 * np.column_stack([np.cos(phi), np.sin(phi)])
    _, converged = experiments._trace(sample, indices, measure, None)
    assert converged.all() and len(solver_calls) == len(indices)
    assert solver_calls[0]["h_inv_in"] is None
    for k in range(1, len(indices)):
        h_in, h_out = solver_calls[k]["h_inv_in"], solver_calls[k - 1]["h_inv_out"]
        assert h_out is not None
        if measure == "expectile":
            h_out = _turned(h_out, indices[k - 1], indices[k])
        assert h_in.tobytes() == h_out.tobytes()


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(grad_tolerance=0.0)
    # the tolerance is the one knob: the iteration cap is a class constant
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["grad_tolerance"]
    assert SolverConfig.max_iterations == 500
    with pytest.raises(TypeError):
        SolverConfig(max_iterations=500)
    # a solve starts at x0, or on a traced path where the path says
    with pytest.raises(TypeError):
        SolverConfig(initial_point=np.zeros(2))


# ---------------------------------------------------------------------------
# univariate oracles

@pytest.mark.parametrize("oracle", [univariate_expectile, univariate_quantile])
@pytest.mark.parametrize("level", [0.0, 1.0, -0.2, 1.5, np.nan, np.inf])
def test_univariate_oracles_reject_levels_outside_the_unit_interval(oracle, level):
    with pytest.raises(ValueError, match=r"level must lie in the open interval \(0, 1\)"):
        oracle(np.array([0.0, 1.0]), level)


def test_univariate_expectile_two_point_closed_form():
    # For the sample {0, 1}: alpha (1 - e) = (1 - alpha) e, so e = alpha.
    assert univariate_expectile(np.array([0.0, 1.0]), 0.8) == pytest.approx(0.8, abs=1e-9)
    assert univariate_expectile(np.array([0.0, 1.0]), 0.5) == pytest.approx(0.5, abs=1e-9)


def test_univariate_expectile_vs_scipy_brent():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(400) * 2.0 + 1.0
    for alpha in (0.1, 0.35, 0.5, 0.72, 0.9):
        def loss(c):
            w = np.where(x <= c, 1.0 - alpha, alpha)
            return float(np.mean(w * (x - c) ** 2))

        res = optimize.minimize_scalar(loss, bounds=(x.min(), x.max()), method="bounded",
                                       options={"xatol": 1e-12})
        assert univariate_expectile(x, alpha) == pytest.approx(res.x, abs=1e-7)


def test_univariate_expectile_mean_at_half():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(1000)
    assert univariate_expectile(x, 0.5) == pytest.approx(float(x.mean()), abs=1e-9)


def _exact_foc(x, alpha: float, e: float) -> Fraction:
    """G(e) of the expectile first-order condition in exact rational arithmetic."""
    a, ee = Fraction(alpha), Fraction(e)
    xs = [Fraction(v) for v in x]
    return a * sum(v - ee for v in xs if v > ee) - (1 - a) * sum(ee - v for v in xs if v < ee)


def test_univariate_expectile_foc_changes_sign_at_result():
    rng = np.random.default_rng(5)
    samples = (
        rng.standard_normal(200),
        np.round(rng.standard_normal(200), 1),  # many ties
        rng.exponential(size=60) * 1e6 + 1e9,
        np.array([0.0, 0.0, 1.0, 1.0, 1.0]),
    )
    for x in samples:
        step = 1e-12 * float(np.ptp(x))
        for alpha in (0.01, 0.3, 0.5, 0.8, 0.99):
            e = univariate_expectile(x, alpha)
            assert x.min() <= e <= x.max()
            assert _exact_foc(x, alpha, e - step) > 0 > _exact_foc(x, alpha, e + step)


@pytest.mark.parametrize("shift", [8000.0, 8300.0, 1e8])
def test_univariate_expectile_is_shift_equivariant(shift):
    # bisection to an absolute width of 1e-12 never ended once the root passed 2**13
    x = np.random.default_rng(1).standard_normal(1000)
    for alpha in (0.2, 0.8):
        assert univariate_expectile(x + shift, alpha) == pytest.approx(
            univariate_expectile(x, alpha) + shift, rel=0.0, abs=4 * np.spacing(shift)
        )


@pytest.mark.parametrize("scale", [1e-15, 1e-8, 1e3, 1e5, 1e200])
def test_univariate_expectile_is_scale_equivariant(scale):
    x = np.random.default_rng(1).standard_normal(1000)
    for alpha in (0.2, 0.8):
        assert univariate_expectile(x * scale, alpha) == pytest.approx(
            scale * univariate_expectile(x, alpha), rel=1e-14
        )


def test_univariate_expectile_single_equal_and_tied_samples():
    for alpha in (0.1, 0.5, 0.9):
        assert univariate_expectile(np.array([3.25]), alpha) == 3.25
        assert univariate_expectile(np.full(7, 0.1), alpha) == 0.1
        assert univariate_expectile(np.full(5, -8300.7), alpha) == -8300.7
    # {0.1 x 7, 0.2}: 0.9 (0.2 - e) = 0.1 * 7 (e - 0.1), so e = 0.25 / 1.6
    assert univariate_expectile(np.array([0.1] * 7 + [0.2]), 0.9) == pytest.approx(
        0.15625, rel=1e-15
    )
    # {0, 0, 1, 1, 1}: 0.25 * 3 (1 - e) = 0.75 * 2 e, so e = 1/3
    assert univariate_expectile(np.array([0.0, 0.0, 1.0, 1.0, 1.0]), 0.25) == pytest.approx(
        1.0 / 3.0, rel=1e-15
    )
    # the root sits on a tied order statistic
    assert univariate_expectile(np.array([0.0, 1.0, 1.0, 2.0]), 0.5) == 1.0


def test_univariate_quantile_pinned():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert univariate_quantile(x, 0.5) == 2.0
    assert univariate_quantile(x, 0.8) == 4.0


def test_univariate_quantile_matches_inverted_cdf():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(173)
    for q in (0.01, 0.1, 0.25, 0.5, 0.77, 0.9, 0.99):
        assert univariate_quantile(x, q) == pytest.approx(
            float(np.quantile(x, q, method="inverted_cdf")), abs=0.0
        )


def test_univariate_quantile_minimizes_check_loss():
    # Brute force over all candidate sample points.
    rng = np.random.default_rng(6)
    x = rng.standard_normal(61)
    for alpha in (0.2, 0.5, 0.8):
        vals = [np.mean(np.abs(alpha - (x <= c)) * np.abs(x - c)) for c in x]
        best = min(vals)
        got = univariate_quantile(x, alpha)
        got_val = np.mean(np.abs(alpha - (x <= got)) * np.abs(x - got))
        assert got_val <= best + 1e-12


# ---------------------------------------------------------------------------
# geometric estimators: exact reductions

def test_expectile_zero_index_is_mean():
    rng = np.random.default_rng(7)
    sample = rng.standard_normal((500, 3)) + np.array([1.0, -2.0, 0.3])
    rep = geometric_expectile(sample, np.zeros(3))
    assert rep.converged
    np.testing.assert_allclose(rep.argmin, sample.mean(axis=0), atol=1e-8)


def test_one_dimensional_expectile_reduction():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(300) * 1.5 - 0.5
    for u in (-0.8, -0.3, 0.0, 0.4, 0.9):
        rep = geometric_expectile(x[:, None], np.array([u]))
        assert rep.converged
        target = univariate_expectile(x, (1.0 + u) / 2.0)
        assert rep.argmin[0] == pytest.approx(target, abs=1e-6)


def test_one_dimensional_var_reduction():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(250)
    xs = np.sort(x)
    gaps = np.diff(xs)
    for u in (-0.6, 0.0, 0.5, 0.8):
        rep = geometric_var(x[:, None], np.array([u]))
        target = univariate_quantile(x, (1.0 + u) / 2.0)
        k = int(np.searchsorted(xs, target))
        local_gap = max(
            gaps[max(k - 1, 0)] if gaps.size else 0.0,
            gaps[min(k, gaps.size - 1)] if gaps.size else 0.0,
        )
        assert abs(rep.argmin[0] - target) <= local_gap + 1e-9


def test_var_zero_index_is_spatial_median():
    # Weiszfeld iteration as an independent oracle for the spatial median.
    rng = np.random.default_rng(10)
    sample = rng.standard_normal((400, 2)) @ np.array([[1.0, 0.4], [0.0, 0.8]])
    c = sample.mean(axis=0)
    for _ in range(400):
        d = np.linalg.norm(sample - c, axis=1)
        d = np.where(d < 1e-12, 1e-12, d)
        c = (sample / d[:, None]).sum(axis=0) / (1.0 / d).sum()
    rep = geometric_var(sample, np.zeros(2))
    np.testing.assert_allclose(rep.argmin, c, atol=1e-5)
    # A centrally symmetrised sample has its centre as spatial median.
    half = np.random.default_rng(23).standard_normal((250, 2)) + np.array([1.0, -2.0])
    centre = half.mean(axis=0)
    rep = geometric_var(np.vstack([half, 2.0 * centre - half]), np.zeros(2))
    assert np.linalg.norm(rep.argmin - centre) <= 1e-6


def test_geometric_expectile_vs_nelder_mead():
    rng = np.random.default_rng(11)
    sample = rng.standard_normal((300, 2)) * np.array([1.0, 2.0])
    alpha = np.array([0.5, -0.3])
    rep = geometric_expectile(sample, alpha)
    res = optimize.minimize(
        lambda c: empirical_objective(sample, alpha, c, "expectile"),
        sample.mean(axis=0),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 5000},
    )
    np.testing.assert_allclose(rep.argmin, res.x, atol=1e-5)
    assert rep.objective <= res.fun + 1e-10


# ---------------------------------------------------------------------------
# equivariance (quick versions; the acceptance suite runs the full grid)

def test_translation_and_scale_equivariance():
    rng = np.random.default_rng(12)
    sample = rng.standard_normal((400, 2))
    alpha = np.array([0.4, -0.2])
    base = geometric_expectile(sample, alpha).argmin
    shift = np.array([3.0, -1.0])
    np.testing.assert_allclose(
        geometric_expectile(sample + shift, alpha).argmin, base + shift, atol=1e-6
    )
    np.testing.assert_allclose(
        geometric_expectile(2.5 * sample, alpha).argmin, 2.5 * base, atol=1e-6
    )


def test_rotation_equivariance():
    rng = np.random.default_rng(13)
    sample = rng.standard_normal((400, 3))
    alpha = np.array([0.3, 0.1, -0.2])
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    base = geometric_expectile(sample, alpha).argmin
    rotated = geometric_expectile(sample @ q.T, alpha @ q.T).argmin
    np.testing.assert_allclose(rotated, q @ base, atol=1e-6)


def test_vector_sign_symmetry():
    rng = np.random.default_rng(14)
    sample = rng.standard_normal((400, 2))
    alpha = np.array([0.5, 0.2])
    base = geometric_expectile(sample, alpha).argmin
    flipped = geometric_expectile(-sample, -alpha).argmin
    np.testing.assert_allclose(flipped, -base, atol=1e-6)


def test_index_sign_symmetry_on_symmetric_sample(symmetric_sample):
    alpha = np.array([0.45, -0.25])
    center = symmetric_sample.mean(axis=0)
    plus = geometric_expectile(symmetric_sample, alpha).argmin
    minus = geometric_expectile(symmetric_sample, -alpha).argmin
    np.testing.assert_allclose((plus + minus) / 2.0, center, atol=1e-6)


# ---------------------------------------------------------------------------
# consistency against a population value

def test_univariate_normal_expectile_consistency():
    # Population expectile of N(0,1) solves alpha E(X-e)+ = (1-alpha) E(e-X)+,
    # with E(X-e)+ = pdf(e) - e (1 - cdf(e)); estimate from n = 50_000 draws.
    alpha = 0.8

    def foc(e):
        pdf = np.exp(-0.5 * e * e) / np.sqrt(2.0 * np.pi)
        upper = pdf - e * special.ndtr(-e)
        lower = pdf + e * special.ndtr(e)
        return alpha * upper - (1.0 - alpha) * lower

    pop = optimize.brentq(foc, -5.0, 5.0, xtol=1e-12)
    rng = np.random.default_rng(15)
    x = rng.standard_normal(50_000)
    assert univariate_expectile(x, alpha) == pytest.approx(pop, abs=0.02)


# ---------------------------------------------------------------------------
# degenerate inputs and validation

def test_degenerate_sample_returns_the_point():
    sample = np.tile([2.0, -1.0], (50, 1))
    rep = geometric_expectile(sample, np.array([0.4, 0.1]))
    assert rep.converged
    assert rep.stop_reason == "identical_rows"
    np.testing.assert_allclose(rep.argmin, [2.0, -1.0], atol=0.0)
    rep2 = geometric_var(sample, np.array([0.4, 0.1]))
    assert rep2.stop_reason == "identical_rows"
    np.testing.assert_allclose(rep2.argmin, [2.0, -1.0], atol=0.0)


def test_collinear_sample_flags_possible_degeneracy():
    t = np.linspace(-1.0, 1.0, 40)
    sample = np.column_stack([t, 2.0 * t])  # rank-1 cloud
    rep = geometric_var(sample, np.array([0.2, 0.1]))
    assert rep.note == "degenerate_possible"


def test_as_sample_validation():
    with pytest.raises(ValueError):
        as_sample(np.array([1.0, 2.0, 3.0]))  # 1-D rejected; callers reshape
    with pytest.raises(ValueError):
        as_sample(np.empty((0, 2)))
    with pytest.raises(ValueError):
        as_sample(np.array([[1.0, np.nan]]))
    s = as_sample([[1.0, 2.0], [3.0, 4.0]])
    assert s.shape == (2, 2)


def test_index_dimension_must_match_sample():
    rng = np.random.default_rng(16)
    sample = rng.standard_normal((30, 2))
    with pytest.raises(ValueError):
        geometric_expectile(sample, np.array([0.1, 0.1, 0.1]))


def test_collinearity_note_does_not_depend_on_sample_scale():
    normal = np.random.default_rng(0).standard_normal((500, 2))
    assert geometric_var(1e-14 * normal, np.array([0.3, 0.1])).note is None
    t = np.linspace(-1.0, 1.0, 40)
    line = np.column_stack([t, 2.0 * t])  # rank-1 cloud
    for scale in (1e-14, 1.0, 1e14):
        assert geometric_var(scale * line, np.array([0.2, 0.1])).note == "degenerate_possible"


def test_collinearity_verdict_does_not_depend_on_how_the_rows_were_centred():
    # rows on a line far from the origin: the two centrings round the mean
    # differently, and each leaves its rounding error in every row, off the line
    rng = np.random.default_rng(12)
    for _ in range(200):
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        shift = rng.standard_normal(2)
        shift *= rng.uniform(1e3, 3e4) / np.linalg.norm(shift)
        rows = shift + rng.standard_normal((200, 1)) * direction
        prep = estimators._prepare(rows)
        assert (estimators._collinear(rows - rows.mean(axis=0))
                == estimators._collinear(prep.block.T - prep.mean))


def _collinear_by_svd(centred: np.ndarray) -> bool:
    """The collinearity rule by the SVD alone, as a reference."""
    if centred.shape[0] <= 2:
        return True
    centred = centred - centred.mean(axis=0)
    svals = np.linalg.svd(centred, compute_uv=False)
    return bool(svals[1] <= 1e-12 * svals[0])


def _near_line(rng, noise: float, scale: float, shift: float = 0.0) -> np.ndarray:
    """A random d = 2-4 cloud along a line, off it by ``noise`` of its spread."""
    d = int(rng.integers(2, 5))
    n = int(rng.integers(3, 301))
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    line = rng.standard_normal((n, 1)) * direction + noise * rng.standard_normal((n, d))
    return scale * (shift * rng.standard_normal(d) + line)


def test_collinearity_certificate_agrees_with_the_svd(monkeypatch):
    svds = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        svds.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rng = np.random.default_rng(26)
    # off-line noise from 1e-16 to 1 of the spread, shifted up to 1e5
    # spreads from the origin, at scales 1e-10 to 1e10; then scales where
    # the Gram's entries or their squares near underflow or overflow
    samples = [_near_line(rng, 10.0 ** rng.uniform(-16.0, 0.0), 10.0 ** rng.uniform(-10.0, 10.0),
                          10.0 ** rng.uniform(0.0, 5.0)) for _ in range(3_000)]
    samples += [_near_line(rng, noise, scale)
                for scale in [*10.0 ** np.arange(-90.0, -73.0, 0.5), 1e150, 1e155, 1e160]
                for noise in (0.0, 1e-16, 1e-13, 1e-6) for _ in range(5)]
    verdicts, certified = [], 0
    for rows in samples:
        prep = estimators._prepare(rows)
        centred = prep.block.T - prep.mean
        before = len(svds)
        verdict = estimators._collinear(centred)
        certified += len(svds) == before
        assert verdict == _collinear_by_svd(centred)
        verdicts.append(verdict)
    # both verdicts, and both routes to "not collinear", are exercised
    assert 0 < sum(verdicts) < len(verdicts)
    assert 0 < certified < len(verdicts) - sum(verdicts)


def test_spread_samples_are_certified_without_the_svd(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the collinearity test ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", refused)
    normal = np.random.default_rng(27).standard_normal((10_000, 2))
    clayton = simulate(get_preset("Z-clayton5"), 20_000, substream(27, "clayton"))
    for sample in (normal, clayton):
        u = np.full(sample.shape[1], 0.2)
        assert geometric_var(sample, u).note is None


# ---------------------------------------------------------------------------
# the cold start of a value-at-risk solve: the extreme-index asymptote,
# taken where its objective is below the objective at the mean

def _directions(count: int, offset: float = 0.0) -> list[np.ndarray]:
    angles = offset + 2.0 * np.pi * np.arange(count) / count
    return [np.array([np.cos(a), np.sin(a)]) for a in angles]


def test_var_start_falls_back_to_the_mean_without_a_second_moment(solver_calls, monkeypatch):
    # a t1 (Cauchy) margin: E||X||^2 is infinite and the asymptote does not
    # exist.  Off the heavy axis its start lies above the objective at the
    # mean, so the solve starts at the mean after the guard's one value pass
    # (1.05-1.08x the pass states of a plain mean start here); along the
    # heavy axis it wins in 4 of 6 solves (0.52-1.0x)
    model = JointModel((StudentT(1.0), Normal()), IndependenceCopula(2))
    prep = estimators._prepare(simulate(model, 10_000, substream(91, "cauchy")))
    indices = [r * v for r in (0.3, 0.5, 0.9) for v in _directions(8)]
    for alpha in indices:
        assert geometric_var(prep, alpha).converged
    guarded = [call["states"] for call in solver_calls]
    heavy_axis = [abs(alpha[1]) < 1e-12 for alpha in indices]
    for call, on_axis in zip(solver_calls, heavy_axis):
        if not on_axis:
            assert call["grad_points"][0].tobytes() == prep.mean.tobytes()
    solver_calls.clear()
    # without a prediction every VaR solve starts at the sample mean
    monkeypatch.setattr(estimators._Prepared, "asymptote", lambda self, u: None)
    for alpha in indices:
        geometric_var(prep, alpha)
    plain = [call["states"] for call in solver_calls]
    assert all(g <= 1.25 * p for g, p in zip(guarded, plain)), (guarded, plain)


def test_var_at_the_zero_index_starts_at_the_mean(solver_calls):
    sample = np.random.default_rng(41).standard_normal((300, 2)) * [1.0, 3.0] + [5.0, -2.0]
    prep = estimators._prepare(sample)
    assert prep.asymptote(np.zeros(2)) is None
    assert geometric_var(sample, [0.0, 0.0]).converged
    assert solver_calls[0]["points"][0].tobytes() == prep.mean.tobytes()


def test_var_on_a_line_starts_at_the_mean(solver_calls):
    # identical rows never reach the solver; a collinear sample and d = 1
    # have no spread across the line, and start at the mean, bit for bit
    identical = np.tile([1.5, -0.25], (30, 1))
    assert estimators._prepare(identical).asymptote(np.array([0.6, 0.3])) is None
    assert geometric_var(identical, [0.6, 0.3]).stop_reason == "identical_rows"
    assert not solver_calls
    t = np.random.default_rng(42).standard_normal(200)
    for sample, alpha in ((np.column_stack([t, 2.0 * t + 1.0]), np.array([0.6, 0.3])),
                          (t[:, np.newaxis], np.array([0.9]))):
        solver_calls.clear()
        prep = estimators._prepare(sample)
        assert prep.asymptote(alpha) is None
        assert geometric_var(sample, alpha).note == "degenerate_possible"
        assert solver_calls[0]["points"][0].tobytes() == prep.mean.tobytes()


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_var_start_maps_with_the_sample(scale):
    # x -> s Q x + b with the index rotated alongside: the start maps the same
    # way, to rounding (the measured error is <= 3e-14 of its offset from the
    # mean), and the guard takes the same verdict
    sample = simulate(get_preset("X3"), 2_000, substream(93, "start-map"))
    turn = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    shift = scale * np.array([30.0, -70.0])
    base = estimators._prepare(sample)
    moved = estimators._prepare(scale * sample @ turn.T + shift)
    spread = math.sqrt(np.trace(np.cov(sample.T, ddof=0)))
    for alpha in [r * v for r in (0.3, 0.9, 0.999) for v in _directions(6, 0.1)]:
        start, bar = base.asymptote(alpha)
        moved_start, moved_bar = moved.asymptote(turn @ alpha)
        offset = np.linalg.norm(start - base.mean)
        error = np.linalg.norm(moved_start - (scale * turn @ start + shift))
        assert error <= 1e-12 * scale * (offset + spread)
        fun, _ = estimators._objective_closures(base, alpha, "quantile")
        moved_fun, _ = estimators._objective_closures(moved, turn @ alpha, "quantile")
        assert (fun(start) < bar) == (moved_fun(moved_start) < moved_bar)


def test_var_start_is_dropped_where_the_covariance_overflows():
    # at 1e160 the Gram matrix overflows: no prediction, and no floating-point
    # warning, and the solve from the mean still converges
    sample = 1e160 * np.random.default_rng(43).standard_normal((200, 2))
    assert estimators._prepare(sample).asymptote(np.array([0.3, 0.1])) is None
    assert geometric_var(sample, [0.3, 0.1]).converged


@pytest.mark.parametrize("name", ["X1", "X2", "X3", "X4"])
def test_var_converges_next_to_the_unit_sphere(name):
    # at ||u|| = 1 - 1e-12 the asymptote's start is within the tolerance
    # (0 iterations here), and its objective is no higher than that of a
    # solve from the mean (47-71 iterations), whose relative gradient test
    # can stop far short of the minimizer: on X3 one stops 2.7e4 from the
    # mean, where the asymptote's start lies 7.9e5 out, at 15x its objective
    gap = 1e-12
    prep = estimators._prepare(simulate(get_preset(name), 2_000, substream(95, f"sphere-{name}")))
    for v in _directions(8, 0.2):
        alpha = (1.0 - gap) * v
        report = geometric_var(prep, alpha)
        fun, grad = estimators._objective_closures(prep, alpha, "quantile")
        from_mean = minimize_convex(fun, grad, prep.mean,
                                    _curvature=estimators._Curvature(prep.nearest_atom))
        assert report.converged and from_mean.converged
        assert report.objective <= from_mean.objective


def test_cold_var_solves_keep_their_pass_count(solver_calls):
    # fresh pass states of 48 cold VaR solves (X1-X4 at n = 2,000, ||u|| 0.5,
    # 0.9 and 0.98, four directions): 422 from the asymptote's start, 614
    # from the mean; the bound fails a change that loses the start
    for name in ("X1", "X2", "X3", "X4"):
        sample = simulate(get_preset(name), 2_000, substream(94, f"pinned-{name}"))
        for r in (0.5, 0.9, 0.98):
            for v in _directions(4, 0.3):
                assert geometric_var(sample, r * v).converged
    assert len(solver_calls) == 48
    assert sum(call["states"] for call in solver_calls) <= 430


# ---------------------------------------------------------------------------
# value-at-risk minimizers on data atoms

def _subdifferential_residual(sample, u, c) -> float:
    """``||g|| - 0.5 m / n`` at ``c``, with g the public (sub)gradient and m the
    rows exactly equal to ``c``.  The public gradient gives each such row the
    value ``-0.5 u / n``, so ``0`` lies in the VaR subdifferential at ``c`` iff
    the residual is at most 0."""
    sample = np.asarray(sample, dtype=float)
    g = float(np.linalg.norm(empirical_objective_grad(sample, u, c, "quantile")))
    atoms = int(np.count_nonzero(np.all(sample == c, axis=1)))
    return g - 0.5 * atoms / sample.shape[0]


def _assert_optimal_at_atom(sample, u, rep, multiplicity):
    assert rep.converged
    assert rep.stop_reason == "optimal_at_atom"
    assert int(np.count_nonzero(np.all(sample == rep.argmin, axis=1))) == multiplicity
    assert _subdifferential_residual(sample, u, rep.argmin) <= 1e-12


def test_var_on_a_single_atom_equals_the_univariate_quantile():
    # n * level = 187.5 is not an integer: the minimizer is one data point
    x = np.random.default_rng(9).standard_normal(250)
    rep = geometric_var(x[:, None], [0.5])
    _assert_optimal_at_atom(x[:, None], [0.5], rep, 1)
    assert rep.argmin[0] == univariate_quantile(x, 0.75)
    assert rep.iterations < SolverConfig().max_iterations


def test_var_on_a_tied_integer_grid():
    grid = np.repeat(np.arange(4.0), 5)[:, None]
    rep = geometric_var(grid, [0.3])
    _assert_optimal_at_atom(grid, [0.3], rep, 5)
    assert rep.argmin[0] == univariate_quantile(grid[:, 0], 0.65) == 2.0


def test_var_in_one_dimension_notes_a_flat_minimizer_set():
    # every 1-D sample is collinear: on rows 1, 2, 3, 4 the objective is flat
    # on [2, 3] at u = 0, on [3, 4] at 0.5 and on [1, 2] at -0.5, and the
    # point returned from each set carries the note
    rows = np.array([[1.0], [2.0], [3.0], [4.0]])
    for u, (lo, hi) in ((0.0, (2.0, 3.0)), (0.5, (3.0, 4.0)), (-0.5, (1.0, 2.0))):
        rep = geometric_var(rows, [u])
        assert rep.converged and lo <= rep.argmin[0] <= hi
        assert rep.note == "degenerate_possible"


def test_var_on_a_heavy_atom_in_two_dimensions():
    sample = _heavy_atom_sample()
    for u in ([0.3, 0.2], [-0.4, 0.1], [0.0, 0.0]):
        rep = geometric_var(sample, u)
        _assert_optimal_at_atom(sample, u, rep, 60)
        np.testing.assert_array_equal(rep.argmin, [1.0, 2.0])
        assert rep.note is None


def test_bare_solve_tests_atoms_by_its_path_state(monkeypatch):
    # the atom rule is the path state's: a bare minimize_convex whose state
    # carries the sample's atom finder returns the heavy atom row exactly,
    # and one whose state carries none looks for no atom, and stagnates there
    prep = estimators._prepare(_heavy_atom_sample())
    fun, grad = estimators._objective_closures(prep, np.array([0.3, 0.2]), "quantile")
    found = []
    real = estimators._Prepared.nearest_atom
    monkeypatch.setattr(estimators._Prepared, "nearest_atom",
                        lambda self, x: found.append(x.copy()) or real(self, x))
    rep = minimize_convex(fun, grad, prep.mean, _curvature=estimators._Curvature(prep.nearest_atom))
    assert found and rep.converged and rep.stop_reason == "optimal_at_atom"
    assert rep.argmin.tobytes() == np.array([1.0, 2.0]).tobytes()
    found.clear()
    bare = minimize_convex(fun, grad, prep.mean)
    assert not found and not bare.converged and bare.stop_reason == "stagnation"


def test_var_of_two_points_is_the_endpoint_along_the_index():
    # on the segment the loss is linear in c, so the endpoint further along u wins
    sample = np.array([[0.0, 0.0], [1.0, 1.0]])
    rep = geometric_var(sample, [0.2, 0.1])
    _assert_optimal_at_atom(sample, [0.2, 0.1], rep, 1)
    np.testing.assert_array_equal(rep.argmin, [1.0, 1.0])
    assert rep.note == "degenerate_possible"


def test_var_does_not_certify_an_atom_that_fails_the_test(monkeypatch):
    # a smooth minimizer off the data: the nearest row is tried at the
    # iteration cap and must be rejected
    sample = np.random.default_rng(4).standard_normal((300, 2))
    u = [0.3, -0.2]
    with monkeypatch.context() as patched:
        patched.setattr(SolverConfig, "max_iterations", 2)
        rep = geometric_var(sample, u)
    assert not rep.converged
    assert rep.stop_reason == "max_iterations"
    assert not np.any(np.all(sample == rep.argmin, axis=1))
    nearest = sample[np.argmin(np.linalg.norm(sample - rep.argmin, axis=1))]
    assert _subdifferential_residual(sample, u, nearest) > 0.0
    full = geometric_var(sample, u)
    assert full.stop_reason == "converged"
    assert not np.any(np.all(sample == full.argmin, axis=1))


def test_iteration_cap_on_a_passing_gradient_reports_converged(monkeypatch):
    # the one allowed step lands on the minimum; the cap ends the loop before
    # the gradient test runs, so the test after the loop decides
    monkeypatch.setattr(SolverConfig, "max_iterations", 1)
    report = minimize_convex(lambda x: 0.5 * float(x @ x), lambda x: x.copy(),
                             np.array([3.0, -4.0]))
    assert (report.converged, report.stop_reason, report.iterations) == (True, "converged", 1)
    assert report.grad_norm == 0.0


def test_univariate_measures_take_a_single_column():
    x = np.random.default_rng(5).standard_normal(50)
    for measure in (univariate_expectile, univariate_quantile):
        assert measure(x[:, np.newaxis], 0.7) == measure(x, 0.7)


# ---------------------------------------------------------------------------
# every check that no test above reaches: id -> (call, exception, message)

_PAIR = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])

_REJECTED = {
    "objective-kind": (lambda: empirical_objective(_PAIR, [0.1, 0.0], [0.0, 0.0], "median"),
                       ValueError, "kind must be one of ('expectile', 'quantile')"),
    "objective-dimensions": (
        lambda: empirical_objective(_PAIR, [0.1, 0.0], [0.0, 0.0, 0.0]),
        ValueError,
        "sample, index and location dimensions must agree",
    ),
    "objective-location": (lambda: empirical_objective_grad(_PAIR, [0.1, 0.0], [np.nan, 0.0]),
                           ValueError, "location must be finite"),
    "univariate-shape": (lambda: univariate_expectile(_PAIR, 0.7), ValueError,
                         "univariate sample must be a 1-D array with n >= 1"),
    "univariate-finite": (lambda: univariate_quantile([1.0, np.nan], 0.7), ValueError,
                          "sample entries must be finite"),
}


@pytest.mark.parametrize("call, error, message", _REJECTED.values(), ids=_REJECTED.keys())
def test_rejected_input_raises_its_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message
