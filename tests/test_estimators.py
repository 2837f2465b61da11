"""Estimators: empirical objectives, the convex solver, and the multivariate
minimizers against independent oracles (scipy optimizers, Weiszfeld iteration,
order statistics)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import optimize, special

from geomrisk import (
    SolveReport,
    SolverConfig,
    as_sample,
    empirical_objective,
    empirical_objective_grad,
    expectile_loss,
    expectile_loss_grad,
    geometric_expectile,
    geometric_var,
    minimize_convex,
    quantile_loss,
    quantile_loss_subgrad,
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
    np.testing.assert_allclose(rep.argmin, a, atol=1e-7)
    assert rep.objective == pytest.approx(0.0, abs=1e-12)
    assert rep.iterations <= 50


def test_minimize_convex_reports_non_convergence():
    # Ill-conditioned quadratic cannot meet a tight tolerance in two steps.
    scale = np.array([1.0, 1e4])

    def fun(x):
        return float(0.5 * np.sum(scale * x**2))

    def grad(x):
        return scale * x

    cfg = SolverConfig(max_iterations=2, grad_tolerance=1e-12)
    rep = minimize_convex(fun, grad, np.array([1.0, 1.0]), cfg)
    assert isinstance(rep, SolveReport)
    assert not rep.converged
    assert rep.iterations == 2


def test_minimize_convex_respects_initial_point():
    def fun(x):
        return float(np.sum((x - 3.0) ** 2))

    def grad(x):
        return 2.0 * (x - 3.0)

    cfg = SolverConfig(initial_point=np.array([2.9, 3.1]))
    rep = minimize_convex(fun, grad, np.zeros(2), cfg)
    assert rep.converged
    np.testing.assert_allclose(rep.argmin, [3.0, 3.0], atol=1e-7)
    # started at the minimizer, the solver takes no step away from x0 = 0
    rep = minimize_convex(fun, grad, np.zeros(2), SolverConfig(initial_point=np.array([3.0, 3.0])))
    assert rep.iterations == 0
    np.testing.assert_array_equal(rep.argmin, [3.0, 3.0])
    with pytest.raises(ValueError, match="initial_point"):
        minimize_convex(fun, grad, np.zeros(2), SolverConfig(initial_point=np.array([np.nan, 3.0])))
    with pytest.raises(ValueError, match="initial_point"):
        minimize_convex(fun, grad, np.zeros(2), SolverConfig(initial_point=np.zeros(3)))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(grad_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)


# ---------------------------------------------------------------------------
# univariate oracles

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
    np.testing.assert_allclose(rep.argmin, [2.0, -1.0], atol=0.0)
    rep2 = geometric_var(sample, np.array([0.4, 0.1]))
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
