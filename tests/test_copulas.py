"""Copulas: closed-form Kendall taus (with an independent Debye integral),
sampler calibration via rank correlation, diagonal-probability oracles, and
marginal uniformity."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import integrate, stats

from geomrisk import (
    ClaytonCopula,
    FrankCopula,
    GumbelCopula,
    IndependenceCopula,
    substream,
)

N_BIG = 100_000


# ---------------------------------------------------------------------------
# closed-form taus

def test_tau_closed_forms():
    assert IndependenceCopula(2).kendall_tau() == 0.0
    assert ClaytonCopula(5.0, 2).kendall_tau() == pytest.approx(5.0 / 7.0, rel=1e-12)
    assert GumbelCopula(2.0, 2).kendall_tau() == pytest.approx(0.5, rel=1e-12)
    assert GumbelCopula(1.0, 2).kendall_tau() == 0.0


def test_frank_tau_against_trapezoid_debye():
    # Independent oracle: tau = 1 + 4 (D1(theta) - 1)/theta with
    # D1(t) = (1/t) int_0^t s/(e^s - 1) ds on a dense trapezoid grid.
    for theta in (0.5, 3.0, 10.0):
        s = np.linspace(1e-12, theta, 400_001)
        d1 = integrate.trapezoid(s / np.expm1(s), s) / theta
        target = 1.0 + 4.0 * (d1 - 1.0) / theta
        assert FrankCopula(theta, 2).kendall_tau() == pytest.approx(target, abs=1e-9)


def test_frank_tau_sign_antisymmetry():
    assert FrankCopula(-3.0, 2).kendall_tau() == pytest.approx(
        -FrankCopula(3.0, 2).kendall_tau(), abs=1e-12
    )


# ---------------------------------------------------------------------------
# sampler calibration: rank correlation matches the closed form

@pytest.mark.parametrize(
    "copula, tol",
    [
        (ClaytonCopula(5.0, 2), 0.01),
        (GumbelCopula(2.0, 2), 0.01),
        (FrankCopula(3.0, 2), 0.015),
        (FrankCopula(-3.0, 2), 0.015),
        (IndependenceCopula(2), 0.015),
    ],
    ids=["clayton5", "gumbel2", "frank3", "frank-neg3", "independence"],
)
def test_sample_tau_matches_closed_form(copula, tol):
    u = copula.sample(N_BIG, substream(2024, f"tau-{type(copula).__name__}-{copula.theta if hasattr(copula, 'theta') else 0}"))
    emp = stats.kendalltau(u[:, 0], u[:, 1]).statistic
    assert emp == pytest.approx(copula.kendall_tau(), abs=tol)


def test_higher_dimension_pairwise_taus_are_exchangeable():
    cop = ClaytonCopula(5.0, 4)
    u = cop.sample(40_000, substream(2025, "tau-4d"))
    target = cop.kendall_tau()
    for i in range(4):
        for j in range(i + 1, 4):
            emp = stats.kendalltau(u[:, i], u[:, j]).statistic
            assert emp == pytest.approx(target, abs=0.02)


# ---------------------------------------------------------------------------
# diagonal-probability oracles: P(U1<=u, U2<=u) has a closed form

def _diag_check(copula, exact_fn, stage):
    u = copula.sample(N_BIG, substream(99, stage))
    for q in (0.25, 0.5, 0.75):
        exact = exact_fn(q)
        emp = float(np.mean((u[:, 0] <= q) & (u[:, 1] <= q)))
        se = np.sqrt(exact * (1.0 - exact) / N_BIG)
        assert abs(emp - exact) <= 4.0 * se


def test_clayton_diagonal_probability():
    theta = 5.0
    _diag_check(
        ClaytonCopula(theta, 2),
        lambda q: (2.0 * q**-theta - 1.0) ** (-1.0 / theta),
        "diag-clayton5",
    )


def test_gumbel_diagonal_probability():
    theta = 2.0
    _diag_check(
        GumbelCopula(theta, 2),
        lambda q: q ** (2.0 ** (1.0 / theta)),
        "diag-gumbel2",
    )


def test_frank_diagonal_probability():
    theta = 3.0
    _diag_check(
        FrankCopula(theta, 2),
        lambda q: -np.log1p((np.exp(-theta * q) - 1.0) ** 2 / np.expm1(-theta)) / theta,
        "diag-frank3",
    )


def test_gumbel_theta_one_is_independence():
    u = GumbelCopula(1.0, 2).sample(N_BIG, substream(99, "diag-gumbel1"))
    emp = float(np.mean((u[:, 0] <= 0.5) & (u[:, 1] <= 0.5)))
    se = np.sqrt(0.25 * 0.75 / N_BIG)
    assert abs(emp - 0.25) <= 4.0 * se


# ---------------------------------------------------------------------------
# marginal uniformity and ranges

@pytest.mark.parametrize(
    "copula",
    [ClaytonCopula(5.0, 2), GumbelCopula(2.0, 2), FrankCopula(3.0, 2),
     FrankCopula(-3.0, 2), ClaytonCopula(5.0, 4)],
    ids=["clayton5", "gumbel2", "frank3", "frank-neg3", "clayton5-4d"],
)
def test_marginal_uniformity_ks_at_one_percent(copula):
    n = 50_000
    u = copula.sample(n, substream(7, f"unif-{type(copula).__name__}-{copula.theta}-{copula.dim}"))
    crit = 1.63 / np.sqrt(n)  # 1% asymptotic critical value
    for j in range(u.shape[1]):
        assert stats.kstest(u[:, j], "uniform").statistic <= crit


def test_samples_strictly_inside_unit_cube():
    for cop in (ClaytonCopula(5.0, 3), GumbelCopula(4.0, 2), FrankCopula(-8.0, 2)):
        u = cop.sample(20_000, substream(8, f"range-{type(cop).__name__}"))
        assert np.all(u > 0.0)
        assert np.all(u < 1.0)
        assert u.shape == (20_000, cop.dim)


def test_sampling_is_deterministic():
    cop = GumbelCopula(2.0, 2)
    a = cop.sample(64, substream(5, "det"))
    b = cop.sample(64, substream(5, "det"))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# validation

def test_parameter_validation():
    with pytest.raises(ValueError):
        ClaytonCopula(0.0, 2)
    with pytest.raises(ValueError):
        ClaytonCopula(-1.0, 2)
    with pytest.raises(ValueError):
        GumbelCopula(0.9, 2)
    with pytest.raises(ValueError):
        FrankCopula(0.0, 2)
    with pytest.raises(ValueError):
        FrankCopula(-3.0, 3)  # negative dependence only exists pairwise
    with pytest.raises(ValueError):
        ClaytonCopula(2.0, 1)
