"""Copulas: closed-form Kendall taus (with an independent Debye integral),
sampler calibration via rank correlation, diagonal-probability oracles, and
marginal uniformity."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import integrate, stats

from geomrisk import copulas
from geomrisk import (
    ClaytonCopula,
    FrankCopula,
    GumbelCopula,
    IndependenceCopula,
    substream,
)

from sampling import copula_sample

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
    u = copula_sample(copula, N_BIG, substream(2024, f"tau-{type(copula).__name__}-{copula.theta if hasattr(copula, 'theta') else 0}"))
    emp = stats.kendalltau(u[:, 0], u[:, 1]).statistic
    assert emp == pytest.approx(copula.kendall_tau(), abs=tol)


def test_higher_dimension_pairwise_taus_are_exchangeable():
    cop = ClaytonCopula(5.0, 4)
    u = copula_sample(cop, 40_000, substream(2025, "tau-4d"))
    target = cop.kendall_tau()
    for i in range(4):
        for j in range(i + 1, 4):
            emp = stats.kendalltau(u[:, i], u[:, j]).statistic
            assert emp == pytest.approx(target, abs=0.02)


# ---------------------------------------------------------------------------
# diagonal-probability oracles: P(U1<=u, U2<=u) has a closed form

def _diag_check(copula, exact_fn, stage):
    u = copula_sample(copula, N_BIG, substream(99, stage))
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
    u = copula_sample(GumbelCopula(1.0, 2), N_BIG, substream(99, "diag-gumbel1"))
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
    u = copula_sample(copula, n, substream(7, f"unif-{type(copula).__name__}-{copula.theta}-{copula.dim}"))
    crit = 1.63 / np.sqrt(n)  # 1% asymptotic critical value
    for j in range(u.shape[1]):
        assert stats.kstest(u[:, j], "uniform").statistic <= crit


@pytest.mark.parametrize(
    "copula",
    [FrankCopula(38.0, 2), FrankCopula(50.0, 4), FrankCopula(200.0, 2), FrankCopula(700.0, 2),
     GumbelCopula(80.0, 2), GumbelCopula(200.0, 4), GumbelCopula(1e3, 2), GumbelCopula(1e4, 2),
     ClaytonCopula(1e3, 2), ClaytonCopula(1e3, 4), ClaytonCopula(1e4, 2), ClaytonCopula(1e4, 4)],
    ids=["frank38", "frank50-4d", "frank200", "frank700",
         "gumbel80", "gumbel200-4d", "gumbel1e3", "gumbel1e4",
         "clayton1e3", "clayton1e3-4d", "clayton1e4", "clayton1e4-4d"],
)
def test_strong_dependence_keeps_uniform_margins_and_tau(copula):
    # the frailty samplers stay in floating range up to the largest theta:
    # Frank's p = 1 - exp(-theta) rounds to 1 above theta ~ 37.4, Gumbel's
    # stable frailty overflows its 1/alpha power above theta ~ 80, and
    # Clayton's Gamma(1/theta) frailty underflows above theta ~ 18
    n = 20_000
    u = copula_sample(copula, n, substream(9, f"strong-{type(copula).__name__}-{copula.theta}-{copula.dim}"))
    assert np.all((u > 0.0) & (u < 1.0))
    crit = 1.63 / np.sqrt(n)  # 1% asymptotic critical value
    for j in range(copula.dim):
        assert stats.kstest(u[:, j], "uniform").statistic <= crit
    # Var(tau_hat) <= 2 (1 - tau^2) / n
    target = copula.kendall_tau()
    bound = 4.0 * np.sqrt(2.0 * (1.0 - target**2) / n)
    for i in range(copula.dim):
        for j in range(i + 1, copula.dim):
            assert abs(stats.kendalltau(u[:, i], u[:, j]).statistic - target) <= bound


def test_log1mexp_matches_mpmath_on_both_sides_of_log2():
    # Frank's frailty and generator run through log(1 - exp(-x)): its two
    # branches meet at log 2, and the ends lose everything if 1 - exp(-x)
    # is rounded; below the normal floats (x > ~708) the answer is subnormal
    mpmath = pytest.importorskip("mpmath")
    around = copulas._LOG2 * (1.0 + np.arange(-4, 5) * np.finfo(float).eps)
    x = np.concatenate([np.geomspace(1e-300, 745.0, 241), around])
    got = copulas._log1mexp(x)
    with mpmath.workdps(400):  # 1 - exp(-745) needs ~330 digits
        ref = np.array([float(mpmath.log(-mpmath.expm1(-mpmath.mpf(v)))) for v in x])
    normal = np.abs(ref) >= np.finfo(float).tiny
    assert np.all(np.abs(got - ref)[normal] <= 2.0 * np.finfo(float).eps * np.abs(ref)[normal])
    assert np.all(got[~normal] == ref[~normal])


def test_log1mexp_equals_the_two_branch_form_bit_for_bit():
    # each branch runs on its own elements, in place; the result must be the
    # elementwise choice between both branches evaluated everywhere
    def two_branch(x):
        with np.errstate(divide="ignore"):
            return np.where(x < copulas._LOG2, np.log(-np.expm1(-x)), np.log1p(-np.exp(-x)))

    log2 = copulas._LOG2
    edge = np.array([0.0, 5e-324, np.nextafter(log2, 0.0), log2, np.nextafter(log2, 1.0),
                     700.0, 1e300])
    rng = np.random.default_rng(31)
    spread = rng.standard_exponential((500, 4)) * rng.choice([0.05, 1.0, 30.0], size=(500, 1))
    for x in (edge, spread, np.empty(0), np.array(log2), np.array(3.0)):
        want = two_branch(x)
        got = copulas._log1mexp(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        inplace = x.copy()
        assert copulas._log1mexp(inplace, out=inplace) is inplace
        assert inplace.tobytes() == want.tobytes()
    assert copulas._log1mexp(3.0).tobytes() == two_branch(np.array(3.0)).tobytes()


def test_samples_strictly_inside_unit_cube():
    for cop in (ClaytonCopula(5.0, 3), GumbelCopula(4.0, 2), FrankCopula(-8.0, 2)):
        u = copula_sample(cop, 20_000, substream(8, f"range-{type(cop).__name__}"))
        assert np.all(u > 0.0)
        assert np.all(u < 1.0)
        assert u.shape == (20_000, cop.dim)


def test_sampling_is_deterministic():
    cop = GumbelCopula(2.0, 2)
    a = copula_sample(cop, 64, substream(5, "det"))
    b = copula_sample(cop, 64, substream(5, "det"))
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


def test_theta_must_be_a_normal_double():
    # below the normal doubles Clayton's 1/theta overflows and its draws all
    # sit at the upper floor, and Frank's draws tie; at the smallest normal
    # theta both still draw distinct values inside the floor
    tiny = np.finfo(float).tiny
    for theta in (np.nextafter(tiny, 0.0), 5e-309, 1e-320, 5e-324):
        with pytest.raises(ValueError, match="ClaytonCopula requires theta >= .*a normal double"):
            ClaytonCopula(theta, 2)
        for sign in (1.0, -1.0):
            with pytest.raises(ValueError, match=r"FrankCopula requires \|theta\| >= "):
                FrankCopula(sign * theta, 2)
    for cop in (ClaytonCopula(tiny, 2), FrankCopula(tiny, 2), FrankCopula(-tiny, 2)):
        u = copula_sample(cop, 20_000, substream(10, f"tiny-{type(cop).__name__}-{cop.theta}"))
        assert np.unique(u).size == u.size
        assert np.all((u >= 1e-15) & (u <= 1.0 - 1e-16))


# ---------------------------------------------------------------------------
# every check that no test above reaches: id -> (call, exception, message)

_REJECTED = {
    "independence-dim": (lambda: IndependenceCopula(0), ValueError,
                         "IndependenceCopula requires dim >= 1"),
    "gumbel-dim": (lambda: GumbelCopula(2.0, 1), ValueError, "GumbelCopula requires dim >= 2"),
    "frank-dim": (lambda: FrankCopula(2.0, 1), ValueError, "FrankCopula requires dim >= 2"),
    "frank-theta-above": (lambda: FrankCopula(700.5, 2), ValueError,
                          "FrankCopula requires |theta| <= 700"),
    "frank-theta-below": (lambda: FrankCopula(-701.0, 2), ValueError,
                          "FrankCopula requires |theta| <= 700"),
}


@pytest.mark.parametrize("call, error, message", _REJECTED.values(), ids=_REJECTED.keys())
def test_rejected_input_raises_its_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message
