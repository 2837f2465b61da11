"""Margins: quantile/cdf round trips, closed-form moments, sampling laws
(Kolmogorov-Smirnov and moment checks), independent scipy oracles."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import integrate, stats

from geomrisk import (
    Exponential,
    Gumbel,
    Logistic,
    Normal,
    SkewNormal,
    StudentT,
    Uniform,
    has_finite_second_moment,
    substream,
)

ALL_MARGINS = (
    Normal(0.0, 1.0),
    Normal(-2.0, 3.0),
    StudentT(4.0),
    SkewNormal(-1.0, 1.0, 2.0),
    SkewNormal(0.5, 2.0, -3.0),
    Gumbel(1.0, 2.0),
    Logistic(-1.0, 0.5),
    Exponential(0.1),
    Uniform(-1.0, 3.0),
)

FINITE_FOURTH_MOMENT = tuple(m for m in ALL_MARGINS if not isinstance(m, StudentT))


# ---------------------------------------------------------------------------
# pinned values

def test_exponential_quantile_pinned():
    # P(X <= 10) = 1 - e^{-1} for rate 1/10.
    assert Exponential(0.1).quantile(1.0 - np.exp(-1.0)) == pytest.approx(
        10.0, rel=1e-12
    )


def test_normal_quantile_median_and_symmetry():
    m = Normal(-2.0, 3.0)
    assert m.quantile(0.5) == pytest.approx(-2.0, abs=1e-12)
    assert m.quantile(0.975) == pytest.approx(-2.0 + 3.0 * 1.959963984540054, abs=1e-9)


def test_uniform_cdf_is_linear():
    m = Uniform(-1.0, 3.0)
    x = np.linspace(-1.0, 3.0, 9)
    np.testing.assert_allclose(m.cdf(x), (x + 1.0) / 4.0, atol=1e-14)


def test_skew_normal_mean_closed_form():
    m = SkewNormal(-1.0, 1.0, 2.0)
    delta = 2.0 / np.sqrt(5.0)
    assert m.mean() == pytest.approx(-1.0 + delta * np.sqrt(2.0 / np.pi), rel=1e-12)


def test_closed_form_variances():
    assert StudentT(4.0).var() == pytest.approx(2.0, rel=1e-12)
    assert Gumbel(1.0, 2.0).var() == pytest.approx(np.pi**2 / 6.0 * 4.0, rel=1e-12)
    assert Logistic(-1.0, 0.5).var() == pytest.approx(np.pi**2 / 3.0 * 0.25, rel=1e-12)
    assert Exponential(0.1).var() == pytest.approx(100.0, rel=1e-12)
    assert Uniform(-1.0, 3.0).var() == pytest.approx(16.0 / 12.0, rel=1e-12)
    m = SkewNormal(0.0, 2.0, 1.0)
    delta2 = 0.5
    assert m.var() == pytest.approx(4.0 * (1.0 - 2.0 * delta2 / np.pi), rel=1e-12)


# ---------------------------------------------------------------------------
# round trips and oracle comparisons

@pytest.mark.parametrize("margin", ALL_MARGINS, ids=lambda m: type(m).__name__ + repr(m)[:20])
def test_cdf_quantile_round_trip(margin):
    p = np.arange(0.01, 0.995, 0.01)
    x = margin.quantile(p)
    np.testing.assert_allclose(margin.cdf(x), p, atol=1e-8)


def test_quantile_is_monotone():
    p = np.linspace(0.001, 0.999, 200)
    for margin in ALL_MARGINS:
        q = margin.quantile(p)
        assert np.all(np.diff(q) > 0.0)


def test_student_t_against_scipy():
    m = StudentT(4.0)
    p = np.array([0.05, 0.3, 0.5, 0.8, 0.99])
    np.testing.assert_allclose(m.quantile(p), stats.t.ppf(p, 4.0), rtol=1e-10)
    x = np.array([-2.0, 0.0, 1.5])
    np.testing.assert_allclose(m.cdf(x), stats.t.cdf(x, 4.0), rtol=1e-10)


def test_skew_normal_against_scipy():
    m = SkewNormal(-1.0, 1.5, 2.0)
    for p in (0.05, 0.25, 0.5, 0.9, 0.99):
        assert m.quantile(p) == pytest.approx(
            stats.skewnorm.ppf(p, 2.0, loc=-1.0, scale=1.5), abs=1e-8
        )


def test_skew_normal_cdf_against_quadrature():
    # Independent oracle: integrate the density 2/w phi(z) Phi(shape z).
    m = SkewNormal(0.5, 2.0, -3.0)

    def pdf(x):
        z = (x - 0.5) / 2.0
        return (
            2.0 / 2.0
            * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
            * stats.norm.cdf(-3.0 * z)
        )

    for x in (-2.0, 0.0, 1.0, 3.0):
        val, _ = integrate.quad(pdf, -np.inf, x)
        assert m.cdf(x) == pytest.approx(val, abs=1e-9)


def test_gumbel_and_logistic_cdf_forms():
    x = np.array([-1.0, 0.0, 2.5])
    g = Gumbel(1.0, 2.0)
    np.testing.assert_allclose(
        g.cdf(x), np.exp(-np.exp(-(x - 1.0) / 2.0)), rtol=1e-12
    )
    l = Logistic(-1.0, 0.5)
    np.testing.assert_allclose(
        l.cdf(x), 1.0 / (1.0 + np.exp(-(x + 1.0) / 0.5)), rtol=1e-12
    )


# ---------------------------------------------------------------------------
# sampling laws

@pytest.mark.parametrize("margin", ALL_MARGINS, ids=lambda m: type(m).__name__ + repr(m)[:20])
def test_sampling_kolmogorov_smirnov(margin):
    n = 10_000
    rng = substream(516, f"ks-{type(margin).__name__}-{hash(margin) & 0xffff}")
    x = margin.sample(n, rng)
    stat = stats.kstest(x, margin.cdf).statistic
    assert stat <= 1.36 / np.sqrt(n)  # 5% asymptotic critical value


def test_sampling_mean_within_four_se():
    n = 100_000
    for margin in ALL_MARGINS:
        rng = substream(616, f"mean-{type(margin).__name__}-{hash(margin) & 0xffff}")
        x = margin.sample(n, rng)
        se = x.std(ddof=1) / np.sqrt(n)
        assert abs(x.mean() - margin.mean()) <= 4.0 * se


def test_sampling_variance_within_four_se():
    # Variance comparison needs a finite fourth moment for the error bar.
    n = 100_000
    for margin in FINITE_FOURTH_MOMENT:
        rng = substream(717, f"var-{type(margin).__name__}-{hash(margin) & 0xffff}")
        x = margin.sample(n, rng)
        s2 = x.var(ddof=1)
        m4 = np.mean((x - x.mean()) ** 4)
        se = np.sqrt(max(m4 - s2 * s2, 0.0) / n)
        assert abs(s2 - margin.var()) <= 4.0 * se


def test_skew_normal_sample_mean_within_three_se():
    m = SkewNormal(-1.0, 1.0, 2.0)
    n = 50_000
    x = m.sample(n, substream(818, "sn-mean"))
    se = x.std(ddof=1) / np.sqrt(n)
    assert abs(x.mean() - m.mean()) <= 3.0 * se


def test_sampling_is_deterministic():
    m = Normal(0.0, 1.0)
    a = m.sample(100, substream(1, "same"))
    b = m.sample(100, substream(1, "same"))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# moment existence and validation

def test_second_moment_flags():
    assert has_finite_second_moment(Normal(0, 1))
    assert has_finite_second_moment(StudentT(2.1))
    assert not has_finite_second_moment(StudentT(2.0))
    assert not has_finite_second_moment(StudentT(1.5))


def test_student_t_small_nu_has_no_variance():
    with pytest.raises(ValueError):
        StudentT(2.0).var()


def test_constructor_validation():
    with pytest.raises(ValueError):
        Normal(0.0, 0.0)
    with pytest.raises(ValueError):
        StudentT(0.0)
    with pytest.raises(ValueError):
        Exponential(-1.0)
    with pytest.raises(ValueError):
        Uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        SkewNormal(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Gumbel(0.0, 0.0)
    with pytest.raises(ValueError):
        Logistic(0.0, -2.0)


def test_quantile_domain_errors():
    with pytest.raises(ValueError):
        Normal(0, 1).quantile(0.0)
    with pytest.raises(ValueError):
        Normal(0, 1).quantile(1.0)
