"""Margins: quantile/cdf round trips, closed-form moments, sampling laws
(Kolmogorov-Smirnov and moment checks of draws through ``simulate``),
independent scipy oracles."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ndtr, ndtri

import geomrisk
import geomrisk.distributions as distributions_module

from geomrisk import (
    Exponential,
    Gumbel,
    IndependenceCopula,
    JointModel,
    Logistic,
    Normal,
    SkewNormal,
    StudentT,
    Uniform,
    has_finite_second_moment,
    simulate,
    substream,
)

from sampling import copula_sample

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


def _draw(margin, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` draws of ``margin`` the one way the package draws: through ``simulate``."""
    return simulate(JointModel((margin,), IndependenceCopula(1)), n, rng)[:, 0]


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


def test_skew_normal_moments_at_a_huge_shape():
    # shape**2 overflows a float at the shape bound; delta must still be 1
    bound = distributions_module._MAX_SHAPE
    m = SkewNormal(0.0, 1.0, bound)
    assert abs(m.mean() - np.sqrt(2.0 / np.pi)) <= 1e-15
    assert abs(m.var() - (1.0 - 2.0 / np.pi)) <= 1e-15
    assert SkewNormal(0.0, 1.0, -bound).delta == -1.0
    assert np.all(_draw(m, 100, substream(1, "huge-shape")) >= 0.0)


@pytest.mark.parametrize("sign", (1.0, -1.0), ids=("positive", "negative"))
def test_skew_normal_draws_at_the_shape_bound_are_the_half_normal_limit(sign):
    # the limit sign |Z| has the quantile -Phi^-1((1 - p) / 2) for sign +1 and
    # Phi^-1(p / 2) for -1; any warning fails (filterwarnings = error)
    def limit(p):
        return -ndtri(0.5 * (1.0 - p)) if sign > 0 else ndtri(0.5 * p)

    m = SkewNormal(0.0, 1.0, sign * distributions_module._MAX_SHAPE)
    x = _draw(m, 10_000, substream(33, "shape-bound"))
    # the same uniforms, and the ends of the copula's clip
    u = copula_sample(IndependenceCopula(1), 10_000, substream(33, "shape-bound"))[:, 0]
    p = np.array([1e-15, 1.0 - 1e-16])
    assert np.all(np.sign(x) == sign)
    for got, want in ((x, limit(u)), (m.quantile(p), limit(p))):
        assert np.all(np.abs(got - want) <= 8.0 * EPS * np.maximum(1.0, np.abs(want)))


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


# ---------------------------------------------------------------------------
# normal (AS 241) and Student t4 (closed form) quantiles in NumPy

# both tails log-spaced out to 1e-300 and 1 - 2^-53, across the AS 241 branch
# points |p - 1/2| = 0.425 and p = e^-25, and 1/2 +- 2^-k; 1/2 itself is left
# out so that every relative error is defined
_HALF_OFFSETS = 2.0 ** -np.arange(2, 54)
NORMAL_P_GRID = np.concatenate(
    [
        np.logspace(-300.0, np.log10(0.49), 400),
        1.0 - np.logspace(np.log10(0.49), np.log10(2.0**-53), 300),
        [0.075, 0.925, np.exp(-25.0), 1.0 - np.exp(-25.0)],
        0.5 + _HALF_OFFSETS,
        0.5 - _HALF_OFFSETS,
    ]
)
# dyadic p, so that 1 - p is exact
DYADIC_P = np.concatenate([np.arange(1, 4096) / 4096.0, 2.0 ** -np.arange(13, 54)])


def test_normal_quantile_matches_scipy_ndtri():
    ours = distributions_module.ndtri(NORMAL_P_GRID)
    ref = ndtri(NORMAL_P_GRID)
    assert np.all(np.abs(ours - ref) <= 4.0 * EPS * np.abs(ref))


def test_normal_quantile_is_zero_at_the_median_and_odd():
    assert distributions_module.ndtri(0.5) == 0.0
    assert Normal(-2.0, 3.0).quantile(0.5) == -2.0
    np.testing.assert_array_equal(Normal().quantile(1.0 - DYADIC_P), -Normal().quantile(DYADIC_P))


def test_normal_quantile_ends_and_outside_as_scipy():
    p = np.array([0.0, 1.0, -0.5, 1.5, np.nan])
    np.testing.assert_array_equal(distributions_module.ndtri(p), ndtri(p))


@pytest.mark.parametrize("margin", ALL_MARGINS, ids=lambda m: type(m).__name__ + repr(m)[:20])
def test_quantile_types_follow_the_input(margin):
    assert type(margin.quantile(0.3)) is float
    for p, shape in (([0.2, 0.7], (2,)), ([], (0,)), (np.full((2, 3), 0.4), (2, 3))):
        q = margin.quantile(p)
        assert isinstance(q, np.ndarray) and q.shape == shape and q.dtype == float


def test_t4_quantile_near_the_median_is_linear():
    # t(p) = (8/3)(p - 1/2) + O((p - 1/2)^3); stdtrit returned 0 for
    # |p - 1/2| up to ~1e-9 and was 12% off at 1e-8
    p = 0.5 + np.concatenate([_HALF_OFFSETS, -_HALF_OFFSETS, np.logspace(-16.0, -9.1, 200)])
    off = p - 0.5  # exact
    keep = (off != 0.0) & (np.abs(off) <= 2.0**-30)
    p, off = p[keep], off[keep]
    assert p.size > 200
    linear = 8.0 / 3.0 * off
    assert np.all(np.abs(StudentT(4.0).quantile(p) - linear) <= 4.0 * EPS * np.abs(linear))
    assert StudentT(4.0).quantile(0.5 + 1e-9) > 0.0
    assert StudentT(4.0).quantile(0.5) == 0.0


def test_t4_quantile_round_trips_through_the_exact_cdf():
    p = np.concatenate([NORMAL_P_GRID, np.random.default_rng(11).random(2_000)])
    t = StudentT(4.0).quantile(p)
    cdf = 0.5 + t * (t * t + 6.0) / (2.0 * (t * t + 4.0) ** 1.5)
    assert np.max(np.abs(cdf - p)) <= 4.0 * EPS


def test_t4_quantile_against_scipy_away_from_the_median():
    p = NORMAL_P_GRID[np.abs(NORMAL_P_GRID - 0.5) >= 1e-3]
    np.testing.assert_allclose(StudentT(4.0).quantile(p), stats.t.ppf(p, 4.0), rtol=1e-10)


def test_t4_quantile_is_odd():
    m = StudentT(4.0)
    np.testing.assert_array_equal(m.quantile(1.0 - DYADIC_P), -m.quantile(DYADIC_P))


@pytest.mark.parametrize("nu", (0.5, 3.0, 6.0, 30.0, 1e3))
def test_t_quantile_next_to_the_median_matches_mpmath(nu):
    # below |p - 1/2| = 1e-4 the quantile is the inverse series (measured
    # within 1.9 eps); stdtrit beyond it is within 1e-12 (measured 2.7e-13
    # at nu = 3), and returned 0 at nu = 6 for |p - 1/2| <= ~1e-9
    mpmath = pytest.importorskip("mpmath")
    offsets = np.concatenate([np.logspace(-16.0, -4.0001, 9), [2e-4, 1e-3, 1e-2]])
    p = np.concatenate([0.5 + offsets, 0.5 - offsets])
    q = StudentT(nu).quantile(p)
    with mpmath.workdps(40):
        n = mpmath.mpf(nu)
        f0 = mpmath.gamma((n + 1) / 2) / (mpmath.sqrt(n * mpmath.pi) * mpmath.gamma(n / 2))

        def cdf(t):
            return 0.5 + t * f0 * mpmath.hyp2f1(0.5, (n + 1) / 2, 1.5, -t * t / n)

        ref = np.array([float(mpmath.findroot(lambda t: cdf(t) - pi, qi)) for pi, qi in zip(p, q)])
    rel = np.abs(q - ref) / np.abs(ref)
    series = np.abs(p - 0.5) < 1e-4
    assert np.all(rel[series] <= 4.0 * EPS)
    assert np.all(rel[~series] <= 1e-12)
    assert StudentT(nu).quantile(0.5 + 1e-9) > 0.0


# ---------------------------------------------------------------------------
# normal tail and Owen's T in NumPy, against mpmath and SciPy

TINY = np.finfo(float).tiny
TAIL_X = np.concatenate([np.linspace(0.0, 37.5, 1201), np.random.default_rng(4).uniform(0.0, 37.5, 300)])


@pytest.fixture(scope="module")
def tail_reference() -> np.ndarray:
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return np.array([float(mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)) / 2) for x in TAIL_X])


def test_normal_tail_matches_mpmath(tail_reference):
    # measured within 5.5 eps relative on [0, 37.5]
    ours = distributions_module._normal_tail(TAIL_X)
    assert np.all(np.abs(ours - tail_reference) <= 6.0 * EPS * tail_reference)


def test_normal_tail_matches_scipy_ndtr(tail_reference):
    # SciPy's ndtr is the looser of the two: measured 1,027 eps apart on
    # [0, 37.5], 259 eps for x <= 20
    diff = np.abs(distributions_module._normal_tail(TAIL_X) - ndtr(-TAIL_X)) / tail_reference
    assert np.all(diff <= 1_100 * EPS)
    assert np.all(diff[TAIL_X <= 20.0] <= 280 * EPS)


def test_normal_cdf_ends_and_symmetry():
    x = np.array([-np.inf, -40.0, 0.0, 40.0, np.inf, np.nan])
    np.testing.assert_array_equal(distributions_module.ndtr(x), [0.0, 0.0, 0.5, 1.0, 1.0, np.nan])
    x = np.linspace(0.0, 9.0, 361)
    np.testing.assert_array_equal(distributions_module.ndtr(x), 1.0 - distributions_module.ndtr(-x))
    assert distributions_module.ndtr(0.3).shape == ()


OWENS_H = np.concatenate([np.linspace(0.0, 40.0, 41), [0.3, 2.9, 3.0, 3.1, 5.5, 37.5, 37.7]])
OWENS_A = (0.1, 0.5, 1.0, 2.0, 20.0, 1e3)


@pytest.fixture(scope="module")
def owens_t_reference() -> np.ndarray:
    """T(h, a) for OWENS_H x OWENS_A, by quadrature of
    (e^{-h^2/2} / 2 pi h) int_0^{a h} e^{-s^2/2} / (1 + s^2 / h^2) ds."""
    mpmath = pytest.importorskip("mpmath")

    def owens_t(h, a):
        h, a = mpmath.mpf(h), mpmath.mpf(a)
        if h == 0:
            return mpmath.atan(a) / (2 * mpmath.pi)
        b = a * h
        breaks = [0] + [x for x in (1, 3, 6, 10) if x < b] + [b]
        integral = mpmath.quad(lambda s: mpmath.exp(-s * s / 2) / (1 + s * s / (h * h)), breaks)
        return mpmath.exp(-h * h / 2) / h * integral / (2 * mpmath.pi)

    with mpmath.workdps(20):
        return np.array([[float(owens_t(h, a)) for h in OWENS_H] for a in OWENS_A])


def _owens_t(h, a):
    return distributions_module._skew_normal_pass(np.asarray(h, dtype=float), a)[2] / 2.0


@pytest.mark.parametrize("signs", ((1, 1), (-1, 1), (1, -1), (-1, -1)), ids=str)
def test_owens_t_matches_mpmath_and_scipy(owens_t_reference, signs):
    # T(-h, a) = T(h, a) and T(h, -a) = -T(h, a).  e^{-h^2/2} carries the
    # rounding of h^2, so errors grow as (1 + h^2) eps: measured within
    # 1.2 (1 + h^2) eps of mpmath, SciPy's owens_t within 0.85 (1 + h^2) eps
    # of this code on this grid (and up to 33 (1 + h^2) eps off mpmath at
    # a = 0.7, |h| <= 12).
    # Past h = 37.6 the result is flushed to 0, where T < 1e-307.
    from scipy.special import owens_t

    sh, sa = signs
    scale = (1.0 + OWENS_H**2) * EPS
    for a, ref in zip(OWENS_A, owens_t_reference):
        ours, ref = _owens_t(sh * OWENS_H, sa * a), sa * ref
        normal = np.abs(ref) >= TINY
        assert np.all(np.abs(ours - ref)[normal] <= 1.5 * scale[normal] * np.abs(ref[normal]))
        assert np.all(np.abs(ours[~normal]) <= TINY)
        diff = np.abs(ours - owens_t(sh * OWENS_H, sa * a))
        assert np.all(diff[normal] <= 1.5 * scale[normal] * np.abs(ref[normal]))


def test_owens_t_constants_match_numpy_polynomial():
    # the literals are the reprs of these values under NumPy 2; another
    # NumPy may round its LAPACK eigenvalues or its basis conversion
    # differently, by an ulp or two
    from numpy.polynomial import Chebyshev, Polynomial, legendre

    nodes, weights = legendre.leggauss(13)
    series = Chebyshev.interpolate(lambda t: 1.0 / (1.0 + t), 20, domain=[0.0, 1.0])
    coeffs = series.convert(kind=Polynomial).coef
    for ours, ref in ((distributions_module._GAUSS_NODES, nodes),
                      (distributions_module._GAUSS_WEIGHTS, weights),
                      (distributions_module._T3_COEFFS, coeffs)):
        assert ours.shape == ref.shape
        assert np.all(np.abs(ours - ref) <= 2.0 * np.spacing(np.abs(ref)))


@pytest.mark.parametrize("a", (2.0, -3.0, 0.5, 1.0, 20.0, 1e-9))
def test_skew_normal_pass_is_the_same_for_scalar_array_and_chunks(a):
    # every element's value depends on that element alone: no matrix
    # product or length-dependent reduction runs inside the pass
    z = np.concatenate([np.linspace(-9.0, 9.0, 601), [-40.0, -3.0, 3.0, 37.7, 40.0]])
    whole = distributions_module._skew_normal_pass(z, a)
    chunks = [distributions_module._skew_normal_pass(c, a) for c in np.array_split(z, 37)]
    for i, part in enumerate(whole):
        np.testing.assert_array_equal(part, np.concatenate([c[i] for c in chunks]))
        single = [distributions_module._skew_normal_pass(z[j : j + 1], a)[i][0] for j in range(z.size)]
        np.testing.assert_array_equal(part, single)
    m = SkewNormal(0.0, 1.0, a)
    np.testing.assert_array_equal(m.cdf(z), [m.cdf(v) for v in z])


# ---------------------------------------------------------------------------
# skew-normal quantile: bracketed Newton against the bisection it replaced

EPS = np.finfo(float).eps

# shapes 0 and 1e-9 exercise the normal limit, 20 the half-normal limit
SKEW_NORMALS = tuple(
    SkewNormal(0.7, 2.5, shape) for shape in (2.0, -3.0, 20.0, 0.0, 1e-9)
)

# both tails log-spaced, the middle linear
P_GRID = np.concatenate(
    [
        np.logspace(-12.0, -2.0, 41),
        np.linspace(0.01, 0.99, 99)[1:-1],
        1.0 - np.logspace(-2.0, -12.0, 41),
    ]
)

# Elements with |Phi^-1(p)| <= _TABLE_W take the table of roots (or start
# from it), the others start from Cornish-Fisher; both grids hold both kinds.
# The dense grid runs out to the copula clip bounds 1e-15 and 1 - 1e-16.
TABLE_W = distributions_module._TABLE_W
DENSE_P_GRID = np.concatenate(
    [
        np.logspace(-15.0, -2.0, 200),
        np.linspace(0.01, 0.99, 301)[1:-1],
        1.0 - np.logspace(-2.0, -16.0, 200),
    ]
)
GRIDS = pytest.mark.parametrize("grid", (P_GRID, DENSE_P_GRID), ids=("grid", "dense"))


@pytest.fixture
def special_calls(monkeypatch) -> list[tuple[str, int]]:
    """Route the skew-normal cdf pass (two normal tails and one Owen's T)
    and ``ndtr`` of the distributions module through counters; each call
    appends (name, element count), in call order."""
    calls = []

    def counted(name):
        real = getattr(distributions_module, name)

        def wrapper(x, *args):
            calls.append((name, np.size(x)))
            return real(x, *args)

        monkeypatch.setattr(distributions_module, name, wrapper)

    counted("_skew_normal_pass")
    counted("ndtr")
    return calls


SPECIAL_NAMES = ("ndtr", "ndtri", "_skew_normal_pass", "stdtr", "stdtrit")


def test_special_functions_are_patchable_module_attributes(monkeypatch):
    # each margin calls its special functions through the module's names
    calls = []

    def counted(name):
        real = getattr(distributions_module, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(distributions_module, name, wrapper)

    for name in SPECIAL_NAMES:
        counted(name)
    uses = (
        (lambda: Normal(1.0, 2.0).quantile(0.3), 1.0 + 2.0 * ndtri(0.3), {"ndtri"}),
        (lambda: Normal(1.0, 2.0).cdf(0.5), ndtr(-0.25), {"ndtr"}),
        (lambda: StudentT(3.0).quantile(0.3), stats.t.ppf(0.3, 3.0), {"stdtrit"}),
        (lambda: StudentT(4.0).quantile(0.3), stats.t.ppf(0.3, 4.0), set()),
        (lambda: StudentT(4.0).cdf(0.5), stats.t.cdf(0.5, 4.0), {"stdtr"}),
        (lambda: SkewNormal(0.0, 1.0, 2.0).cdf(0.5), stats.skewnorm.cdf(0.5, 2.0),
         {"_skew_normal_pass"}),
    )
    for op, expected, names in uses:
        calls.clear()
        assert op() == pytest.approx(expected, rel=1e-12)
        assert set(calls) == names
    # the names stay private to the module
    assert not set(SPECIAL_NAMES) & {*distributions_module.__all__, *geomrisk.__all__}
    assert len(geomrisk.__all__) == 71


def _pass_sizes(calls) -> list[int]:
    return [size for name, size in calls if name == "_skew_normal_pass"]


def _bisection_quantile(m: SkewNormal, p: np.ndarray) -> np.ndarray:
    """The widening-then-bisection skew-normal quantile, kept as a reference."""
    pp = np.atleast_1d(np.asarray(p, dtype=float))
    z0 = ndtri(pp)
    lo = m.xi + m.omega * (z0 - 8.0)
    hi = m.xi + m.omega * (z0 + 8.0)
    for _ in range(60):
        bad_lo = m.cdf(lo) > pp
        bad_hi = m.cdf(hi) < pp
        if not (np.any(bad_lo) or np.any(bad_hi)):
            break
        width = hi - lo
        lo = np.where(bad_lo, lo - width, lo)
        hi = np.where(bad_hi, hi + width, hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = m.cdf(mid) < pp
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _resolution(m: SkewNormal, q: np.ndarray) -> np.ndarray:
    """How far apart two quantiles may be when both are right to the cdf's float resolution."""
    z = (q - m.xi) / m.omega
    f = 2.0 * stats.norm.pdf(z) * ndtr(m.shape * z)
    return 1e-12 * np.maximum(1.0, np.abs(q)) + 8.0 * EPS * m.omega / f


@pytest.mark.parametrize("shape", (2.0, -2.0, 20.0, -20.0))
def test_skew_normal_cdf_stays_in_unit_interval(shape):
    # Phi - 2T cancels: unclipped, shape 2 goes to -1.2e-19, shape -20 to 1 + 2e-16
    z = np.linspace(-40.0, 40.0, 80_001)
    c = SkewNormal(0.0, 1.0, shape).cdf(z)
    assert np.all((c >= 0.0) & (c <= 1.0))


@pytest.mark.parametrize("shape", (2.0, -3.0, 20.0))
def test_grids_take_both_starts(shape):
    # inside the table's range the interpolant through its roots is the
    # root in a certified interval and Newton's start elsewhere; outside it,
    # Newton starts from the Cornish-Fisher expansion
    for grid in (P_GRID, DENSE_P_GRID):
        w = distributions_module.ndtri(grid)
        inside = np.abs(w) <= TABLE_W
        assert inside.any() and not inside.all()
        start, rest = distributions_module._interpolated_root(w, shape)
        root = distributions_module._skew_normal_root(grid, shape)
        np.testing.assert_array_equal(start[~inside],
                                      distributions_module._cornish_fisher(w[~inside], shape))
        assert np.all(np.abs(start - root)[inside] <= 1e-4 * np.maximum(1.0, np.abs(root[inside])))
        table = np.setdiff1d(np.arange(grid.size), rest)
        assert table.size and np.all(inside[table])
        np.testing.assert_array_equal(root[table], start[table])
    assert DENSE_P_GRID.min() <= 1e-15 and DENSE_P_GRID.max() >= 1.0 - 1e-16


@GRIDS
@pytest.mark.parametrize("margin", SKEW_NORMALS, ids=lambda m: f"shape={m.shape}")
def test_skew_normal_quantile_round_trip_to_float_resolution(margin, grid):
    q = margin.quantile(grid)
    assert np.all(np.isfinite(q))
    assert np.max(np.abs(margin.cdf(q) - grid)) <= 4.0 * EPS


@GRIDS
@pytest.mark.parametrize("margin", SKEW_NORMALS, ids=lambda m: f"shape={m.shape}")
def test_skew_normal_quantile_matches_bisection_reference(margin, grid):
    q = margin.quantile(grid)
    ref = _bisection_quantile(margin, grid)
    assert np.all(np.abs(q - ref) <= _resolution(margin, ref))


@GRIDS
def test_skew_normal_shape_zero_is_normal(grid):
    # to a few ulps; the bisection reference is ~1e-6 off ndtri at 1 - 1e-12
    q = SkewNormal(0.7, 2.5, 0.0).quantile(grid)
    ref = Normal(0.7, 2.5).quantile(grid)
    assert np.all(np.abs(q - ref) <= 8.0 * EPS * np.maximum(1.0, np.abs(ref)))


def test_skew_normal_shape_zero_root_is_ndtri_without_owens_t(special_calls):
    # T(z, 0) = 0, so the root is Phi^-1(p) exactly, with no table of roots
    u = np.random.default_rng(8).random(1_000)
    np.testing.assert_array_equal(SkewNormal(0.0, 1.0, 0.0).quantile(u),
                                  distributions_module.ndtri(u))
    assert _pass_sizes(special_calls) == []


@pytest.mark.parametrize("margin", SKEW_NORMALS, ids=lambda m: f"shape={m.shape}")
def test_skew_normal_quantile_is_elementwise(margin):
    # every element starts by one rule and iterates on its own, so its
    # quantile is the same bits alone, in any chunk and in the whole array
    draws = np.concatenate([np.random.default_rng(3).random(2_000), [1e-15, 1.0 - 1e-16]])
    for u in (draws, DENSE_P_GRID):
        q = margin.quantile(u)
        np.testing.assert_array_equal(q, [margin.quantile(float(v)) for v in u])
        np.testing.assert_array_equal(
            q, np.concatenate([margin.quantile(c) for c in np.array_split(u, 37)]))


@pytest.mark.parametrize(
    "values",
    (
        np.full(1_000, 0.3),
        np.tile([0.2, 0.9], 500),
        0.5 + np.logspace(-16.0, np.log10(0.5 - 1e-16), 600),
    ),
    ids=("constant", "two-valued", "above-median"),
)
@pytest.mark.parametrize("margin", SKEW_NORMALS, ids=lambda m: f"shape={m.shape}")
def test_skew_normal_quantile_of_degenerate_large_inputs(margin, values):
    # repeated and one-sided inputs get the quantiles of their distinct
    # values; any warning fails the test
    q = margin.quantile(values)
    distinct, where = np.unique(values, return_inverse=True)
    np.testing.assert_array_equal(q, np.array([margin.quantile(float(v)) for v in distinct])[where])


@pytest.mark.parametrize("shape", (2.0, 20.0, 1e-9))
def test_skew_normal_quantile_mirror_identity(shape):
    # q_{-a}(p) - xi = -(q_a(1 - p) - xi); dyadic p keep 1 - p exact
    p = np.concatenate([np.arange(1, 1024) / 1024.0, 2.0 ** -np.arange(11, 40)])
    pos, neg = SkewNormal(0.7, 2.5, shape), SkewNormal(0.7, 2.5, -shape)
    left = neg.quantile(p) - 0.7
    right = -(pos.quantile(1.0 - p) - 0.7)
    assert np.all(np.abs(left - right) <= _resolution(neg, neg.quantile(p)))


@pytest.mark.parametrize("margin", SKEW_NORMALS, ids=lambda m: f"shape={m.shape}")
def test_skew_normal_quantile_at_copula_clip_bounds(margin):
    q = margin.quantile(np.array([1e-15, 0.5, 1.0 - 1e-16]))
    assert np.all(np.isfinite(q))
    assert q[0] < q[1] < q[2]


def test_skew_normal_quantile_return_types():
    m = SkewNormal(0.7, 2.5, 2.0)
    assert type(m.quantile(0.3)) is float
    empty = m.quantile(np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    listed = m.quantile([0.1, 0.5, 0.9])
    assert isinstance(listed, np.ndarray) and listed.shape == (3,)
    assert listed[0] == m.quantile(0.1)


@pytest.mark.parametrize("shape", (2.0, -3.0, 20.0))
def test_skew_normal_quantile_owens_t_budget(special_calls, shape):
    # The cdf pass (two normal tails and Owen's T) is the whole cost of the
    # quantile; count the elements it sees.  Counts are stable from machine
    # to machine, wall time is not.  The first count includes building the
    # shape's table of roots, as in the first quantile of a process
    # (measured: 0.263, 0.261 and 0.381 n); the second has it built (0.023,
    # 0.022 and 0.127 n: only draws outside a certified interval run a pass).
    n = 10_000
    u = np.random.default_rng(6).random(n)
    m = SkewNormal(-1.0, 1.0, shape)
    distributions_module._quintic_table.cache_clear()
    for bound in {2.0: (0.27, 0.03), -3.0: (0.27, 0.03), 20.0: (0.40, 0.13)}[shape]:
        special_calls.clear()
        m.quantile(u)
        seen = _pass_sizes(special_calls)
        assert sum(seen) <= bound * n
        # no element dithers at the cdf's resolution until the pass cap
        assert len(seen) < distributions_module._NEWTON_MAX_ITER
    assert len(seen) == 1


@pytest.mark.parametrize("n", (1, 10_000), ids=("scalar", "draws"))
@pytest.mark.parametrize("shape", (2.0, -3.0))
def test_skew_normal_root_one_cdf_ndtr_per_pass(special_calls, monkeypatch, shape, n):
    # Each Newton pass runs one cdf pass over its active set, whose tails
    # Q(|z|) and Q(|a z|) give the residual's Phi(-z) above the median and
    # Phi(z) below it, and the density's Phi(a z); a normal cdf besides it
    # may see that set at most twice.  The shape's table of roots is built
    # before counting, so the count does not depend on which test ran first;
    # with it built, a root runs no normal cdf outside its passes.  The
    # scalar lies in the light tail, outside every certified interval, so
    # that it runs Newton's passes at all.
    distributions_module._quintic_table(shape)
    special_calls.clear()
    real = distributions_module._skew_normal_root

    def marked(p, a):
        special_calls.append(("root", p.size))
        out = real(p, a)
        special_calls.append(("root", p.size))
        return out

    monkeypatch.setattr(distributions_module, "_skew_normal_root", marked)
    u = np.random.default_rng(2).random(n) if n > 1 else np.array([1e-6 if shape > 0 else 1.0 - 1e-6])
    SkewNormal(0.0, 1.0, shape).quantile(u)
    # a normal cdf after a solve's entry or exit, before its next cdf pass,
    # is set-up; after a cdf pass it belongs to that pass
    passes, setup, in_pass = [], 0, False
    for name, size in special_calls:
        if name == "root":
            in_pass = False
        elif name == "_skew_normal_pass":
            in_pass = True
            passes.append([size, 0])
        elif in_pass:
            passes[-1][1] += size
        else:
            setup += size
    assert passes
    assert all(cdf <= 2 * active for active, cdf in passes)
    solves = sum(name == "root" for name, _ in special_calls) // 2
    assert solves == 1 and setup == 0


@pytest.mark.parametrize("shape", (2.0, -3.0, 20.0))
def test_skew_normal_root_table_is_built_once_per_shape(special_calls, shape):
    # the first quantile at a shape solves its table's nodes and midpoints
    # in a few passes (5, 5 and 10 at these shapes, 2,400-2,545 elements);
    # later quantiles at that shape reuse the table
    table = distributions_module._quintic_table
    table.cache_clear()
    m = SkewNormal(0.0, 1.0, shape)
    m.quantile(0.3)
    built = _pass_sizes(special_calls)
    assert table.cache_info().misses == 1
    assert sum(built) <= 4 * distributions_module._TABLE_NODES
    assert len(built) <= 10
    special_calls.clear()
    m.quantile(np.random.default_rng(5).random(1_000))
    assert table.cache_info().misses == 1 and table.cache_info().hits == 1
    assert sum(_pass_sizes(special_calls)) <= 1.5 * 1_000


def test_skew_normal_newton_step_past_an_unevaluated_end_stops_there(special_calls):
    # at shape 20 the cdf root of this p sits at the half-normal start value
    # of the bracket's upper end; Newton steps from the Cornish-Fisher start
    # overshoot that end, which is never evaluated, so bisecting towards it
    # took 26 cdf passes.  The public quantile takes it from the table.
    p = np.array([0.7513557952504324])
    w = distributions_module.ndtri(p)
    start = distributions_module._cornish_fisher(w, 20.0)
    z = distributions_module._newton_root(1.0 - p, w, 20.0, start)
    assert len(_pass_sizes(special_calls)) <= 5
    m = SkewNormal(-1.0, 1.0, 20.0)
    distributions_module._quintic_table(20.0)
    special_calls.clear()
    m.quantile(p[0])
    assert len(_pass_sizes(special_calls)) <= 5
    assert abs(m.cdf(z[0] - 1.0) - p[0]) <= 4.0 * EPS
    assert abs(m.cdf(m.quantile(p[0])) - p[0]) <= 4.0 * EPS


ORACLE_SHAPES = (2.0, -3.0, 20.0, 0.7, -0.7, 1e-9, 1e100, -1e100)


@pytest.mark.parametrize("shape", ORACLE_SHAPES)
def test_skew_normal_table_roots_agree_with_newton(shape):
    # Oracle: the safeguarded Newton iteration from the same start.  A draw
    # in a certified interval takes the interpolant, within a few units of
    # the cdf's resolution eps max(1, |z|) + eps / f(z) of Newton's root
    # (at most 2.5 units measured); every other draw is Newton's root, bit
    # for bit.  At shape 2 at least 95% of draws take the table.
    p = np.concatenate([np.random.default_rng(17).random(200_000), [1e-15, 0.5, 1.0 - 1e-16]])
    w = distributions_module.ndtri(p)
    start, rest = distributions_module._interpolated_root(w, shape)
    z = distributions_module._skew_normal_root(p, shape)
    newton = distributions_module._newton_root(np.where(w > 0.0, 1.0 - p, p), w, shape, start)
    table = np.ones(p.size, dtype=bool)
    table[rest] = False
    np.testing.assert_array_equal(z[rest], newton[rest])
    np.testing.assert_array_equal(z[table], start[table])
    with np.errstate(divide="ignore"):
        unit = EPS * np.maximum(1.0, np.abs(z)) + EPS / (2.0 * stats.norm.pdf(z) * ndtr(shape * z))
    assert np.all(np.abs(z - newton)[table] <= 4.0 * unit[table])
    assert table.mean() >= (0.95 if shape == 2.0 else 0.8)


@pytest.mark.parametrize("shape", ORACLE_SHAPES)
def test_skew_normal_quantile_is_monotone_across_certified_bounds(shape):
    # where a certified interval meets one that is not (or the table's
    # range ends), the quantile switches from the interpolant to Newton's
    # root; it stays nondecreasing across each such node
    _, certified = distributions_module._quintic_table(shape)
    nodes = np.linspace(-TABLE_W, TABLE_W, distributions_module._TABLE_NODES)
    flags = np.concatenate([[False], certified, [False]])
    bounds = nodes[np.flatnonzero(flags[:-1] != flags[1:])]
    offsets = np.array([-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3])
    p = np.unique(ndtr((bounds[:, None] + offsets).ravel()))
    assert bounds.size and p.size > bounds.size
    q = SkewNormal(0.7, 2.5, shape).quantile(p)
    assert np.all(np.diff(q) >= 0.0)


@pytest.mark.parametrize("shape", (0.5, -0.5))
def test_skew_normal_quantile_relative_accuracy_in_heavy_tail(shape):
    # The tail mass beyond the quantile is right to 1e-9 relative, not just to
    # the cdf's absolute resolution of eps.  Oracle: quadrature of the density.
    m = SkewNormal(0.0, 1.0, shape)

    def pdf(z):
        return 2.0 * stats.norm.pdf(z) * stats.norm.cdf(shape * z)

    for k in (4, 8, 12):
        tail = 10.0**-k
        if shape > 0.0:
            p = 1.0 - tail
            mass, _ = integrate.quad(pdf, m.quantile(p), np.inf, epsabs=0.0, epsrel=1e-13)
            expected = 1.0 - p  # exact: the double nearest 1 - tail
        else:
            p = tail
            mass, _ = integrate.quad(pdf, -np.inf, m.quantile(p), epsabs=0.0, epsrel=1e-13)
            expected = p
        assert mass == pytest.approx(expected, rel=1e-9, abs=0.0)


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
    x = _draw(margin, n, rng)
    stat = stats.kstest(x, margin.cdf).statistic
    assert stat <= 1.36 / np.sqrt(n)  # 5% asymptotic critical value


def test_sampling_mean_within_four_se():
    n = 100_000
    for margin in ALL_MARGINS:
        rng = substream(616, f"mean-{type(margin).__name__}-{hash(margin) & 0xffff}")
        x = _draw(margin, n, rng)
        se = x.std(ddof=1) / np.sqrt(n)
        assert abs(x.mean() - margin.mean()) <= 4.0 * se


def test_sampling_variance_within_four_se():
    # Variance comparison needs a finite fourth moment for the error bar.
    n = 100_000
    for margin in FINITE_FOURTH_MOMENT:
        rng = substream(717, f"var-{type(margin).__name__}-{hash(margin) & 0xffff}")
        x = _draw(margin, n, rng)
        s2 = x.var(ddof=1)
        m4 = np.mean((x - x.mean()) ** 4)
        se = np.sqrt(max(m4 - s2 * s2, 0.0) / n)
        assert abs(s2 - margin.var()) <= 4.0 * se


def test_skew_normal_sample_mean_within_three_se():
    m = SkewNormal(-1.0, 1.0, 2.0)
    n = 50_000
    x = _draw(m, n, substream(818, "sn-mean"))
    se = x.std(ddof=1) / np.sqrt(n)
    assert abs(x.mean() - m.mean()) <= 3.0 * se


def test_sampling_is_deterministic():
    m = Normal(0.0, 1.0)
    a = _draw(m, 100, substream(1, "same"))
    b = _draw(m, 100, substream(1, "same"))
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


# ---------------------------------------------------------------------------
# every check that no test above reaches: id -> (call, exception, message)

_REJECTED = {
    "t-mean": (lambda: StudentT(1.0).mean(), ValueError, "StudentT mean undefined for nu <= 1"),
    "moment-unknown-margin": (lambda: has_finite_second_moment("normal"), ValueError,
                              "unknown margin type: str"),
    # past the bound the quantile overflows, and is wrong from ~3e159
    "skew-normal-shape": (lambda: SkewNormal(0.0, 1.0, 1e160), ValueError,
                          "SkewNormal requires finite xi, omega > 0 and |shape| <= 1e+100"),
    "skew-normal-negative-shape": (lambda: SkewNormal(0.0, 1.0, -1e160), ValueError,
                                   "SkewNormal requires finite xi, omega > 0 and |shape| <= 1e+100"),
}


@pytest.mark.parametrize("call, error, message", _REJECTED.values(), ids=_REJECTED.keys())
def test_rejected_input_raises_its_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message
