"""Univariate margin distributions for model building.

Each margin is a small frozen dataclass exposing ``quantile``, ``cdf``,
``mean`` and ``var``; it draws nothing.  ``models.simulate`` is the one
sampler: it pushes copula uniforms through each margin's ``quantile``.
Quantiles are exact inverse cdfs, so those draws carry no bias: closed
forms, the normal quantile by Wichura's AS 241 (within ~3 eps), the Student
t quantile by Shaw's closed form for ``nu = 4`` (within ~2 eps) and for
other ``nu`` by SciPy's ``stdtrit`` (within 1e-12 relative) and, next to
the median, an inverse series (within ~2 eps), and for the skew normal a
safeguarded Newton iteration on its cdf, bracketed by the normal and
half-normal quantiles and started from an interpolant through a table of
roots that is built once per shape (see ``SkewNormal``).

The normal cdf and the skew-normal cdf are NumPy code too: one kernel gives
the normal tail ``Q(x) = Phi(-x)`` within 5.5 eps relative on [0, 37.5]
(SciPy's ``ndtr``: 1,073 eps), and Owen's T within ``1.5 (1 + h^2)`` eps
relative (``e^{-h^2/2}`` carries the rounding of ``h^2``).  ``scipy.special``
is imported on a special function's first call, so only the Student t
quantile for ``nu != 4`` and the Student t cdf pay for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Normal",
    "StudentT",
    "SkewNormal",
    "Gumbel",
    "Logistic",
    "Exponential",
    "Uniform",
    "MarginSpec",
    "has_finite_second_moment",
]

_EPS = np.finfo(float).eps
_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_SQRT_2PI = np.sqrt(2.0 * np.pi)
# cap on skew-normal Newton passes; bisection steps alone shrink the widest
# bracket (~40) below the stopping tolerance in ~55 passes
_NEWTON_MAX_ITER = 100
# below this |p - 1/2| the Student t quantile (nu != 4) is a series: SciPy's
# stdtrit is within 1e-12 relative only beyond ~3e-5 (nu = 1, 3, 6), and
# returns 0 for |p - 1/2| <= ~1e-9 at nu = 6
_T_MEDIAN_SERIES = 1e-4
# nodes of the skew-normal start table, equispaced in w = Phi^-1(p) over
# [-_TABLE_W, _TABLE_W] (p from ~1e-9 to 1 - 1e-9); elements outside start
# from Cornish-Fisher
_TABLE_NODES = 192
_TABLE_W = 6.0
# the table's nodes start from the light-tail asymptote where |shape z| is
# at least this, and from Cornish-Fisher elsewhere
_LIGHT_TAIL_START = 1.5
# bound on the skew-normal |shape| (see SkewNormal)
_MAX_SHAPE = 1e100


def _special(name: str):
    # scipy.special is imported on the first call, not with the module: it
    # took ~0.2 of the ~0.33 s of CPU of an `import geomrisk.cli` (2-core
    # Xeon), and margins without a special function never need it
    def call(*args):
        import scipy.special

        return getattr(scipy.special, name)(*args)

    call.__name__ = name
    return call


# module attributes looked up at call time, so that each can be patched
stdtr, stdtrit = map(_special, "stdtr stdtrit".split())

# The normal tail Q(x) = Phi(-x) = e^{-x^2/2} erfcx(x / sqrt 2) / 2 for x >= 0
# is a Taylor polynomial of degree _TAIL_DEGREE in d = x - xh about the node
# xh = rint(16 x) / 16 nearest x, times exp(-d (x + xh) / 2).  Nodes run to
# 623 / 16; Q underflows past ~38.5.
_TAIL_STEP = 16
_TAIL_DEGREE = 9
_TAIL_NODES = 624


@functools.cache
def _tail_table() -> np.ndarray:
    """Row n holds the n-th Taylor coefficient of ``Q(x) e^{d (x + xh) / 2}``
    in d at each node xh: ``e^{-xh^2/2} erfcx^(n)(c) / (2 n! sqrt(2)^n)``,
    ``c = xh / sqrt 2``.  Built on first use (~1.2 ms), not at import."""
    xh = np.arange(_TAIL_NODES) / _TAIL_STEP
    c = xh / math.sqrt(2.0)
    y = np.empty((_TAIL_DEGREE + 1, _TAIL_NODES))
    near = c < 1.5
    # erfcx(c) = erfc(c) e^{c^2}, with c^2 = xh^2 / 2 exact, where erfc has
    # not yet lost range; beyond, Laplace's continued fraction
    # erfcx(c) = (1 / sqrt(pi)) / (c + (1/2) / (c + 1 / (c + (3/2) / (c + ...))))
    y[0, near] = [math.erfc(ci) * math.exp(0.5 * x * x) for ci, x in zip(c[near], xh[near])]
    far = c[~near]
    r = far.copy()
    for k in range(300, 0, -1):
        r = far + 0.5 * k / r
    y[0, ~near] = 1.0 / (math.sqrt(math.pi) * r)
    # erfcx' = 2 c erfcx - 2 / sqrt(pi), erfcx^(n+1) = 2 c erfcx^(n) + 2 n erfcx^(n-1)
    y[1] = 2.0 * c * y[0] - 2.0 / math.sqrt(math.pi)
    for n in range(1, _TAIL_DEGREE):
        y[n + 1] = 2.0 * c * y[n] + 2.0 * n * y[n - 1]
    half_gauss = 0.5 * np.exp(-0.5 * xh * xh)
    for n in range(_TAIL_DEGREE + 1):
        y[n] *= half_gauss / (math.factorial(n) * math.sqrt(2.0) ** n)
    return y


def _normal_tail(x: np.ndarray) -> np.ndarray:
    """``Q(x) = Phi(-x)`` for a 1-d array of ``x >= 0`` (nan stays nan).

    Within 5.5 eps relative of 40-digit mpmath on [0, 37.5], where SciPy's
    ``ndtr`` is up to 1,073 eps off (267 eps for x <= 20)."""
    table = _tail_table()
    # past the last node Q is 0 in double; the cap keeps d finite there
    x = np.minimum(x, 40.0)
    i = np.fmin(np.rint(_TAIL_STEP * x), _TAIL_NODES - 1).astype(np.intp)
    xh = i / _TAIL_STEP
    d = x - xh  # exact
    # one take per coefficient row: an (n, 10) gather was ~40% slower at 10k
    q = table[_TAIL_DEGREE].take(i)
    for row in table[_TAIL_DEGREE - 1::-1]:
        q *= d
        q += row.take(i)
    xh += x
    xh *= d
    xh *= -0.5
    q *= np.exp(xh, out=xh)
    return q


def _cdf_from_tail(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``Phi(x)`` from ``q = Q(|x|)``: ``Q(-x)`` below 0 and ``1 - Q(x)`` above."""
    return np.where(x < 0.0, q, 1.0 - q)


def ndtr(x):
    """Standard normal cdf."""
    x = np.asarray(x, dtype=float)
    return _cdf_from_tail(x, _normal_tail(np.abs(x).ravel()).reshape(x.shape))


# Owen's T(h, a) = (1 / 2 pi) int_0^a e^{-h^2 (1 + x^2) / 2} / (1 + x^2) dx,
# reduced to h >= 0 and 0 <= a <= 1, by two of Patefield and Tandy's methods
# (J. Stat. Softw. 5(5), 2000): 13-node Gauss-Legendre quadrature (their T5)
# where b = a h < _OWENS_T_SPLIT, and the Chebyshev-moment series (T3)
# beyond.  The split is on b, not h: the quadrature sees e^{-b^2 s^2 / 2} on
# s in [0, 1], smooth for any h while b < 3, and T3's first moment
# 1/2 - Q(b) cancels for small b.
_OWENS_T_SPLIT = 3.0
_T3_DEGREE = 20

# the 13-node Gauss-Legendre rule on [-1, 1], and the power coefficients,
# lowest first, of the degree-20 Chebyshev interpolant of 1 / (1 + t) on
# [0, 1]: the reprs of numpy.polynomial's legendre.leggauss(13) and
# Chebyshev.interpolate(..., 20, domain=[0, 1]).convert(kind=Polynomial)
_GAUSS_NODES = np.array([
    -0.9841830547185881, -0.9175983992229779, -0.8015780907333099, -0.6423493394403402,
    -0.44849275103644687, -0.2304583159551348, 0.0, 0.2304583159551348,
    0.44849275103644687, 0.6423493394403402, 0.8015780907333099, 0.9175983992229779,
    0.9841830547185881,
])
_GAUSS_WEIGHTS = np.array([
    0.04048400476531557, 0.0921214998377288, 0.13887351021978733, 0.17814598076194552,
    0.2078160475368885, 0.22628318026289737, 0.23255155323087393, 0.22628318026289737,
    0.2078160475368885, 0.17814598076194552, 0.13887351021978733, 0.0921214998377288,
    0.04048400476531557,
])
_T3_COEFFS = np.array([
    0.9999999999999962, -0.9999999999981385, 0.9999999997873059, -0.99999998952661,
    0.9999997186520023, -0.9999953022329064, 0.9999471047733604, -0.999575837260424,
    0.997482780804883, -0.9886300838906057, 0.9600749689242344, -0.8891612282666408,
    0.7531516238624422, -0.5524484416811997, 0.327481060402867, -0.1411179316423195,
    0.033475017533781994, 0.0036179728902335615, -0.006079233575609355,
    0.0020330716707778183, -0.0002552712274331239,
])


@functools.lru_cache(maxsize=16)
def _owens_t_rules(a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constants of ``_owens_t_reduced`` for one ``a``: the exponents
    ``-x_i^2 / 2`` and weights of its Gauss-Legendre rule, and the power
    coefficients ``c_k`` of its series T3."""
    x2 = (0.5 * a * (_GAUSS_NODES + 1.0)) ** 2
    weights = a / (4.0 * math.pi) * _GAUSS_WEIGHTS / (1.0 + x2)
    return -0.5 * x2[:, None], weights[:, None], _T3_COEFFS


def _gauss(x: np.ndarray) -> np.ndarray:
    """``e^{-x^2 / 2}``, flushed to 0 below ``e^{-707}`` (|x| > 37.6): NumPy's
    exp runs 5 to 200 times slower on arguments below -707."""
    g = -0.5 * x * x
    return np.where(g >= -707.0, np.exp(np.maximum(g, -707.0)), 0.0)


def _owens_t_reduced(h: np.ndarray, a: float, b: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """``T(h, a)`` for a 1-d array ``h >= 0`` and ``0 <= a <= 1``, given
    ``b = a h`` and ``qb = Q(b)``; 0 where ``e^{-h^2 / 2}`` is flushed.

    Sums run in a fixed order, never through a matrix product, so that an
    element's value does not depend on the length of the array it is in."""
    exponents, weights, c = _owens_t_rules(a)
    far = np.flatnonzero(b >= _OWENS_T_SPLIT)
    near = np.flatnonzero(b < _OWENS_T_SPLIT) if far.size else None
    out = np.empty_like(h)
    hn = h if near is None else h[near]
    if hn.size:
        # e^{-h^2 / 2} (a / 4 pi) sum_i w_i e^{-h^2 x_i^2 / 2} / (1 + x_i^2) at
        # the nodes x_i of [0, a]; with a h < 3 the integrand is smooth there
        terms = exponents * (hn * hn)
        np.exp(terms, out=terms)
        terms *= weights
        # rows summed pairwise, folding the top half onto the bottom, in the
        # same order for every element
        n = len(terms)
        while n > 1:
            half = n // 2
            terms[:half] += terms[n - half : n]
            n -= half
        acc = terms[0]
        acc *= _gauss(hn)
        if near is None:
            return acc
        out[near] = acc
    if far.size:
        # T = phi(h) sum_k c_k z_k, z_k = h^{-2k-1} int_0^b t^{2k} phi(t) dt,
        # by the moments' recursion z_0 = (1/2 - Q(b)) / h,
        # z_{k+1} = y ((2k + 1) z_k - a^{2k+1} phi(b)), y = 1 / h^2
        hf = h[far]
        y = 1.0 / (hf * hf)
        phi_b = _gauss(b[far]) / _SQRT_2PI
        z = (0.5 - qb[far]) / hf
        acc = c[0] * z
        for k in range(_T3_DEGREE):
            z = y * ((2 * k + 1) * z - a ** (2 * k + 1) * phi_b)
            acc += c[k + 1] * z
        acc *= _gauss(hf) / _SQRT_2PI
        out[far] = acc
    return out


def _skew_normal_pass(z: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``Q(|z|)``, ``Q(|a z|)`` and ``2 T(z, a)`` for a 1-d array ``z``.

    One skew-normal cdf evaluation: ``F(z) = Phi(z) - 2 T(z, a)`` and the
    density's ``Phi(a z)`` come from the two tails, and so does the
    reduction for ``|a| > 1``,
    ``T(h, a) = Q(h) / 2 + Q(a h) / 2 - Q(h) Q(a h) - T(a h, 1 / a)``."""
    s = abs(a)
    h = np.abs(z)
    hs = np.concatenate([h, s * h])
    tails = _normal_tail(hs)
    qz, qsz = tails[: z.size], tails[z.size :]
    if s <= 1.0:
        t = _owens_t_reduced(h, s, hs[z.size :], qsz)
    else:
        t = 0.5 * (qz + qsz) - qz * qsz - _owens_t_reduced(hs[z.size :], 1.0 / s, h, qz)
    t *= math.copysign(2.0, a)
    return qz, qsz, t


# Wichura's AS 241 (PPND16): numerator and denominator coefficients, highest
# power first, of the central rational in r = 0.180625 - q^2 (times q), and
# of the tail rationals in s - 1.6 (s <= 5) and s - 5, s = sqrt(-log(tail p))
_AS241_CENTRAL = (
    (2509.0809287301226727, 33430.575583588128105, 67265.770927008700853,
     45921.953931549871457, 13731.693765509461125, 1971.5909503065514427,
     133.14166789178437745, 3.387132872796366608),
    (5226.495278852854561, 28729.085735721942674, 39307.89580009271061,
     21213.794301586595867, 5394.1960214247511077, 687.1870074920579083,
     42.313330701600911252, 1.0),
)
_AS241_NEAR = (
    (7.7454501427834140764e-4, 0.0227238449892691845833, 0.24178072517745061177,
     1.27045825245236838258, 3.64784832476320460504, 5.7694972214606914055,
     4.6303378461565452959, 1.42343711074968357734),
    (1.05075007164441684324e-9, 5.475938084995344946e-4, 0.0151986665636164571966,
     0.14810397642748007459, 0.68976733498510000455, 1.6763848301838038494,
     2.05319162663775882187, 1.0),
)
_AS241_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 0.0012426609473880784386,
     0.026532189526576123093, 0.29656057182850489123, 1.7848265399172913358,
     5.4637849111641143699, 6.6579046435011037772),
    (2.04426310338993978564e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.868691311456132591e-4, 0.0148753612908506148525, 0.13692988092273580531,
     0.59983220655588793769, 1.0),
)


def _rational(x: np.ndarray, coeffs) -> np.ndarray:
    """``num(x) / den(x)`` by Horner's rule, coefficients highest power first."""
    num, den = (c[0] * x for c in coeffs)
    for a, b in zip(*(c[1:-1] for c in coeffs)):
        num += a
        num *= x
        den += b
        den *= x
    num += coeffs[0][-1]
    den += coeffs[1][-1]
    num /= den
    return num


def ndtri(p):
    """Standard normal quantile, by Wichura's AS 241 (Appl. Statist. 37, 1988).

    Within ~3 eps relative of the exact quantile on (0, 1); 0 and 1 map
    to -inf and inf, and values outside [0, 1] to nan, as SciPy's ``ndtri``.
    """
    p = np.asarray(p, dtype=float)
    flat = p.ravel()
    q = flat - 0.5
    out = q * _rational(0.180625 - q * q, _AS241_CENTRAL)
    # indices, not a mask: three boolean gathers cost more than the tail itself
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        pt = flat[tail]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
            x = _rational(s - 1.6, _AS241_NEAR)
            far = s > 5.0
            if far.any():
                # p = 0 or 1 gives s = inf, where the rational is inf / inf
                sf = s[far]
                x[far] = np.where(sf == np.inf, sf, _rational(sf - 5.0, _AS241_FAR))
        out[tail] = np.copysign(x, q[tail])
    return out.reshape(p.shape)


def _t4_quantile(p: np.ndarray) -> np.ndarray:
    """Student t quantile for 4 degrees of freedom, in Shaw's closed form
    (J. Comput. Finance 9(4), 2006); within ~2 eps of the exact quantile.

    With ``v = min(p, 1 - p)``, ``c = sqrt(4 v (1 - v))`` and
    ``theta = atan2(1 - 2 v, c)``, ``|t| = 2 sqrt(2 sin(2 theta / 3) sin(theta / 3) / c)``.
    """
    v = np.minimum(p, 1.0 - p)
    c = np.sqrt(4.0 * v * (1.0 - v))
    s = np.sin(np.arctan2(1.0 - 2.0 * v, c) / 3.0)
    # sin(2 theta / 3) = 2 s cos(theta / 3), and cos(theta / 3) = sqrt(1 - s^2)
    # >= cos(pi / 6) does not cancel: one sine where the form has two
    return np.copysign(4.0 * s * np.sqrt(np.sqrt(1.0 - s * s) / c), p - 0.5)


def _t_median_series(p: np.ndarray, nu: float) -> np.ndarray:
    """Student t quantile next to the median, by the inverse series
    ``t = y + (nu + 1) / (6 nu) y^3 + (nu + 1)(7 nu + 1) / (120 nu^2) y^5``,
    ``y = (p - 1/2) / f(0)``; within ~2 eps relative for
    ``|p - 1/2| < _T_MEDIAN_SERIES``."""
    x = 0.5 * nu
    if x < 50.0:
        ratio = math.gamma(x + 0.5) / math.gamma(x)  # within ~1 eps up to x = 170
    else:
        # ln(Gamma(x + 1/2) / Gamma(x)), asymptotically; a difference of two
        # lgamma values loses ~x ln(x) eps
        ratio = math.sqrt(x) * math.exp(
            -1.0 / (8.0 * x) + 1.0 / (192.0 * x**3) - 1.0 / (640.0 * x**5) + 17.0 / (14336.0 * x**7)
        )
    y = (p - 0.5) * (math.sqrt(nu * math.pi) / ratio)
    y2 = y * y
    c3 = (nu + 1.0) / (6.0 * nu)
    c5 = (nu + 1.0) * (7.0 * nu + 1.0) / (120.0 * nu * nu)
    return y * (1.0 + y2 * (c3 + y2 * c5))


def _as_prob(p):
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("probabilities must lie in the open interval (0, 1)")
    return arr


def _scalar_like(out: np.ndarray, template) -> np.ndarray | float:
    return float(out) if np.ndim(template) == 0 else out


@dataclass(frozen=True)
class Normal:
    """Normal distribution with mean ``mu`` and standard deviation ``sigma``."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0 and np.isfinite(self.sigma) and np.isfinite(self.mu)):
            raise ValueError("Normal requires finite mu and sigma > 0")

    def quantile(self, p):
        return _scalar_like(self.mu + self.sigma * ndtri(_as_prob(p)), p)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return _scalar_like(ndtr((x - self.mu) / self.sigma), x)

    def mean(self) -> float:
        return self.mu

    def var(self) -> float:
        return self.sigma**2


@dataclass(frozen=True)
class StudentT:
    """Student t distribution with ``nu`` degrees of freedom (location 0, scale 1).

    For ``nu = 4`` the quantile is Shaw's closed form, within ~2 eps.  Other
    ``nu`` use SciPy's ``stdtrit``, within 1e-12 relative for
    ``|p - 1/2| >= 1e-4``; closer to the median, where ``stdtrit`` degrades
    (~2e-8 at ``|p - 1/2| = 1e-9``, and 0 there for ``nu = 6``), the inverse
    series of ``_t_median_series``, within ~2 eps.
    """

    nu: float

    def __post_init__(self) -> None:
        if not (self.nu > 0.0 and np.isfinite(self.nu)):
            raise ValueError("StudentT requires nu > 0")

    def quantile(self, p):
        pp = _as_prob(p)
        if self.nu == 4.0:
            return _scalar_like(_t4_quantile(pp), p)
        near = np.abs(pp - 0.5) < _T_MEDIAN_SERIES
        q = stdtrit(self.nu, pp)
        if near.any():
            q = np.where(near, _t_median_series(pp, self.nu), q)
        return _scalar_like(q, p)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return _scalar_like(stdtr(self.nu, x), x)

    def mean(self) -> float:
        if self.nu <= 1.0:
            raise ValueError("StudentT mean undefined for nu <= 1")
        return 0.0

    def var(self) -> float:
        if self.nu <= 2.0:
            raise ValueError("StudentT variance undefined for nu <= 2")
        return self.nu / (self.nu - 2.0)


@dataclass(frozen=True)
class SkewNormal:
    """Skew-normal distribution with location ``xi``, scale ``omega``, shape ``shape``.

    With ``z = (x - xi) / omega`` the cdf is ``F(z) = Phi(z) - 2 T(z, shape)``
    (Owen's T) and the density ``f(z) = 2 phi(z) Phi(shape z)``.

    The quantile is a safeguarded Newton iteration on ``F``.  For
    ``shape >= 0`` the stochastic order ``N(0, 1) <= SN(shape) <= |Z|``
    brackets the root in ``[Phi^-1(p), Phi^-1((1 + p) / 2)]`` before any
    cdf is evaluated; for ``shape < 0`` the mirror ``SN(shape) = -SN(-shape)``
    gives ``[Phi^-1(p / 2), Phi^-1(p)]``.  Every residual tightens the
    bracket, and a Newton step that leaves it becomes a bisection step.
    Above the median it solves ``1 - F(z) = 1 - p``, so the heavy tail keeps
    full relative accuracy.  A Newton step ends the iteration once its
    predicted error ``|f' / (2 f)| step^2`` is within tolerance.

    Every element starts by one rule, so the quantile is element-wise: an
    element's result does not depend on the array it is in.  The first
    quantile at a shape solves the root at 192 nodes (``_TABLE_NODES``)
    equispaced in ``w = Phi^-1(p)`` over ``[-6, 6]`` (``_TABLE_W``; p from
    ~1e-9 to 1 - 1e-9), the light-tail ones started from the tail's
    asymptote and the rest from Cornish-Fisher, and keeps them with the
    exact slopes ``dz/dw = phi(w) / f(z)`` (4-8 passes, ~0.6-0.8 ms, once
    per shape for up to 16 shapes).  An element inside that range starts
    from the cubic Hermite interpolant of ``z(w)`` through the nodes, one
    outside it from the Cornish-Fisher expansion.  Uniform ``p`` then take
    about one cdf evaluation each (1.00 at shape 2, 1.01 at -3, 1.27 at 20,
    for 10,000 draws), against about four from the Cornish-Fisher start.

    Accuracy is that of the cdf, one pass of ``_skew_normal_pass``: the
    normal tails within 5.5 eps relative and Owen's T within
    ``1.5 (1 + z^2)`` eps relative, against mpmath (SciPy's ``owens_t`` is
    up to 33 (1 + z^2) eps off at shape 0.7, for |z| <= 12).  In the
    light tail (left for ``shape > 0``, right for ``shape < 0``)
    ``Phi - 2T`` cancels, and the cdf loses relative accuracy below ~1e-12
    (1.8e-7 relative at ``z = -3`` for shape 2).  Quantiles of smaller
    probabilities, such as those below the copula floor of 1e-15, are only
    as good as the cdf there: ``SkewNormal(0, 1, 2).quantile(1e-300)`` is
    about -4.08, against a true quantile of -16.51.

    ``|shape|`` is at most 1e100 (``_MAX_SHAPE``).  Past ~1e150 Owen's T
    overflows, and from ~3e159 the quantile is silently wrong (shape 1e160
    gives negative values).  The bound loses nothing: for ``|shape|`` from
    1e20 to 1e149 every quantile of p in the copula's [1e-15, 1 - 1e-16] is
    within ``4 eps max(1, |z|)`` of the half-normal limit's.
    """

    xi: float = 0.0
    omega: float = 1.0
    shape: float = 0.0

    def __post_init__(self) -> None:
        if not (
            self.omega > 0.0
            and np.isfinite(self.omega)
            and np.isfinite(self.xi)
            and abs(self.shape) <= _MAX_SHAPE
        ):
            raise ValueError(
                f"SkewNormal requires finite xi, omega > 0 and |shape| <= {_MAX_SHAPE:g}"
            )

    @property
    def delta(self) -> float:
        return self.shape / math.hypot(1.0, self.shape)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.xi) / self.omega
        flat = z.ravel()
        qz, _, t = _skew_normal_pass(flat, self.shape)
        # Phi - 2T cancels in the light tail and can stray past [0, 1] by an ulp
        return _scalar_like(np.clip(_cdf_from_tail(flat, qz) - t, 0.0, 1.0).reshape(z.shape), x)

    def quantile(self, p):
        pp = _as_prob(p)
        z = _skew_normal_root(pp.ravel(), self.shape).reshape(pp.shape)
        return _scalar_like(self.xi + self.omega * z, p)

    def mean(self) -> float:
        return self.xi + self.omega * self.delta * np.sqrt(2.0 / np.pi)

    def var(self) -> float:
        return self.omega**2 * (1.0 - 2.0 * self.delta**2 / np.pi)


def _skew_normal_root(p: np.ndarray, a: float) -> np.ndarray:
    """Root z of ``Phi(z) - 2 T(z, a) = p`` for each element of the 1-d array ``p``.

    Each element is solved on its own, from ``_tabulated_start``: its root
    does not depend on the other elements of ``p``."""
    w = ndtri(p)
    if a == 0.0:
        return w  # T(z, 0) = 0: the root is the normal quantile
    return _newton_root(p, w, a, _tabulated_start(w, a))


def _cornish_fisher(w: np.ndarray, a: float) -> np.ndarray:
    """Cornish-Fisher start from the standardised mean, sd and skewness."""
    mu = _SQRT_2_OVER_PI * a / math.sqrt(1.0 + a * a)
    sd = math.sqrt(1.0 - mu * mu)
    skew = 0.5 * (4.0 - math.pi) * (mu / sd) ** 3
    return mu + sd * (w + skew * (w * w - 1.0) / 6.0)


def _node_start(w: np.ndarray, a: float) -> np.ndarray:
    """Start of the table's roots.  On the light side (``a w < 0``), once
    ``|a z| >= _LIGHT_TAIL_START``, the root of the tail asymptote
    ``q ~ exp(-c z^2 / 2) / (pi |a| c z^2)``, ``c = 1 + a^2``, at the tail
    probability ``q = Phi(-|w|)``, by three fixed-point steps on ``z^2``;
    elsewhere Cornish-Fisher.  Newton from Cornish-Fisher alone crawls there:
    the table took 14-21 passes at shapes 2, -3 and 20, against 4-8."""
    b = abs(a)
    c = 1.0 + b * b
    log_q = np.log(ndtr(-np.abs(w)))
    z2 = -2.0 * log_q / c
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            z2 = -2.0 * (log_q + np.log(math.pi * b * c * z2)) / c
        tail = np.copysign(np.sqrt(z2), -a)
        light = (a * w < 0.0) & (b * b * z2 >= _LIGHT_TAIL_START**2)
    return np.where(light, tail, _cornish_fisher(w, a))


@functools.lru_cache(maxsize=16)
def _root_table(a: float) -> tuple[np.ndarray, np.ndarray]:
    """The roots ``z`` and the exact slopes ``dz/dw = phi(w) / f(z)`` at
    ``_TABLE_NODES`` nodes ``w`` equispaced over ``[-_TABLE_W, _TABLE_W]``,
    solved from ``_node_start``.  Built on first use for each shape (4-8
    passes, ~0.6-0.8 ms), not at import."""
    nodes = np.linspace(-_TABLE_W, _TABLE_W, _TABLE_NODES)
    p = ndtr(nodes)
    w = ndtri(p)
    z = _newton_root(p, w, a, _node_start(w, a))
    # Phi(a z) underflows to 0 only where the cdf has no resolution left,
    # and a flat node is start enough there
    with np.errstate(divide="ignore", over="ignore"):
        slope = 0.5 * np.exp(0.5 * (z * z - nodes * nodes)) / ndtr(a * z)
    slope = np.where(np.isfinite(slope), slope, 0.0)
    # every quantile at this shape shares the arrays
    z.flags.writeable = slope.flags.writeable = False
    return z, slope


def _tabulated_start(w: np.ndarray, a: float) -> np.ndarray:
    """The start of the root at ``w = Phi^-1(p)``: inside the range of
    ``_root_table(a)`` the cubic Hermite interpolant of ``z(w)`` through its
    nodes, outside it the Cornish-Fisher expansion."""
    zn, slope = _root_table(a)
    width = 2.0 * _TABLE_W / (_TABLE_NODES - 1)
    x = (w + _TABLE_W) / width
    i = np.clip(x.astype(np.intp), 0, _TABLE_NODES - 2)
    s = x - i
    s1 = 1.0 - s
    z = (
        s1 * s1 * ((1.0 + 2.0 * s) * zn[i] + s * width * slope[i])
        + s * s * ((3.0 - 2.0 * s) * zn[i + 1] - s1 * width * slope[i + 1])
    )
    outside = np.flatnonzero(np.abs(w) > _TABLE_W)
    if outside.size:
        z[outside] = _cornish_fisher(w[outside], a)
    return z


def _newton_root(p: np.ndarray, w: np.ndarray, a: float, z: np.ndarray) -> np.ndarray:
    """The safeguarded Newton iteration of ``_skew_normal_root`` from the
    start ``z``, for ``a != 0`` and ``w = Phi^-1(p)``."""
    if a >= 0.0:
        # Phi^-1((1 + p) / 2), written so that p near 1 does not round it to inf
        lo, hi = w, -ndtri(0.5 * (1.0 - p))
    else:
        lo, hi = ndtri(0.5 * p), w
    z = np.clip(z, lo, hi)
    # Above the median solve 1 - F(z) = Phi(-z) + 2 T(z, a) = 1 - p instead:
    # 1 - p is exact there, and the heavy right tail (a > 0) keeps full
    # relative accuracy.  The residual r > 0 always means z is too high.
    upper = p > 0.5
    target = np.where(upper, 1.0 - p, p)
    prev = np.full(p.shape, np.nan)
    # whether each bracket end is an evaluated iterate or still the start value
    lo_seen = np.zeros(p.shape, dtype=bool)
    hi_seen = np.zeros(p.shape, dtype=bool)
    out = z.copy()
    active = np.arange(p.size)
    for _ in range(_NEWTON_MAX_ITER):
        if active.size == 0:
            break
        qz, qaz, t = _skew_normal_pass(z, a)
        # Phi(-z) above the median, Phi(z) below
        phi = _cdf_from_tail(np.where(upper, -z, z), qz)
        r = np.where(upper, target - (phi + t), (phi - t) - target)
        hi = np.where(r > 0.0, z, hi)
        lo = np.where(r < 0.0, z, lo)
        hi_seen |= r > 0.0
        lo_seen |= r < 0.0
        az = a * z
        phi_az = _cdf_from_tail(az, qaz)
        f = _SQRT_2_OVER_PI * np.exp(-0.5 * z * z) * phi_az
        # f underflows to 0 deep in the light tail; the bracket catches the inf
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            zn = np.where(r == 0.0, z, z - r / f)
            # Newton's error after the step is |f' / (2 f)| step^2, with
            # f' / f = -z + a phi(a z) / Phi(a z)
            curvature = np.abs(a * np.exp(-0.5 * az * az) / (_SQRT_2PI * phi_az) - z)
        newton = (zn >= lo) & (zn <= hi)
        # a step out through an end never evaluated goes to that end (the
        # root may sit at or a hair past the start value); through an
        # evaluated end it bisects
        zn = np.where((zn > hi) & ~hi_seen, hi, np.where((zn < lo) & ~lo_seen, lo, zn))
        zn = np.where((zn >= lo) & (zn <= hi), zn, 0.5 * (lo + hi))
        step = np.abs(zn - z)
        tol = 4.0 * _EPS * np.maximum(1.0, np.abs(z))
        # a step back to the previous iterate is a 2-cycle between the two
        # bracket ends: the cdf cannot resolve the root any closer
        done = (step <= tol) | (hi - lo <= tol) | (zn == prev)
        done |= newton & (0.5 * curvature * step * step <= tol)
        out[active] = zn
        keep = ~done
        active = active[keep]
        z, prev, lo, hi = zn[keep], z[keep], lo[keep], hi[keep]
        lo_seen, hi_seen = lo_seen[keep], hi_seen[keep]
        upper, target = upper[keep], target[keep]
    return out


@dataclass(frozen=True)
class Gumbel:
    """Gumbel (type-I extreme value) distribution, standard form by default."""

    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (self.scale > 0.0 and np.isfinite(self.scale) and np.isfinite(self.loc)):
            raise ValueError("Gumbel requires finite loc and scale > 0")

    def quantile(self, p):
        return _scalar_like(self.loc - self.scale * np.log(-np.log(_as_prob(p))), p)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return _scalar_like(np.exp(-np.exp(-(x - self.loc) / self.scale)), x)

    def mean(self) -> float:
        return self.loc + self.scale * np.euler_gamma

    def var(self) -> float:
        return (np.pi * self.scale) ** 2 / 6.0


@dataclass(frozen=True)
class Logistic:
    """Logistic distribution, standard form by default."""

    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (self.scale > 0.0 and np.isfinite(self.scale) and np.isfinite(self.loc)):
            raise ValueError("Logistic requires finite loc and scale > 0")

    def quantile(self, p):
        pp = _as_prob(p)
        return _scalar_like(self.loc + self.scale * (np.log(pp) - np.log1p(-pp)), p)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.loc) / self.scale
        return _scalar_like(0.5 * (1.0 + np.tanh(0.5 * z)), x)

    def mean(self) -> float:
        return self.loc

    def var(self) -> float:
        return (np.pi * self.scale) ** 2 / 3.0


@dataclass(frozen=True)
class Exponential:
    """Exponential distribution with rate ``rate`` (mean ``1 / rate``)."""

    rate: float

    def __post_init__(self) -> None:
        if not (self.rate > 0.0 and np.isfinite(self.rate)):
            raise ValueError("Exponential requires rate > 0")

    def quantile(self, p):
        return _scalar_like(-np.log1p(-_as_prob(p)) / self.rate, p)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return _scalar_like(np.where(x > 0.0, -np.expm1(-self.rate * x), 0.0), x)

    def mean(self) -> float:
        return 1.0 / self.rate

    def var(self) -> float:
        return 1.0 / self.rate**2


@dataclass(frozen=True)
class Uniform:
    """Uniform distribution on the interval [a, b]."""

    a: float = 0.0
    b: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.b > self.a):
            raise ValueError("Uniform requires finite a < b")

    def quantile(self, p):
        return _scalar_like(self.a + (self.b - self.a) * _as_prob(p), p)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return _scalar_like(np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0), x)

    def mean(self) -> float:
        return 0.5 * (self.a + self.b)

    def var(self) -> float:
        return (self.b - self.a) ** 2 / 12.0


MarginSpec = Union[Normal, StudentT, SkewNormal, Gumbel, Logistic, Exponential, Uniform]


def has_finite_second_moment(margin: MarginSpec) -> bool:
    """Flag margins with E[X^2] < infinity (required for expectiles to exist)."""
    if not isinstance(margin, MarginSpec):
        raise ValueError(f"unknown margin type: {type(margin).__name__}")
    if isinstance(margin, StudentT):
        return margin.nu > 2.0
    return True
