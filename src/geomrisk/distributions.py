"""Univariate margin distributions for model building.

Each margin is a small frozen dataclass exposing ``quantile``, ``cdf``,
``mean``, ``var`` and ``sample``.  Quantiles are exact inverse cdfs, so
copula samples can be pushed through them without bias: closed forms, the
normal quantile by Wichura's AS 241 (within ~3 eps), the Student t quantile
by Shaw's closed form for ``nu = 4`` (within ~2 eps) and SciPy's ``stdtrit``
for other ``nu``, and for the skew normal a safeguarded Newton iteration on
its cdf, bracketed by the normal and half-normal quantiles and, on large
inputs, started from an interpolant through tabulated roots (see
``SkewNormal``).  Sampling is inverse-transform for every margin except the
skew normal, which uses its two-normal representation.

``scipy.special`` is imported on a special function's first call, so only the
skew-normal quantile (Owen's T), the Student t quantile for ``nu != 4`` and
the cdfs of the normal, Student t and skew-normal margins pay for it.
"""

from __future__ import annotations

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

# floor for inverse-transform uniforms; random() can return exactly 0.0
_U_FLOOR = 1e-300

_EPS = np.finfo(float).eps
_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_SQRT_2PI = np.sqrt(2.0 * np.pi)
# cap on skew-normal Newton passes; bisection steps alone shrink the widest
# bracket (~40) below the stopping tolerance in ~55 passes
_NEWTON_MAX_ITER = 100
# nodes of the tabulated skew-normal start, taken by inputs of more than
# 4 * _TABLE_NODES elements; the nodes themselves start from Cornish-Fisher
_TABLE_NODES = 128


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
ndtr, owens_t, stdtr, stdtrit = map(_special, "ndtr owens_t stdtr stdtrit".split())

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


def _as_prob(p):
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("probabilities must lie in the open interval (0, 1)")
    return arr


def _scalar_like(out: np.ndarray, template) -> np.ndarray | float:
    return float(out) if np.ndim(template) == 0 else out


class _InverseTransform:
    """Inverse-transform sampling: uniforms pushed through ``quantile``."""

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return self.quantile(np.maximum(rng.random(int(count)), _U_FLOOR))


@dataclass(frozen=True)
class Normal(_InverseTransform):
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
class StudentT(_InverseTransform):
    """Student t distribution with ``nu`` degrees of freedom (location 0, scale 1).

    For ``nu = 4`` the quantile is Shaw's closed form, within ~2 eps.  Other
    ``nu`` use SciPy's ``stdtrit``, within ~1e-10 relative away from the
    median; next to it that grows to ~2e-8 at ``|p - 1/2| = 1e-9``, and for
    ``nu = 6`` (as for ``nu = 4``) it returns 0 there.
    """

    nu: float

    def __post_init__(self) -> None:
        if not (self.nu > 0.0 and np.isfinite(self.nu)):
            raise ValueError("StudentT requires nu > 0")

    def quantile(self, p):
        pp = _as_prob(p)
        return _scalar_like(_t4_quantile(pp) if self.nu == 4.0 else stdtrit(self.nu, pp), p)

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
    (Owen's T) and the density ``f(z) = 2 phi(z) Phi(shape z)``.  Sampling uses
    the representation ``delta |Z0| + sqrt(1 - delta^2) Z1`` with
    ``delta = shape / sqrt(1 + shape^2)`` and independent standard
    normals Z0, Z1.

    The quantile is a safeguarded Newton iteration on ``F``.  For
    ``shape >= 0`` the stochastic order ``N(0, 1) <= SN(shape) <= |Z|``
    brackets the root in ``[Phi^-1(p), Phi^-1((1 + p) / 2)]`` before any
    cdf is evaluated; for ``shape < 0`` the mirror ``SN(shape) = -SN(-shape)``
    gives ``[Phi^-1(p / 2), Phi^-1(p)]``.  Every residual tightens the
    bracket, and a Newton step that leaves it becomes a bisection step.
    Above the median it solves ``1 - F(z) = 1 - p``, so the heavy tail keeps
    full relative accuracy.  A Newton step ends the iteration once its
    predicted error ``|f' / (2 f)| step^2`` is within tolerance.

    Small inputs start from the Cornish-Fisher expansion.  An input of more
    than 512 elements first solves the root at 128 nodes (``_TABLE_NODES``)
    equispaced in ``w = Phi^-1(p)`` over its range, and starts every element
    from the cubic Hermite interpolant of ``z(w)`` through them, with the
    exact slopes ``dz/dw = phi(w) / f(z)``.  Uniform ``p`` then take about
    one cdf evaluation each (1.04 at shapes 2 and -3, 1.23 at shape 20, for
    10,000 draws), against about four from the Cornish-Fisher start.

    Accuracy is that of the cdf.  In the light tail (left for
    ``shape > 0``, right for ``shape < 0``) ``Phi - 2T`` cancels, and the
    cdf loses relative accuracy below ~1e-12 (4.8e-6 relative at ``z = -3``
    for shape 2).  Quantiles of smaller probabilities, such as those below
    the copula floor of 1e-15, are only as good as the cdf there:
    ``SkewNormal(0, 1, 2).quantile(1e-300)`` is about -3.85, against a true
    quantile of -16.51.
    """

    xi: float = 0.0
    omega: float = 1.0
    shape: float = 0.0

    def __post_init__(self) -> None:
        if not (
            self.omega > 0.0
            and np.isfinite(self.omega)
            and np.isfinite(self.xi)
            and np.isfinite(self.shape)
        ):
            raise ValueError("SkewNormal requires finite xi and shape, omega > 0")

    @property
    def delta(self) -> float:
        return self.shape / math.hypot(1.0, self.shape)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.xi) / self.omega
        # Phi - 2T cancels in the light tail and can stray past [0, 1] by an ulp
        return _scalar_like(np.clip(ndtr(z) - 2.0 * owens_t(z, self.shape), 0.0, 1.0), x)

    def quantile(self, p):
        pp = _as_prob(p)
        z = _skew_normal_root(pp.ravel(), self.shape).reshape(pp.shape)
        return _scalar_like(self.xi + self.omega * z, p)

    def mean(self) -> float:
        return self.xi + self.omega * self.delta * np.sqrt(2.0 / np.pi)

    def var(self) -> float:
        return self.omega**2 * (1.0 - 2.0 * self.delta**2 / np.pi)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        z0 = rng.standard_normal(int(count))
        z1 = rng.standard_normal(int(count))
        d = self.delta
        return self.xi + self.omega * (d * np.abs(z0) + np.sqrt(1.0 - d * d) * z1)


def _skew_normal_root(p: np.ndarray, a: float) -> np.ndarray:
    """Root z of ``Phi(z) - 2 T(z, a) = p`` for each element of the 1-d array ``p``."""
    w = ndtri(p)
    if a == 0.0:
        return w  # T(z, 0) = 0: the root is the normal quantile
    if a >= 0.0:
        # Phi^-1((1 + p) / 2), written so that p near 1 does not round it to inf
        lo, hi = w, -ndtri(0.5 * (1.0 - p))
    else:
        lo, hi = ndtri(0.5 * p), w
    if p.size > 4 * _TABLE_NODES and w.max() > w.min():
        z = np.clip(_tabulated_start(p, w, a), lo, hi)
    else:
        # Cornish-Fisher start from the standardised mean, sd and skewness
        mu = _SQRT_2_OVER_PI * a / np.sqrt(1.0 + a * a)
        sd = np.sqrt(1.0 - mu * mu)
        skew = 0.5 * (4.0 - np.pi) * (mu / sd) ** 3
        z = np.clip(mu + sd * (w + skew * (w * w - 1.0) / 6.0), lo, hi)
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
        t = 2.0 * owens_t(z, a)
        # one normal cdf per element: Phi(-z) above the median, Phi(z) below
        phi = ndtr(np.where(upper, -z, z))
        r = np.where(upper, target - (phi + t), (phi - t) - target)
        hi = np.where(r > 0.0, z, hi)
        lo = np.where(r < 0.0, z, lo)
        hi_seen |= r > 0.0
        lo_seen |= r < 0.0
        az = a * z
        phi_az = ndtr(az)
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


def _tabulated_start(p: np.ndarray, w: np.ndarray, a: float) -> np.ndarray:
    """Cubic Hermite interpolant of the root ``z(w)``, ``w = Phi^-1(p)``, through
    ``_TABLE_NODES`` roots solved at nodes equispaced over the range of ``w``."""
    w_lo, w_hi = w.min(), w.max()
    nodes = np.linspace(w_lo, w_hi, _TABLE_NODES)
    # ndtr may round the end nodes a hair past the probabilities they came from
    zn = _skew_normal_root(np.clip(ndtr(nodes), p.min(), p.max()), a)
    # exact slopes dz/dw = phi(w) / f(z); Phi(a z) underflows to 0 only where
    # the cdf has no resolution left, and a flat node is start enough there
    with np.errstate(divide="ignore", over="ignore"):
        slope = 0.5 * np.exp(0.5 * (zn * zn - nodes * nodes)) / ndtr(a * zn)
    slope = np.where(np.isfinite(slope), slope, 0.0)
    width = (w_hi - w_lo) / (_TABLE_NODES - 1)
    x = (w - w_lo) / width
    i = np.clip(x.astype(np.intp), 0, _TABLE_NODES - 2)
    s = x - i
    s1 = 1.0 - s
    return (
        s1 * s1 * ((1.0 + 2.0 * s) * zn[i] + s * width * slope[i])
        + s * s * ((3.0 - 2.0 * s) * zn[i + 1] - s1 * width * slope[i + 1])
    )


@dataclass(frozen=True)
class Gumbel(_InverseTransform):
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
class Logistic(_InverseTransform):
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
class Exponential(_InverseTransform):
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
class Uniform(_InverseTransform):
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
