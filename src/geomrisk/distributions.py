"""Univariate margin distributions for model building.

Each margin is a small frozen dataclass exposing ``quantile``, ``cdf``,
``mean``, ``var`` and ``sample``.  Quantiles are exact inverse cdfs
(special functions where available, bracketing bisection for the skew
normal), so copula samples can be pushed through them without bias.
Sampling is inverse-transform for every margin except the skew normal,
which uses its two-normal representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import ndtr, ndtri, owens_t, stdtr, stdtrit

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
    """Student t distribution with ``nu`` degrees of freedom (location 0, scale 1)."""

    nu: float

    def __post_init__(self) -> None:
        if not (self.nu > 0.0 and np.isfinite(self.nu)):
            raise ValueError("StudentT requires nu > 0")

    def quantile(self, p):
        return _scalar_like(stdtrit(self.nu, _as_prob(p)), p)

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

    cdf(z) = Phi(z) - 2 T(z, shape) with T Owen's T function; the
    quantile inverts that cdf by bracketing bisection.  Sampling uses
    the representation ``delta |Z0| + sqrt(1 - delta^2) Z1`` with
    ``delta = shape / sqrt(1 + shape^2)`` and independent standard
    normals Z0, Z1.
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
        return self.shape / np.sqrt(1.0 + self.shape**2)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.xi) / self.omega
        return _scalar_like(ndtr(z) - 2.0 * owens_t(z, self.shape), x)

    def quantile(self, p):
        pp = np.atleast_1d(_as_prob(p)).astype(float)
        z0 = ndtri(pp)
        lo = self.xi + self.omega * (z0 - 8.0)
        hi = self.xi + self.omega * (z0 + 8.0)
        # widen until the bracket certainly contains the root
        for _ in range(60):
            bad_lo = self.cdf(lo) > pp
            bad_hi = self.cdf(hi) < pp
            if not (np.any(bad_lo) or np.any(bad_hi)):
                break
            width = hi - lo
            lo = np.where(bad_lo, lo - width, lo)
            hi = np.where(bad_hi, hi + width, hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < pp
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out = 0.5 * (lo + hi)
        return _scalar_like(out if np.ndim(p) else out[0], p)

    def mean(self) -> float:
        return self.xi + self.omega * self.delta * np.sqrt(2.0 / np.pi)

    def var(self) -> float:
        return self.omega**2 * (1.0 - 2.0 * self.delta**2 / np.pi)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        z0 = rng.standard_normal(int(count))
        z1 = rng.standard_normal(int(count))
        d = self.delta
        return self.xi + self.omega * (d * np.abs(z0) + np.sqrt(1.0 - d * d) * z1)


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
