"""Archimedean copula samplers with closed-form Kendall's tau.

Clayton, Gumbel and Frank (theta > 0) samples come from the
Marshall-Olkin frailty construction ``U_j = psi(E_j / V)`` with iid
standard exponentials E_j and a frailty V whose Laplace transform is the
generator psi: a Gamma(1/theta) frailty for Clayton, a positive
alpha-stable frailty (Chambers-Mallows-Stuck sampler, alpha = 1/theta)
for Gumbel, and a logarithmic-series frailty (Kemp's LK sampler) for
Frank.  Negative-dependence Frank (theta < 0) exists only for d = 2 and
uses conditional inversion of dC/du1.

``scipy.integrate`` is imported lazily, inside the Debye function that
Frank's Kendall's tau integrates: nothing else in the package needs it, and
importing it with the module would quadruple the CPU of ``import geomrisk.cli``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "IndependenceCopula",
    "ClaytonCopula",
    "GumbelCopula",
    "FrankCopula",
    "CopulaSpec",
]

# keep copula samples strictly inside (0,1): fp underflow at the tails
# would otherwise map to infinite margin quantiles
_UNIT_LO = 1e-15
_UNIT_HI = 1.0 - 1e-16


def _clip_unit(u: np.ndarray) -> np.ndarray:
    return np.clip(u, _UNIT_LO, _UNIT_HI)


def _positive_stable(alpha: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Positive stable variates with Laplace transform exp(-s^alpha), 0 < alpha < 1.

    Chambers-Mallows-Stuck: with Theta ~ U(0, pi) and W ~ Exp(1),
    V = sin(alpha Theta) / sin(Theta)^(1/alpha)
        * (sin((1-alpha) Theta) / W)^((1-alpha)/alpha).
    """
    theta = rng.uniform(0.0, np.pi, size=count)
    theta = np.clip(theta, 1e-10, np.pi - 1e-10)
    w = np.maximum(rng.standard_exponential(count), 1e-300)
    ratio = np.sin(alpha * theta) / np.sin(theta) ** (1.0 / alpha)
    return ratio * (np.sin((1.0 - alpha) * theta) / w) ** ((1.0 - alpha) / alpha)


def _log_series(p: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Logarithmic-series variates, pmf k -> -p^k / (k log(1-p)), k = 1, 2, ...

    Kemp's LK sampler: with V, U iid U(0,1) and q = 1 - (1-p)^U,
    return 1 if V >= p; else floor(1 + ln V / ln q) if V <= q^2;
    else 2 if V <= q; else 1.
    """
    v = np.maximum(rng.random(count), 1e-300)
    u = rng.random(count)
    q = -np.expm1(u * np.log1p(-p))
    with np.errstate(divide="ignore", invalid="ignore"):
        k_tail = np.floor(1.0 + np.log(v) / np.log(q))
    out = np.where(
        v >= p,
        1.0,
        np.where(v <= q * q, k_tail, np.where(v <= q, 2.0, 1.0)),
    )
    return out


@dataclass(frozen=True)
class IndependenceCopula:
    """Product copula in dimension ``dim``."""

    dim: int

    def __post_init__(self) -> None:
        if int(self.dim) < 1:
            raise ValueError("IndependenceCopula requires dim >= 1")

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return _clip_unit(rng.random((int(count), int(self.dim))))

    def kendall_tau(self) -> float:
        return 0.0


@dataclass(frozen=True)
class ClaytonCopula:
    """Clayton copula, generator psi(t) = (1 + t)^(-1/theta), theta > 0."""

    theta: float
    dim: int

    def __post_init__(self) -> None:
        if not (self.theta > 0.0 and np.isfinite(self.theta)):
            raise ValueError("ClaytonCopula requires theta > 0")
        if int(self.dim) < 2:
            raise ValueError("ClaytonCopula requires dim >= 2")

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        v = np.maximum(rng.gamma(1.0 / self.theta, size=int(count)), 1e-300)
        e = rng.standard_exponential((int(count), int(self.dim)))
        u = (1.0 + e / v[:, np.newaxis]) ** (-1.0 / self.theta)
        return _clip_unit(u)

    def kendall_tau(self) -> float:
        return self.theta / (self.theta + 2.0)


@dataclass(frozen=True)
class GumbelCopula:
    """Gumbel copula, generator psi(t) = exp(-t^(1/theta)), theta >= 1."""

    theta: float
    dim: int

    def __post_init__(self) -> None:
        if not (self.theta >= 1.0 and np.isfinite(self.theta)):
            raise ValueError("GumbelCopula requires theta >= 1")
        if int(self.dim) < 2:
            raise ValueError("GumbelCopula requires dim >= 2")

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        count = int(count)
        alpha = 1.0 / self.theta
        e = rng.standard_exponential((count, int(self.dim)))
        if self.theta == 1.0:
            # frailty degenerates to 1: independence
            u = np.exp(-e)
        else:
            v = _positive_stable(alpha, count, rng)
            u = np.exp(-((e / v[:, np.newaxis]) ** alpha))
        return _clip_unit(u)

    def kendall_tau(self) -> float:
        return 1.0 - 1.0 / self.theta


@dataclass(frozen=True)
class FrankCopula:
    """Frank copula; theta < 0 (negative dependence) is bivariate only."""

    theta: float
    dim: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.theta) and self.theta != 0.0):
            raise ValueError("FrankCopula requires finite theta != 0 (use IndependenceCopula)")
        if int(self.dim) < 2:
            raise ValueError("FrankCopula requires dim >= 2")
        if self.theta < 0.0 and int(self.dim) != 2:
            raise ValueError("FrankCopula with theta < 0 exists only for dim = 2")

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        count = int(count)
        if self.theta > 0.0:
            p = -np.expm1(-self.theta)
            v = _log_series(p, count, rng)
            e = rng.standard_exponential((count, int(self.dim)))
            u = -np.log1p(-p * np.exp(-e / v[:, np.newaxis])) / self.theta
            return _clip_unit(u)
        # theta < 0, dim = 2: invert v -> dC/du1(u1, v) at a uniform level
        u1 = rng.random(count)
        w = np.maximum(rng.random(count), 1e-300)
        a = np.exp(-self.theta * u1)
        d = np.expm1(-self.theta)
        b = w * d / (a * (1.0 - w) + w)
        u2 = -np.log1p(b) / self.theta
        return _clip_unit(np.column_stack([u1, u2]))

    def kendall_tau(self) -> float:
        return 1.0 + 4.0 * (_debye1(self.theta) - 1.0) / self.theta


def _debye1(x: float) -> float:
    """First Debye function D1(x) = (1/x) * int_0^x t / (e^t - 1) dt."""
    # imported here, not at module level: with the scipy.special it loads,
    # scipy.integrate costs ~0.43 s of CPU (2-core Xeon); only Frank's tau needs it
    from scipy.integrate import quad

    def integrand(t: float) -> float:
        if t == 0.0:
            return 1.0
        return t / np.expm1(t)

    val, _ = quad(integrand, 0.0, x, epsabs=1e-12, epsrel=1e-12, limit=200)
    return val / x


CopulaSpec = Union[IndependenceCopula, ClaytonCopula, GumbelCopula, FrankCopula]
