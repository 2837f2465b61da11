"""Archimedean copula samplers with closed-form Kendall's tau.

Clayton, Gumbel and Frank (theta > 0) samples come from the
Marshall-Olkin frailty construction ``U_j = psi(E_j / V)`` with iid
standard exponentials E_j and a frailty V whose Laplace transform is the
generator psi: a Gamma(1/theta) frailty for Clayton (drawn in log space,
as the draw itself underflows at strong dependence), a positive
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
_LOG2 = float(np.log(2.0))
# beyond |theta| = 700 a Frank sample's exp(-|theta|) terms leave the normal
# floats (below 1e-304), and the frailty or the conditional inverse degenerates
_FRANK_MAX = 700.0


def _clip_unit(u: np.ndarray) -> np.ndarray:
    return np.clip(u, _UNIT_LO, _UNIT_HI)


def _positive_stable_power(alpha: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """``V^(-alpha)`` for positive stable V with Laplace transform exp(-s^alpha), 0 < alpha < 1.

    Chambers-Mallows-Stuck: with Theta ~ U(0, pi) and W ~ Exp(1),
    V = sin(alpha Theta) / sin(Theta)^(1/alpha)
        * (sin((1-alpha) Theta) / W)^((1-alpha)/alpha),
    so V^(-alpha) = sin(Theta) / sin(alpha Theta)^alpha
        * (W / sin((1-alpha) Theta))^(1-alpha),
    which has no 1/alpha power to overflow at small alpha.
    """
    theta = rng.uniform(0.0, np.pi, size=count)
    theta = np.clip(theta, 1e-10, np.pi - 1e-10)
    w = np.maximum(rng.standard_exponential(count), 1e-300)
    ratio = np.sin(theta) / np.sin(alpha * theta) ** alpha
    return ratio * (w / np.sin((1.0 - alpha) * theta)) ** (1.0 - alpha)


def _log1mexp(x, out: np.ndarray | None = None) -> np.ndarray:
    """``log(1 - exp(-x))`` for x >= 0, to full relative precision at both ends.

    Below log 2 it is ``log(-expm1(-x))``, above it ``log1p(-exp(-x))``
    (Maechler 2012): neither form rounds ``1 - exp(-x)`` through 1.  Each
    form runs on its own elements only, gathered by index and evaluated in
    place; the result goes to ``out`` (C-contiguous, and it may be ``x``
    itself), or to a new array.
    """
    x = np.asarray(x, dtype=float, order="C")
    out = np.empty_like(x) if out is None else out
    flat, res = x.reshape(-1), out.reshape(-1)
    below = flat < _LOG2
    low, high = np.flatnonzero(below), np.flatnonzero(~below)
    a, b = flat[low], flat[high]
    np.negative(a, out=a)
    np.expm1(a, out=a)
    np.negative(a, out=a)
    with np.errstate(divide="ignore"):  # x = 0 gives -inf
        np.log(a, out=a)
    np.negative(b, out=b)
    np.exp(b, out=b)
    np.negative(b, out=b)
    np.log1p(b, out=b)
    res[low] = a
    res[high] = b
    return out


def _log_series(theta: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Logarithmic-series variates with p = 1 - exp(-theta), pmf k -> -p^k / (k log(1-p)).

    Kemp's LK sampler: with V, U iid U(0,1) and q = 1 - (1-p)^U = 1 -
    exp(-U theta), return 1 if V >= p; else floor(1 + ln V / ln q) if
    V <= q^2; else 2 if V <= q; else 1.  ``ln q`` comes from theta itself,
    so it stays below 0 where q rounds to 1 (theta above ~37).
    """
    p = -np.expm1(-theta)
    v = np.maximum(rng.random(count), 1e-300)
    u = rng.random(count)
    log_v = np.log(v)
    log_q = u * theta
    _log1mexp(log_q, out=log_q)
    k_tail = np.floor(1.0 + log_v / log_q)
    return np.where(
        v >= p,
        1.0,
        np.where(log_v <= 2.0 * log_q, k_tail, np.where(log_v <= log_q, 2.0, 1.0)),
    )


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
        count, theta = int(count), self.theta
        # log V of V = G U^theta, G ~ Gamma(1 + 1/theta), U ~ U(0, 1] (Marsaglia
        # and Tsang 2000), and psi(E / V) = exp(-softplus(log E - log V) / theta)
        log_v = np.log(rng.gamma(1.0 + 1.0 / theta, size=count))
        log_v += theta * np.log1p(-rng.random(count))
        with np.errstate(divide="ignore"):  # E = 0 gives u = 1, as psi(0) is
            x = np.log(rng.standard_exponential((count, int(self.dim)))) - log_v[:, np.newaxis]
        # softplus(x) = max(x, 0) + log1p(exp(-|x|)), then exp(-softplus / theta), in place
        tail = np.abs(x)
        np.negative(tail, out=tail)
        np.exp(tail, out=tail)
        np.log1p(tail, out=tail)
        np.maximum(x, 0.0, out=x)
        x += tail
        x /= -theta
        return _clip_unit(np.exp(x, out=x))

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
            v_power = _positive_stable_power(alpha, count, rng)
            u = np.exp(-(e**alpha) * v_power[:, np.newaxis])
        return _clip_unit(u)

    def kendall_tau(self) -> float:
        return 1.0 - 1.0 / self.theta


@dataclass(frozen=True)
class FrankCopula:
    """Frank copula, 0 < |theta| <= 700; theta < 0 (negative dependence) is bivariate only."""

    theta: float
    dim: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.theta) and self.theta != 0.0):
            raise ValueError("FrankCopula requires finite theta != 0 (use IndependenceCopula)")
        if abs(self.theta) > _FRANK_MAX:
            raise ValueError(f"FrankCopula requires |theta| <= {_FRANK_MAX:g}")
        if int(self.dim) < 2:
            raise ValueError("FrankCopula requires dim >= 2")
        if self.theta < 0.0 and int(self.dim) != 2:
            raise ValueError("FrankCopula with theta < 0 exists only for dim = 2")

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        count = int(count)
        if self.theta > 0.0:
            v = _log_series(self.theta, count, rng)
            e = rng.standard_exponential((count, int(self.dim)))
            # psi(t) = -log(1 - p exp(-t)) / theta, and p exp(-t) = exp(-(t + c))
            # with c = -log(p): the log1mexp of t + c, which never forms 1 - p
            c = -_log1mexp(self.theta)
            u = e / v[:, np.newaxis]
            u += c
            _log1mexp(u, out=u)
            u /= -self.theta
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
