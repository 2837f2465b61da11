"""Archimedean copulas: their laws, with closed-form Kendall's tau.

Clayton, Gumbel and Frank (theta > 0) samples come from the
Marshall-Olkin frailty construction ``U_j = psi(E_j / V)`` with iid
standard exponentials E_j and a frailty V whose Laplace transform is the
generator psi: a Gamma(1/theta) frailty for Clayton (drawn in log space,
as the draw itself underflows at strong dependence), a positive
alpha-stable frailty (Chambers-Mallows-Stuck sampler, alpha = 1/theta)
for Gumbel, and a logarithmic-series frailty (Kemp's LK sampler) for
Frank.  Negative-dependence Frank (theta < 0) exists only for d = 2 and
uses conditional inversion of dC/du1.

A copula only describes its law; :func:`geomrisk.models.simulate`, the one
sampler, clips its draws and lends its private ``_fill(out, rng, spare)`` a
C-contiguous (n, d) ``out`` and a 1-D ``spare`` of n d floats.  The draw
goes into ``out`` in the row-major order of an (n, d) draw, and every step
after it runs there; Clayton's softplus and Frank's log1mexp gathers take
``spare``.  The frailties are arrays of n floats.

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

_LOG2 = float(np.log(2.0))
# below the normal doubles Clayton's 1/theta overflows and Frank's draws tie
_THETA_MIN = float(np.finfo(float).tiny)
# beyond |theta| = 700 a Frank sample's exp(-|theta|) terms leave the normal
# floats (below 1e-304), and the frailty or the conditional inverse degenerates
_FRANK_MAX = 700.0


def _positive_stable_power(alpha: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """``V^(-alpha)`` for positive stable V with Laplace transform exp(-s^alpha), 0 < alpha < 1.

    Chambers-Mallows-Stuck: with Theta ~ U(0, pi) and W ~ Exp(1),
    V = sin(alpha Theta) / sin(Theta)^(1/alpha)
        * (sin((1-alpha) Theta) / W)^((1-alpha)/alpha),
    so V^(-alpha) = sin(Theta) / sin(alpha Theta)^alpha
        * (W / sin((1-alpha) Theta))^(1-alpha),
    which has no 1/alpha power to overflow at small alpha.  The steps run
    in place on three arrays of ``count`` floats.
    """
    theta = rng.uniform(0.0, np.pi, size=count)
    np.clip(theta, 1e-10, np.pi - 1e-10, out=theta)
    w = rng.standard_exponential(count)
    np.maximum(w, 1e-300, out=w)
    step = np.multiply(theta, 1.0 - alpha)
    np.sin(step, out=step)
    w /= step
    w **= 1.0 - alpha
    np.multiply(theta, alpha, out=step)
    np.sin(step, out=step)
    step **= alpha
    np.sin(theta, out=theta)
    theta /= step
    theta *= w
    return theta


def _log1mexp(x, out: np.ndarray | None = None,
              spare: np.ndarray | None = None) -> np.ndarray:
    """``log(1 - exp(-x))`` for x >= 0, to full relative precision at both ends.

    Below log 2 it is ``log(-expm1(-x))``, above it ``log1p(-exp(-x))``
    (Maechler 2012): neither form rounds ``1 - exp(-x)`` through 1.  Each
    form runs on its own elements only, gathered by index into ``spare`` (a
    1-D float buffer of at least ``x.size``, or a new one) and evaluated in
    place, one form after the other; the result goes to ``out``
    (C-contiguous, and it may be ``x`` itself), or to a new array.
    """
    x = np.asarray(x, dtype=float, order="C")
    out = np.empty_like(x) if out is None else out
    flat, res = x.reshape(-1), out.reshape(-1)
    gathered = np.empty(flat.size) if spare is None else spare
    below = flat < _LOG2
    low = np.flatnonzero(below)
    # mode="clip" takes into out directly ("raise" would go through a copy)
    a = np.take(flat, low, out=gathered[:low.size], mode="clip")
    np.negative(a, out=a)
    np.expm1(a, out=a)
    np.negative(a, out=a)
    with np.errstate(divide="ignore"):  # x = 0 gives -inf
        np.log(a, out=a)
    res[low] = a
    del low
    # res may be flat itself: the elements above log 2 are not written yet
    high = np.flatnonzero(~below)
    b = np.take(flat, high, out=gathered[:high.size], mode="clip")
    np.negative(b, out=b)
    np.exp(b, out=b)
    np.negative(b, out=b)
    np.log1p(b, out=b)
    res[high] = b
    return out


def _log_series(theta: float, count: int, rng: np.random.Generator,
                spare: np.ndarray) -> np.ndarray:
    """Logarithmic-series variates with p = 1 - exp(-theta), pmf k -> -p^k / (k log(1-p)).

    Kemp's LK sampler: with V, U iid U(0,1) and q = 1 - (1-p)^U = 1 -
    exp(-U theta), return 1 if V >= p; else floor(1 + ln V / ln q) if
    V <= q^2; else 2 if V <= q; else 1.  ``ln q`` comes from theta itself,
    so it stays below 0 where q rounds to 1 (theta above ~37); its log1mexp
    gathers into ``spare``, a 1-D float buffer of at least ``count``.
    """
    p = -np.expm1(-theta)
    v = rng.random(count)
    np.maximum(v, 1e-300, out=v)
    log_q = rng.random(count)
    log_q *= theta
    _log1mexp(log_q, out=log_q, spare=spare)
    first = v >= p
    log_v = np.log(v, out=v)
    k_tail = np.divide(log_v, log_q)
    k_tail += 1.0
    np.floor(k_tail, out=k_tail)
    short = np.where(log_v <= log_q, 2.0, 1.0)
    log_q *= 2.0
    return np.where(first, 1.0, np.where(log_v <= log_q, k_tail, short))


@dataclass(frozen=True)
class IndependenceCopula:
    """Product copula in dimension ``dim``."""

    dim: int

    def __post_init__(self) -> None:
        if int(self.dim) < 1:
            raise ValueError("IndependenceCopula requires dim >= 1")

    def _fill(self, out: np.ndarray, rng: np.random.Generator, spare: np.ndarray) -> None:
        rng.random(out=out)

    def kendall_tau(self) -> float:
        return 0.0


@dataclass(frozen=True)
class ClaytonCopula:
    """Clayton copula, generator psi(t) = (1 + t)^(-1/theta), theta normal (>= 2.2e-308)."""

    theta: float
    dim: int

    def __post_init__(self) -> None:
        if not (self.theta >= _THETA_MIN and np.isfinite(self.theta)):
            raise ValueError(f"ClaytonCopula requires theta >= {_THETA_MIN:g}, a normal double")
        if int(self.dim) < 2:
            raise ValueError("ClaytonCopula requires dim >= 2")

    def _fill(self, out: np.ndarray, rng: np.random.Generator, spare: np.ndarray) -> None:
        count, theta = out.shape[0], self.theta
        # log V of V = G U^theta, G ~ Gamma(1 + 1/theta), U ~ U(0, 1] (Marsaglia
        # and Tsang 2000), and psi(E / V) = exp(-softplus(log E - log V) / theta)
        log_v = rng.gamma(1.0 + 1.0 / theta, size=count)
        np.log(log_v, out=log_v)
        log_u = rng.random(count)
        np.negative(log_u, out=log_u)
        np.log1p(log_u, out=log_u)
        log_u *= theta
        log_v += log_u
        rng.standard_exponential(out=out)
        with np.errstate(divide="ignore"):  # E = 0 gives u = 1, as psi(0) is
            np.log(out, out=out)
        out -= log_v[:, np.newaxis]
        # softplus(x) = max(x, 0) + log1p(exp(-|x|)), then exp(-softplus / theta)
        tail = np.abs(out, out=spare.reshape(out.shape))
        np.negative(tail, out=tail)
        np.exp(tail, out=tail)
        np.log1p(tail, out=tail)
        np.maximum(out, 0.0, out=out)
        out += tail
        out /= -theta
        np.exp(out, out=out)

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

    def _fill(self, out: np.ndarray, rng: np.random.Generator, spare: np.ndarray) -> None:
        alpha = 1.0 / self.theta
        rng.standard_exponential(out=out)
        if self.theta == 1.0:
            # frailty degenerates to 1: independence
            np.negative(out, out=out)
        else:
            # exp(-(E^alpha) V^-alpha); the power takes numpy's fast paths
            # (a square root at theta = 2) in place as out of place
            v_power = _positive_stable_power(alpha, out.shape[0], rng)
            out **= alpha
            np.negative(out, out=out)
            out *= v_power[:, np.newaxis]
        np.exp(out, out=out)

    def kendall_tau(self) -> float:
        return 1.0 - 1.0 / self.theta


@dataclass(frozen=True)
class FrankCopula:
    """Frank copula, 2.2e-308 <= |theta| <= 700; theta < 0 (negative dependence) is d = 2 only."""

    theta: float
    dim: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.theta) and self.theta != 0.0):
            raise ValueError("FrankCopula requires finite theta != 0 (use IndependenceCopula)")
        if abs(self.theta) < _THETA_MIN:
            raise ValueError(f"FrankCopula requires |theta| >= {_THETA_MIN:g}, a normal double")
        if abs(self.theta) > _FRANK_MAX:
            raise ValueError(f"FrankCopula requires |theta| <= {_FRANK_MAX:g}")
        if int(self.dim) < 2:
            raise ValueError("FrankCopula requires dim >= 2")
        if self.theta < 0.0 and int(self.dim) != 2:
            raise ValueError("FrankCopula with theta < 0 exists only for dim = 2")

    def _fill(self, out: np.ndarray, rng: np.random.Generator, spare: np.ndarray) -> None:
        count = out.shape[0]
        if self.theta > 0.0:
            v = _log_series(self.theta, count, rng, spare)
            rng.standard_exponential(out=out)
            # psi(t) = -log(1 - p exp(-t)) / theta, and p exp(-t) = exp(-(t + c))
            # with c = -log(p): the log1mexp of t + c, which never forms 1 - p
            c = -_log1mexp(self.theta)
            out /= v[:, np.newaxis]
            out += c
            _log1mexp(out, out=out, spare=spare)
            out /= -self.theta
        else:
            # theta < 0, dim = 2: invert v -> dC/du1(u1, v) at a uniform level
            u1 = rng.random(count)
            w = np.maximum(rng.random(count), 1e-300)
            a = np.exp(-self.theta * u1)
            d = np.expm1(-self.theta)
            b = w * d / (a * (1.0 - w) + w)
            out[:, 0] = u1
            out[:, 1] = -np.log1p(b) / self.theta

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
