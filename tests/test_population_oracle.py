"""Population oracle for spherical models: the standard bivariate normal.

For a spherically symmetric X every rotation fixing the index alpha leaves
the law of X unchanged, so both population minimizers lie on the line
through alpha: ``c = s e`` with ``e = alpha / ||alpha||``.  The scalar s
solves the first-order condition ``E[grad L(X - c)] . e = 0``.  Written in
polar coordinates ``X = c + rho (cos th e + sin th e_perp)`` centred at c,
the Jacobian rho cancels the 1 / ||X - c|| of both gradients (the VaR kink
at X = c disappears), so the integrand is smooth: Gauss-Legendre nodes in
rho on [0, 12] and the trapezoid rule in th (spectral for periodic
integrands) converge fast, and ``brentq`` finds the root.

The same quadrature gives the sandwich covariance ``H^-1 V H^-1`` of the
central limit theorem for the sample minimizers, where H is the mean loss
Hessian and V the covariance of the loss gradient at c.  It bounds the
error of the estimators on fixed-seed samples.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from scipy.optimize import brentq

from geomrisk import geometric_expectile, geometric_var

_RHO_MAX = 12.0
_NODES = (64, 64)  # Gauss-Legendre nodes in rho, trapezoid points in th


def _polar(s: float, nodes: tuple[int, int]):
    """Polar nodes centred at c = s e, with weights times the N(0, I_2) density and rho."""
    m, k = nodes
    x, w = np.polynomial.legendre.leggauss(m)
    rho = (0.5 * _RHO_MAX * (x + 1.0))[:, np.newaxis]
    th = (2.0 * np.pi * np.arange(k) / k)[np.newaxis, :]
    weight = (0.5 * _RHO_MAX * w)[:, np.newaxis] * (2.0 * np.pi / k)
    density = np.exp(-0.5 * (s * s + 2.0 * s * rho * np.cos(th) + rho * rho)) / (2.0 * np.pi)
    return rho, th, weight * density * rho


def _foc(measure: str, s: float, a: float, nodes=_NODES) -> float:
    """``E[grad L(X - s e)] . e`` for the index ``a e``; it decreases in s."""
    rho, th, w = _polar(s, nodes)
    cos = np.cos(th)
    if measure == "var":
        # 0.5 (t / ||t|| + u) . e, with the factor 0.5 dropped
        g = cos + a
    else:
        # (t (1 + <u, t> / (2 ||t||)) + ||t|| u / 2) . e
        g = rho * (cos * (1.0 + 0.5 * a * cos) + 0.5 * a)
    return float(np.sum(w * g))


@functools.cache
def _population_s(measure: str, a: float, nodes=_NODES) -> float:
    return brentq(lambda s: _foc(measure, s, a, nodes), -8.0, 8.0, xtol=1e-15, rtol=1e-15)


def _clt_covariance(measure: str, s: float, a: float) -> np.ndarray:
    """Asymptotic covariance of sqrt(n) (c_n - c) in the (e, e_perp) basis."""
    rho, th, w = _polar(s, _NODES)
    omega = np.stack(np.broadcast_arrays(np.cos(th), np.sin(th)))  # (2, m, k) unit t / ||t||
    u = np.array([a, 0.0])[:, np.newaxis, np.newaxis]
    eye = np.eye(2)[:, :, np.newaxis, np.newaxis]
    outer = omega[:, np.newaxis] * omega[np.newaxis, :]
    if measure == "var":
        grad = 0.5 * (omega + u)
        hess = 0.5 * (eye - outer) / rho
    else:
        u_omega = a * omega[0]
        cross = omega[:, np.newaxis] * u[np.newaxis, :]
        grad = rho * (omega * (1.0 + 0.5 * u_omega) + 0.5 * u)
        hess = eye + 0.5 * (cross + np.swapaxes(cross, 0, 1) + u_omega * (eye - outer))
    h = np.sum(hess * w, axis=(2, 3))
    v = np.sum(grad[:, np.newaxis] * grad[np.newaxis, :] * w, axis=(2, 3))
    h_inv = np.linalg.inv(h)
    return h_inv @ v @ h_inv


# s at ||alpha|| = 0.5 and 0.9 to ten digits (200 x 256 nodes give the same);
# a quadrature change that moves them is a defect
_TABLE = {
    ("expectile", 0.5): 0.5160870905,
    ("expectile", 0.9): 1.3857643120,
    ("var", 0.5): 0.8739516115,
    ("var", 0.9): 2.4470178464,
}
_CASES = sorted(_TABLE)


@pytest.mark.parametrize("measure, a", _CASES)
def test_population_s_solves_the_first_order_condition(measure, a):
    s = _population_s(measure, a)
    assert abs(_foc(measure, s, a)) <= 1e-13
    # the root is bracketed: the condition changes sign across it
    assert _foc(measure, s - 1e-6, a) > 0.0 > _foc(measure, s + 1e-6, a)


@pytest.mark.parametrize("measure, a", _CASES)
def test_population_s_is_converged_in_the_quadrature(measure, a):
    coarse = _population_s(measure, a)
    fine = _population_s(measure, a, nodes=(2 * _NODES[0], 2 * _NODES[1]))
    assert abs(fine - coarse) < 1e-10


@pytest.mark.parametrize("measure, a", _CASES)
def test_population_s_matches_table(measure, a):
    assert abs(_population_s(measure, a) - _TABLE[measure, a]) <= 1e-8


@pytest.mark.parametrize("measure", ["expectile", "var"])
def test_zero_index_gives_the_centre(measure):
    # the mean and the spatial median of N(0, I_2) are both 0
    assert abs(_population_s(measure, 0.0)) <= 1e-12


def test_clt_covariance_at_zero_index_is_known():
    # sample mean: I; spatial median of N(0, I_2): (4 / pi) I
    np.testing.assert_allclose(_clt_covariance("expectile", 0.0, 0.0), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(_clt_covariance("var", 0.0, 0.0), 4.0 / np.pi * np.eye(2),
                               atol=1e-12)


# 1e-4 upper tail of the chi-square law with 2 degrees of freedom: the
# asymptotic law of n (c_n - c)' Sigma^-1 (c_n - c)
_CHI2_2_TAIL = 2.0 * np.log(1e4)


@pytest.mark.parametrize("measure, a", _CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_estimate_within_clt_bound(measure, a, seed):
    n = 100_000
    e = np.array([0.6, 0.8])
    basis = np.array([e, [-e[1], e[0]]])
    s = _population_s(measure, a)
    cov = _clt_covariance(measure, s, a)
    x = np.random.default_rng(seed).standard_normal((n, 2))
    solver = geometric_expectile if measure == "expectile" else geometric_var
    report = solver(x, a * e)
    assert report.converged
    err = basis @ (report.argmin - s * e)
    assert n * err @ np.linalg.solve(cov, err) <= _CHI2_2_TAIL
