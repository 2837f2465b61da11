"""Oracles near the unit sphere, where no closed form reaches.

Geometric VaR: for a law with finite second moments the quantile at index
``a v`` (v a unit vector) runs off to infinity as a -> 1, with
``(1 - a) ||q - mean||^2 -> (tr S - v^T S v) / 2`` and ``q / ||q|| -> v``
(Girard & Stupfler, REVSTAT 15, 2017).  An empirical distribution meets
this with S its 1/n covariance.  The bounds are the measured rates: the
ratio's error shrinks like sqrt(1 - a), and the angle of ``q - mean`` to v
like (1 - a)^2 in 1 - cos.

Geometric expectile: the loss ``||t||^2 / 2 + ||t|| u.t / 2`` has Hessian
``I + [(u.t^)(I - t^ t^T) + t^ u^T + u t^T] / 2``, whose smallest
eigenvalue is at least 1 - ||u||, so the sample objective is
(1 - ||u||)-strongly convex.  A point whose gradient has norm g then lies
within g / (1 - ||u||) of the minimizer, and any two solves a and b at u,
converged or not, satisfy ``||a - b|| <= (a.grad_norm + b.grad_norm) /
(1 - ||u||)``.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from geomrisk import estimators
from geomrisk import (
    CirclePath,
    ClaytonCopula,
    CompoundPoissonModel,
    SolverConfig,
    geometric_expectile,
    geometric_var,
    get_preset,
    minimize_convex,
    simulate,
    simulate_compound,
    substream,
    trace_curve,
)

from sampling import copula_sample

_SAMPLES = ("X1", "X2", "X3", "X4", "cp-paper", "atoms", "clayton5")


@functools.cache
def _sample(name: str) -> np.ndarray:
    """Fixed-seed samples: the four X presets and Clayton(5) at n = 10k,
    ``cp-paper`` (many all-zero rows) and X3 rounded to the integer lattice
    (37 distinct rows) at n = 2k."""
    rng = substream(5, f"sphere-{name}")
    if name == "clayton5":
        return copula_sample(ClaytonCopula(5.0, 2), 10_000, rng)
    if name == "atoms":
        return np.round(simulate(get_preset("X3"), 2_000, rng))
    model = get_preset(name)
    if isinstance(model, CompoundPoissonModel):
        return simulate_compound(model, 2_000, rng)
    return simulate(model, 10_000, rng)


@pytest.mark.parametrize("name", _SAMPLES)
@pytest.mark.parametrize("gap", [1e-4, 1e-5, 1e-6])
def test_var_meets_its_extreme_index_asymptote(name, gap):
    s = _sample(name)
    mean = s.mean(axis=0)
    cov = np.cov(s.T, ddof=0)
    _, idx = CirclePath(1.0 - gap, 8).indices()
    v = idx / np.linalg.norm(idx, axis=1)[:, np.newaxis]
    limit = 0.5 * (np.trace(cov) - np.einsum("ij,jk,ik->i", v, cov, v))
    direct = [geometric_var(s, alpha) for alpha in idx]
    assert all(report.converged for report in direct)
    # a direct solve starts at the asymptote itself, and may stop there; the
    # oracle also holds the solver's closures minimized from the sample mean
    prep = estimators._prepare(s)
    from_mean = []
    for alpha in idx:
        fun, grad = estimators._objective_closures(prep, alpha, "quantile")
        from_mean.append(minimize_convex(fun, grad, prep.mean,
                                         _curvature=estimators._Curvature(prep.nearest_atom)))
    assert all(report.converged for report in from_mean)
    curve = trace_curve(s, CirclePath(1.0 - gap, 8), "var")
    assert curve.all_converged
    # measured on these samples: |ratio - 1| <= 16.4 sqrt(1 - a) (X4, whose
    # t4 margin has no fourth moment; 0.07 on X1), 1 - cos <= 4.1 (1 - a)^2
    # about the mean (X4) and <= 3.2 (1 - a) about the origin (Clayton(5),
    # whose mean is off the origin)
    for q in (np.array([report.argmin for report in direct]),
              np.array([report.argmin for report in from_mean]), curve.points):
        t = q - mean
        ratio = gap * np.einsum("ij,ij->i", t, t) / limit
        assert np.all(np.abs(ratio - 1.0) <= 25.0 * np.sqrt(gap)), ratio
        centred = 1.0 - np.einsum("ij,ij->i", t, v) / np.linalg.norm(t, axis=1)
        assert np.all(centred <= 8.0 * gap * gap), centred
        raw = 1.0 - np.einsum("ij,ij->i", q, v) / np.linalg.norm(q, axis=1)
        assert np.all(raw <= 10.0 * gap), raw


@pytest.mark.parametrize("name", _SAMPLES)
@pytest.mark.parametrize("norm", [0.999, 0.99999])
def test_expectile_solves_meet_the_strong_convexity_certificate(name, norm):
    # the default solve against a tight one: some stop unconverged near the
    # sphere, which the two-sided form allows
    s = _sample(name)
    tight = SolverConfig(grad_tolerance=1e-14)
    _, idx = CirclePath(norm, 8).indices()
    for alpha in idx:
        a = geometric_expectile(s, alpha)
        b = geometric_expectile(s, alpha, tight)
        gap = np.linalg.norm(a.argmin - b.argmin)
        assert gap <= (a.grad_norm + b.grad_norm) / (1.0 - norm), (alpha, gap)
