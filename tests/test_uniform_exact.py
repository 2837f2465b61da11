"""Closed-form uniform-rectangle oracle: primitive identities under finite
differences, quadrature and Monte Carlo agreement, and the analytic expectile
minimizer."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import integrate

from geomrisk import (
    SolverConfig,
    UniformBox,
    expected_distance_times_dev1,
    expected_distance_times_dev2,
    expected_squared_distance,
    geometric_expectile,
    norm_primitive,
    uniform_expected_loss,
    uniform_expectile,
    weighted_norm_primitive,
    empirical_objective,
    substream,
)
from geomrisk.uniform_exact import _uniform_loss_grad

UNIT = UniformBox(0.0, 1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# primitives

def test_primitive_values_on_the_axis():
    # x = 0 uses the x^2 log(...) -> 0 limit convention.
    assert norm_primitive(0.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert norm_primitive(0.0, -1.0) == pytest.approx(-0.5, abs=1e-15)
    assert weighted_norm_primitive(0.0, -1.0) == pytest.approx(-5.0 / 96.0, rel=1e-12)


def test_norm_primitive_derivative_identity():
    # d/dy h1(x, y) = sqrt(x^2 + y^2), central differences, step 1e-6.
    step = 1e-6
    assert (norm_primitive(1.0, 1.0 + step) - norm_primitive(1.0, 1.0 - step)) / (
        2 * step
    ) == pytest.approx(np.sqrt(2.0), abs=1e-6)
    for x in (-2.0, -0.5, 0.3, 1.7):
        for y in (-1.5, -0.2, 0.4, 2.0):
            fd = (norm_primitive(x, y + step) - norm_primitive(x, y - step)) / (2 * step)
            assert fd == pytest.approx(np.hypot(x, y), abs=1e-6)


def test_weighted_primitive_derivative_identity():
    # d/dx h2(x, y) = x * h1(x, y), central differences; avoid the x=0, y<=0 line.
    step = 1e-6
    fd = (weighted_norm_primitive(1.0 + step, 1.0) - weighted_norm_primitive(1.0 - step, 1.0)) / (2 * step)
    assert fd == pytest.approx(1.0 * norm_primitive(1.0, 1.0), abs=1e-6)
    for x in (-2.0, -0.5, 0.3, 1.7):
        for y in (-1.5, -0.2, 0.4, 2.0):
            fd = (
                weighted_norm_primitive(x + step, y)
                - weighted_norm_primitive(x - step, y)
            ) / (2 * step)
            assert fd == pytest.approx(x * norm_primitive(x, y), abs=1e-6 * (1 + abs(x)))


# ---------------------------------------------------------------------------
# moments of the uniform rectangle

def test_squared_distance_at_midpoint():
    # Sum of the two coordinate variances: 2 * (1/12).
    assert expected_squared_distance(UNIT, [0.5, 0.5]) == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_first_deviation_vanishes_by_symmetry():
    assert expected_distance_times_dev1(UNIT, [0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)
    assert expected_distance_times_dev2(UNIT, [0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)


def test_squared_distance_matches_monte_carlo():
    rng = substream(61, "g-mc")
    box = UniformBox(-1.0, 2.0, 0.5, 1.5)
    u = np.column_stack([rng.uniform(-1.0, 2.0, 1_000_000), rng.uniform(0.5, 1.5, 1_000_000)])
    for c in ([0.0, 1.0], [2.5, -0.5]):
        vals = np.sum((u - np.asarray(c)) ** 2, axis=1)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert expected_squared_distance(box, c) == pytest.approx(vals.mean(), abs=4 * se)


def test_weighted_deviations_match_quadrature():
    # Independent oracle: 2-D adaptive quadrature of ||z - c|| (z_k - c_k) / area.
    box = UniformBox(-1.0, 2.0, 0.5, 1.5)
    for c in ([0.0, 1.0], [1.4, 0.2]):
        c = np.asarray(c, dtype=float)

        def f1(y, x):
            return np.hypot(x - c[0], y - c[1]) * (x - c[0]) / 3.0

        def f2(y, x):
            return np.hypot(x - c[0], y - c[1]) * (y - c[1]) / 3.0

        q1, _ = integrate.dblquad(f1, -1.0, 2.0, 0.5, 1.5, epsabs=1e-10)
        q2, _ = integrate.dblquad(f2, -1.0, 2.0, 0.5, 1.5, epsabs=1e-10)
        assert expected_distance_times_dev1(box, c) == pytest.approx(q1, abs=1e-8)
        assert expected_distance_times_dev2(box, c) == pytest.approx(q2, abs=1e-8)


def test_swap_symmetry_between_deviations():
    box = UniformBox(-1.0, 2.0, 0.5, 1.5)
    swapped = UniformBox(0.5, 1.5, -1.0, 2.0)
    for c in ([0.3, 1.2], [-0.5, 0.9]):
        assert expected_distance_times_dev2(box, c) == pytest.approx(
            expected_distance_times_dev1(swapped, [c[1], c[0]]), rel=1e-12
        )


# ---------------------------------------------------------------------------
# the exact expected loss

def test_expected_loss_pinned_value():
    assert uniform_expected_loss(UNIT, [0.0, 0.0], [0.5, 0.5]) == pytest.approx(
        1.0 / 12.0, rel=1e-12
    )


def test_expected_loss_nonnegative_on_grid():
    grid = np.linspace(-1.0, 2.0, 7)
    for a1 in (-0.6, 0.0, 0.7):
        for a2 in (-0.5, 0.4):
            alpha = np.array([a1, a2])
            if np.linalg.norm(alpha) >= 1.0:
                continue
            for cx in grid:
                for cy in grid:
                    assert uniform_expected_loss(UNIT, alpha, [cx, cy]) >= -1e-14


def test_expected_loss_matches_monte_carlo():
    rng = substream(62, "phi-mc")
    u = rng.uniform(0.0, 1.0, size=(1_000_000, 2))
    from geomrisk import expectile_loss

    for alpha, c in (
        ([0.4, -0.3], [0.2, 0.8]),
        ([0.0, 0.6], [1.3, -0.4]),
    ):
        vals = expectile_loss(np.asarray(alpha), u - np.asarray(c))
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert uniform_expected_loss(UNIT, alpha, c) == pytest.approx(
            vals.mean(), abs=4 * se
        )


def test_expected_loss_is_midpoint_convex_on_segments():
    rng = substream(63, "phi-convex")
    for _ in range(200):
        alpha = rng.standard_normal(2)
        alpha *= rng.uniform(0.0, 0.9) / max(np.linalg.norm(alpha), 1e-300)
        c1 = rng.uniform(-2.0, 3.0, 2)
        c2 = rng.uniform(-2.0, 3.0, 2)
        mid = uniform_expected_loss(UNIT, alpha, (c1 + c2) / 2.0)
        avg = 0.5 * (
            uniform_expected_loss(UNIT, alpha, c1) + uniform_expected_loss(UNIT, alpha, c2)
        )
        assert mid <= avg + 1e-10


# ---------------------------------------------------------------------------
# analytic minimizer

def test_zero_index_minimizer_is_midpoint():
    box = UniformBox(-1.0, 2.0, 0.5, 1.5)
    rep = uniform_expectile(box, [0.0, 0.0])
    assert rep.converged
    np.testing.assert_allclose(rep.argmin, [0.5, 1.0], atol=1e-7)


def test_index_sign_symmetry_averages_to_midpoint():
    for q in (0.3, 0.7):
        plus = uniform_expectile(UNIT, [q, 0.0]).argmin
        minus = uniform_expectile(UNIT, [-q, 0.0]).argmin
        np.testing.assert_allclose((plus + minus) / 2.0, [0.5, 0.5], atol=1e-6)


def test_minimizer_gradient_is_stationary():
    # First-order check through the exact objective itself.
    alpha = np.array([0.5, -0.2])
    rep = uniform_expectile(UNIT, alpha)
    assert rep.converged
    step = 1e-5
    for k in range(2):
        e_k = np.zeros(2)
        e_k[k] = step
        fd = (
            uniform_expected_loss(UNIT, alpha, rep.argmin + e_k)
            - uniform_expected_loss(UNIT, alpha, rep.argmin - e_k)
        ) / (2 * step)
        assert abs(fd) <= 1e-5


def test_exact_gradient_matches_central_differences():
    rng = substream(65, "grad-fd")
    step = 1e-6
    for box in (UNIT, UniformBox(-1.0, 2.0, 0.5, 1.5)):
        for _ in range(100):
            alpha = rng.standard_normal(2)
            alpha *= rng.uniform(0.0, 0.95) / max(np.linalg.norm(alpha), 1e-300)
            c = rng.uniform(-2.0, 3.0, 2)
            fd = np.array([
                uniform_expected_loss(box, alpha, c + step * e)
                - uniform_expected_loss(box, alpha, c - step * e)
                for e in np.eye(2)
            ]) / (2 * step)
            np.testing.assert_allclose(_uniform_loss_grad(box, alpha, c), fd, rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 7.3, 1e2, 1e6, 1e8])
def test_exact_gradient_scales_with_the_box(scale):
    # g(s c; s box) = s g(c; box): the gradient has the units of the data
    alpha = np.array([0.4, 0.1])
    for c in ([0.3, 0.7], [0.62, 0.53], [-0.5, 1.8]):
        c = np.asarray(c)
        scaled = UniformBox(0.0, scale, 0.0, scale)
        np.testing.assert_allclose(
            _uniform_loss_grad(scaled, alpha, scale * c) / scale,
            _uniform_loss_grad(UNIT, alpha, c),
            rtol=0.0,
            atol=1e-14,
        )


def test_unit_box_minimizer_is_pinned():
    # the argmin first computed with central differences of step 1e-6,
    # accurate to ~1e-11 at this scale; the exact gradient keeps it
    rep = uniform_expectile(UNIT, [0.4, 0.1])
    assert rep.converged
    np.testing.assert_allclose(
        rep.argmin, [0.6208100038617077, 0.5303255002345971], rtol=0.0, atol=1e-9
    )


def test_analytic_minimizer_matches_simulation():
    alpha = np.array([0.45, 0.3])
    exact = uniform_expectile(UNIT, alpha).argmin
    u = substream(64, "unif-consistency").uniform(0.0, 1.0, size=(100_000, 2))
    est = geometric_expectile(u, alpha).argmin
    np.testing.assert_allclose(est, exact, atol=0.02)


def test_box_validation():
    with pytest.raises(ValueError):
        UniformBox(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        UniformBox(0.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        uniform_expected_loss(UNIT, [0.9, 0.9], [0.5, 0.5])  # index norm >= 1


# ---------------------------------------------------------------------------
# every check that no test above reaches: id -> (call, exception, message)

_REJECTED = {
    "box-corners": (lambda: UniformBox(np.nan, 1.0, 0.0, 1.0), ValueError,
                    "box corners must be finite"),
    "index-dim": (lambda: uniform_expectile(UNIT, [0.1, 0.1, 0.1]), ValueError,
                  "index must be 2-dimensional for a bivariate box"),
    "location": (lambda: expected_squared_distance(UNIT, [0.5, np.nan]), ValueError,
                 "location must be a finite 2-vector"),
}


@pytest.mark.parametrize("call, error, message", _REJECTED.values(), ids=_REJECTED.keys())
def test_rejected_input_raises_its_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message
