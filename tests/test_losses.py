"""Loss kernels: pinned hand-computed values, convexity/coercivity bounds,
finite-difference gradient oracles, and exact 1-D reductions."""

from __future__ import annotations

import numpy as np
import pytest

from geomrisk import (
    as_index,
    check_loss,
    expectile_loss,
    expectile_loss_1d,
    expectile_loss_grad,
    expectile_score,
    index_from_level,
    quantile_loss,
    quantile_loss_subgrad,
)


def _random_index(rng: np.random.Generator, dim: int, max_norm: float = 0.95) -> np.ndarray:
    v = rng.standard_normal(dim)
    v /= max(np.linalg.norm(v), 1e-300)
    return v * rng.uniform(0.0, max_norm)


# ---------------------------------------------------------------------------
# pinned values

def test_check_loss_values():
    assert check_loss(0.5, -2.0) == pytest.approx(1.0, abs=1e-15)
    assert check_loss(0.9, -2.0) == pytest.approx(0.2, abs=1e-15)
    assert check_loss(0.9, 0.0) == 0.0


def test_expectile_loss_1d_values():
    assert expectile_loss_1d(0.5, 2.0) == pytest.approx(2.0, abs=1e-15)
    assert expectile_loss_1d(0.9, -2.0) == pytest.approx(0.4, abs=1e-15)


def test_expectile_loss_1d_both_forms_agree():
    # |a - 1{t<=0}| t^2 versus the rewritten form |t|(|t| + (2a-1)t)/2.
    rng = np.random.default_rng(42)
    for _ in range(500):
        a = rng.uniform(0.01, 0.99)
        t = rng.standard_normal() * 3.0
        rewritten = 0.5 * abs(t) * (abs(t) + (2.0 * a - 1.0) * t)
        assert expectile_loss_1d(a, t) == pytest.approx(rewritten, abs=1e-12)


def test_quantile_loss_values():
    assert quantile_loss([0.0, 0.0], [3.0, 4.0]) == pytest.approx(2.5, abs=1e-15)
    assert quantile_loss([0.5, 0.0], [1.0, 0.0]) == pytest.approx(0.75, abs=1e-15)
    assert quantile_loss([0.5, -0.3], [0.0, 0.0]) == 0.0


def test_quantile_loss_subgrad_values():
    np.testing.assert_allclose(
        quantile_loss_subgrad([0.5, 0.0], [0.0, 2.0]), [0.25, 0.5], atol=1e-15
    )
    np.testing.assert_allclose(
        quantile_loss_subgrad([0.0, 0.0], [3.0, 4.0]), [0.3, 0.4], atol=1e-15
    )
    # Kink convention: half the index vector at the origin.
    np.testing.assert_allclose(
        quantile_loss_subgrad([0.5, 0.0], [0.0, 0.0]), [0.25, 0.0], atol=0.0
    )


def test_expectile_loss_values():
    assert expectile_loss([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)
    assert expectile_loss([0.3, -0.4], [0.0, 0.0]) == 0.0
    # 1-D pinned value via the reduction oracle.
    assert expectile_loss([0.8], [-2.0]) == pytest.approx(0.4, abs=1e-14)


def test_expectile_loss_grad_values():
    np.testing.assert_allclose(
        expectile_loss_grad([0.0, 0.0], [1.5, -2.0]), [1.5, -2.0], atol=1e-15
    )
    np.testing.assert_allclose(
        expectile_loss_grad([0.5, 0.0], [1.0, 0.0]), [1.5, 0.0], atol=1e-14
    )
    np.testing.assert_allclose(
        expectile_loss_grad([0.7, -0.2], [0.0, 0.0]), [0.0, 0.0], atol=0.0
    )


def test_expectile_score_values():
    assert expectile_score([0.4, 0.1], [2.0, -1.0], [2.0, -1.0]) == 0.0
    assert expectile_score([0.5, 0.0], [2.0, 0.0], [1.0, 0.0]) == pytest.approx(
        0.75, abs=1e-14
    )


def test_index_from_level_values():
    assert index_from_level(0.99) == pytest.approx(0.98, abs=1e-15)
    assert index_from_level(0.5) == 0.0
    assert index_from_level(0.95) == pytest.approx(0.90, abs=1e-15)
    np.testing.assert_array_equal(index_from_level(np.array([0.25, 0.5, 0.75])), [-0.5, 0.0, 0.5])


# ---------------------------------------------------------------------------
# inequalities and bounds

def test_nonnegativity_and_coercivity():
    rng = np.random.default_rng(101)
    for dim in (1, 2, 3, 5):
        u = _random_index(rng, dim)
        unorm = np.linalg.norm(u)
        t = rng.standard_normal((5000, dim)) * 3.0
        lam = expectile_loss(u, t)
        phi = quantile_loss(u, t)
        norms = np.linalg.norm(t, axis=1)
        assert np.all(lam >= -1e-12)
        assert np.all(phi >= -1e-12)
        assert np.all(lam >= 0.5 * (1.0 - unorm) * norms**2 - 1e-10)


def test_midpoint_convexity():
    rng = np.random.default_rng(202)
    for dim in (1, 2, 4):
        u = _random_index(rng, dim)
        x = rng.standard_normal((3000, dim)) * 2.0
        y = rng.standard_normal((3000, dim)) * 2.0
        h = 2 * expectile_loss(u, x) + 2 * expectile_loss(u, y) - expectile_loss(u, x + y)
        assert np.all(h >= -1e-10)
        # Strict whenever x != y (true by convexity; margin observed empirically).
        gap_xy = np.linalg.norm(x - y, axis=1)
        assert np.all(h[gap_xy > 1e-3] > 0.0)
        # Strong convexity with modulus 1 - |u|: h >= (1 - |u|)/2 |x - y|^2.
        bound = 0.5 * (1.0 - np.linalg.norm(u)) * gap_xy**2
        assert np.all(h >= bound - 1e-9 * (1.0 + np.abs(h)))


def test_parallelogram_inequality_two_sided():
    rng = np.random.default_rng(303)
    for dim in (1, 2, 3):
        for _ in range(50):
            u = _random_index(rng, dim, max_norm=1.0)  # holds for all norms <= 1
            x = rng.standard_normal((200, dim)) * 2.0
            y = rng.standard_normal((200, dim)) * 2.0
            mid = (
                2 * np.linalg.norm(x, axis=1) * (x @ u)
                + 2 * np.linalg.norm(y, axis=1) * (y @ u)
                - np.linalg.norm(x + y, axis=1) * ((x + y) @ u)
            )
            bound = np.linalg.norm(x - y, axis=1) ** 2
            assert np.all(mid <= bound + 1e-10)
            assert np.all(mid >= -bound - 1e-10)


def test_parallelogram_strict_inside_ball():
    # With the index strictly inside the ball, near-equality forces x ~ y:
    # contrapositive — well-separated x, y leave slack strictly above 1e-10.
    rng = np.random.default_rng(404)
    for _ in range(2000):
        dim = int(rng.integers(1, 5))
        u = _random_index(rng, dim, max_norm=0.95)
        x = rng.standard_normal(dim) * 2.0
        y = rng.standard_normal(dim) * 2.0
        if np.linalg.norm(x - y) <= 1e-3:
            continue
        mid = (
            2 * np.linalg.norm(x) * (x @ u)
            + 2 * np.linalg.norm(y) * (y @ u)
            - np.linalg.norm(x + y) * ((x + y) @ u)
        )
        assert np.linalg.norm(x - y) ** 2 - abs(mid) > 1e-10


def test_score_order_two_homogeneity():
    rng = np.random.default_rng(505)
    for _ in range(300):
        dim = int(rng.integers(1, 5))
        u = _random_index(rng, dim)
        x = rng.standard_normal(dim) * 2.0
        y = rng.standard_normal(dim) * 2.0
        c = rng.uniform(0.1, 10.0)
        s1 = expectile_score(u, c * x, c * y)
        s0 = expectile_score(u, x, y)
        assert s1 == pytest.approx(c * c * s0, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# gradient oracles

def test_expectile_grad_matches_central_differences():
    rng = np.random.default_rng(606)
    step = 1e-6
    checked = 0
    while checked < 300:
        dim = int(rng.integers(1, 6))
        u = _random_index(rng, dim)
        t = rng.standard_normal(dim) * 2.0
        if np.linalg.norm(t) <= 1e-3:
            continue
        grad = expectile_loss_grad(u, t)
        for k in range(dim):
            e_k = np.zeros(dim)
            e_k[k] = step
            fd = (expectile_loss(u, t + e_k) - expectile_loss(u, t - e_k)) / (2 * step)
            assert abs(fd - grad[k]) <= 1e-6 * (1.0 + abs(fd))
        checked += 1


def test_expectile_grad_norm_bound():
    rng = np.random.default_rng(707)
    for dim in (1, 2, 4):
        u = _random_index(rng, dim)
        unorm = np.linalg.norm(u)
        t = rng.standard_normal((4000, dim))
        grads = expectile_loss_grad(u, t)
        norms = np.linalg.norm(t, axis=1)
        assert np.all(np.linalg.norm(grads, axis=1) <= 2.0 * norms * (1.0 + unorm) + 1e-10)


def test_quantile_subgrad_satisfies_subgradient_inequality():
    # phi(t') >= phi(t) + <g, t' - t> for every reported subgradient g.
    rng = np.random.default_rng(808)
    for _ in range(300):
        dim = int(rng.integers(1, 5))
        u = _random_index(rng, dim)
        t = rng.standard_normal(dim) * 2.0
        if rng.uniform() < 0.1:
            t = np.zeros(dim)  # exercise the kink
        g = quantile_loss_subgrad(u, t)
        tp = rng.standard_normal(dim) * 2.0
        lhs = quantile_loss(u, tp)
        rhs = quantile_loss(u, t) + g @ (tp - t)
        assert lhs >= rhs - 1e-12


@pytest.mark.parametrize("scale", [0.0, 1e-170], ids=["origin", "underflow"])
def test_quantile_subgrad_at_and_next_to_the_origin(scale):
    # ||t||^2 underflows to 0 at t = 1e-170 e_1: that row must take the
    # t = 0 subgradient, not a unit vector divided by some tiny floor
    rng = np.random.default_rng(809)
    for dim in (1, 2, 4):
        u = _random_index(rng, dim)
        t = np.zeros(dim)
        t[0] = scale
        for g in (quantile_loss_subgrad(u, t), quantile_loss_subgrad(u, np.stack([t, t]))[1]):
            assert np.linalg.norm(g) <= (1.0 + np.linalg.norm(u)) / 2.0
            tp = rng.standard_normal(dim) * 2.0
            assert quantile_loss(u, tp) >= quantile_loss(u, t) + g @ (tp - t) - 1e-12


# ---------------------------------------------------------------------------
# reductions, batching, validation

def test_one_dimensional_reductions_exact():
    for u in np.arange(-0.9, 0.95, 0.1):
        level = (1.0 + u) / 2.0
        for t in (-2.5, -0.3, 0.0, 0.7, 4.0):
            assert quantile_loss([u], [t]) == pytest.approx(
                check_loss(level, t), abs=1e-13
            )
            assert expectile_loss([u], [t]) == pytest.approx(
                expectile_loss_1d(level, t), abs=1e-13
            )


def test_batch_matches_per_row():
    rng = np.random.default_rng(909)
    u = _random_index(rng, 3)
    pts = rng.standard_normal((40, 3))
    lam = expectile_loss(u, pts)
    phi = quantile_loss(u, pts)
    lam_g = expectile_loss_grad(u, pts)
    phi_g = quantile_loss_subgrad(u, pts)
    for i in range(40):
        assert lam[i] == pytest.approx(float(expectile_loss(u, pts[i])), abs=1e-14)
        assert phi[i] == pytest.approx(float(quantile_loss(u, pts[i])), abs=1e-14)
        np.testing.assert_allclose(lam_g[i], expectile_loss_grad(u, pts[i]), atol=1e-14)
        np.testing.assert_allclose(phi_g[i], quantile_loss_subgrad(u, pts[i]), atol=1e-14)


def test_index_validation():
    np.testing.assert_allclose(as_index([0.3, -0.4]), [0.3, -0.4])
    with pytest.raises(ValueError):
        as_index([1.0, 0.0])  # norm exactly 1 is rejected (strict interior)
    with pytest.raises(ValueError):
        as_index([0.8, 0.8])
    with pytest.raises(ValueError):
        as_index([np.nan, 0.0])
    with pytest.raises(ValueError):
        as_index([[0.1, 0.2]])  # not 1-D


def test_level_and_alpha_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.5, np.nan, np.inf):
        with pytest.raises(ValueError):
            check_loss(bad, 1.0)
        with pytest.raises(ValueError):
            expectile_loss_1d(bad, 1.0)
        with pytest.raises(ValueError):
            index_from_level(bad)
        with pytest.raises(ValueError):
            index_from_level(np.array([0.5, bad]))

def test_dimension_and_finiteness_errors():
    with pytest.raises(ValueError):
        expectile_loss([0.5, 0.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        quantile_loss([0.5], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        expectile_loss([0.5, 0.0], [np.inf, 0.0])
    with pytest.raises(ValueError):
        expectile_loss_grad([0.5, 0.0], [np.nan, 0.0])


def test_scalar_index_and_point_are_one_dimensional():
    np.testing.assert_array_equal(as_index(0.3), [0.3])
    for loss in (quantile_loss, expectile_loss):
        value = loss(0.3, -2.0)
        assert isinstance(value, float)
        assert value == loss([0.3], [-2.0])


# ---------------------------------------------------------------------------
# every check that no test above reaches: id -> (call, exception, message)

_REJECTED = {
    "check-argument": (lambda: check_loss(0.5, [1.0, np.nan]), ValueError,
                       "loss argument must be finite"),
    "expectile-1d-argument": (lambda: expectile_loss_1d(0.5, np.inf), ValueError,
                              "loss argument must be finite"),
    "score-batches": (
        lambda: expectile_score([0.1, 0.0], np.zeros((2, 2)), np.zeros((3, 2))),
        ValueError,
        "x and y batches must have equal length or length one",
    ),
}


@pytest.mark.parametrize("call, error, message", _REJECTED.values(), ids=_REJECTED.keys())
def test_rejected_input_raises_its_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message
