"""Experiment procedures: index paths, warm-started curve tracing, polygon
inclusion, set-level subadditivity, univariate comparison, magnitude matching,
marginalization, distance curves, and the bounded-support sweep."""

from __future__ import annotations

import numpy as np
import pytest

from geomrisk import (
    DEFAULT_STRESS_RADII,
    CirclePath,
    Curve,
    EllipsePath,
    QuarterCirclePath,
    RayPath,
    SolverConfig,
    bounded_support_check,
    compare_univariate,
    distance_curve,
    geometric_expectile,
    geometric_var,
    marginalization_curves,
    match_magnitude,
    point_in_polygon,
    subadditivity_sets,
    substream,
    trace_curve,
    univariate_expectile,
    univariate_quantile,
)


# ---------------------------------------------------------------------------
# index paths

def test_circle_path_indices():
    params, idx = CirclePath(0.5, 8).indices()
    assert params.shape == (8,)
    np.testing.assert_allclose(params, 2.0 * np.pi * np.arange(8) / 8.0, atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(idx, axis=1), 0.5, atol=1e-12)


def test_quarter_circle_path_spans_first_quadrant_inclusive():
    params, idx = QuarterCirclePath(0.3, 8).indices()
    assert params[0] == 0.0
    assert params[-1] == pytest.approx(np.pi / 2.0, abs=1e-15)
    assert np.all(idx >= -1e-12)
    np.testing.assert_allclose(np.linalg.norm(idx, axis=1), 0.3, atol=1e-12)


def test_ellipse_path_indices():
    params, idx = EllipsePath(0.6, 0.2, 16).indices()
    np.testing.assert_allclose(idx[:, 0], 0.6 * np.cos(params), atol=1e-12)
    np.testing.assert_allclose(idx[:, 1], 0.2 * np.sin(params), atol=1e-12)
    assert np.all(np.linalg.norm(idx, axis=1) < 1.0)


def test_ray_path_indices_and_validation():
    mags = np.array([0.1, 0.4, 0.8])
    params, idx = RayPath(np.array([1.0, 0.0]), mags).indices()
    np.testing.assert_allclose(params, mags, atol=0.0)
    np.testing.assert_allclose(idx, np.outer(mags, [1.0, 0.0]), atol=1e-12)
    with pytest.raises(ValueError):
        RayPath(np.array([2.0, 0.0]), mags)  # not a unit vector
    with pytest.raises(ValueError):
        RayPath(np.array([1.0, 0.0]), np.array([0.4, 0.1]))  # not increasing
    with pytest.raises(ValueError):
        RayPath(np.array([1.0, 0.0]), np.array([0.4, 1.0]))  # magnitude >= 1


def test_path_radius_validation():
    with pytest.raises(ValueError):
        CirclePath(1.0, 8)
    with pytest.raises(ValueError):
        CirclePath(0.0, 8)
    with pytest.raises(ValueError):
        EllipsePath(0.5, 1.2, 8)
    with pytest.raises(ValueError):
        QuarterCirclePath(-0.1, 8)


def test_curve_validation():
    with pytest.raises(ValueError):
        Curve(np.array([0.0, 0.0]), np.zeros((2, 2)), np.array([True, True]))
    with pytest.raises(ValueError):
        Curve(np.array([0.0, 1.0]), np.array([[0.0, np.inf], [0.0, 0.0]]),
              np.array([True, True]))


# ---------------------------------------------------------------------------
# curve tracing

def test_single_point_circle_equals_direct_solve(symmetric_sample):
    curve = trace_curve(symmetric_sample, CirclePath(0.4, 1))
    direct = geometric_expectile(symmetric_sample, np.array([0.4, 0.0]))
    assert curve.points.shape == (1, 2)
    np.testing.assert_allclose(curve.points[0], direct.argmin, atol=1e-8)
    assert curve.all_converged


def test_circle_curve_is_centrally_symmetric(symmetric_sample):
    curve = trace_curve(symmetric_sample, CirclePath(0.7, 16))
    assert curve.all_converged
    center = symmetric_sample.mean(axis=0)
    # Opposite angles phi and phi + pi average to the sample mean.
    for k in range(8):
        pair_mean = (curve.points[k] + curve.points[k + 8]) / 2.0
        np.testing.assert_allclose(pair_mean, center, atol=1e-5)


def test_warm_start_matches_cold_start(symmetric_sample):
    curve = trace_curve(symmetric_sample, CirclePath(0.9, 32), measure="var")
    _, idx = CirclePath(0.9, 32).indices()
    rng = substream(71, "cold-start")
    for k in rng.choice(32, size=8, replace=False):
        cold = geometric_var(symmetric_sample, idx[k])
        np.testing.assert_allclose(curve.points[k], cold.argmin, atol=1e-6)


def test_non_convergence_is_flagged(symmetric_sample):
    cfg = SolverConfig(max_iterations=1, grad_tolerance=1e-14)
    curve = trace_curve(symmetric_sample, CirclePath(0.8, 4), config=cfg)
    assert not curve.all_converged


def test_trace_dimension_mismatch(symmetric_sample):
    with pytest.raises(ValueError):
        trace_curve(np.random.default_rng(0).standard_normal((50, 3)), CirclePath(0.5, 4))
        # circle paths are planar; 3-D samples need the marginalization driver


# ---------------------------------------------------------------------------
# polygon inclusion

def test_point_in_polygon_square_and_diamond():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    diamond = np.array([[0.5, 0.1], [0.9, 0.5], [0.5, 0.9], [0.1, 0.5]])
    # Every diamond vertex is inside the square...
    assert all(point_in_polygon(v, square) for v in diamond)
    # ...but square corners are outside the diamond.
    assert not any(point_in_polygon(v, diamond) for v in square)
    assert point_in_polygon([0.5, 0.5], diamond)
    assert not point_in_polygon([1.5, 0.5], square)


def test_point_on_boundary_counts_as_inside():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert point_in_polygon([0.5, 0.0], square)  # edge midpoint
    assert point_in_polygon([1.0, 1.0], square)  # vertex
    assert point_in_polygon([0.5, 1e-12], square)  # within tolerance band


# ---------------------------------------------------------------------------
# subadditivity sets

def test_degenerate_second_sample_gives_exact_equality(symmetric_sample):
    const = np.tile([2.0, -3.0], (len(symmetric_sample), 1))
    res = subadditivity_sets(symmetric_sample, const, r=0.3, n_phi=12)
    assert res.included is True
    # Translation invariance: the two curves coincide.
    np.testing.assert_allclose(res.curve_sum.points, res.curve_add.points, atol=1e-6)
    assert res.curve_sum.all_converged and res.curve_add.all_converged


def test_subadditivity_requires_matching_lengths(symmetric_sample):
    with pytest.raises(ValueError):
        subadditivity_sets(symmetric_sample, symmetric_sample[:-1], r=0.2, n_phi=8)
    column = symmetric_sample[:, :1]
    with pytest.raises(ValueError):
        subadditivity_sets(column, column, r=0.2, n_phi=8)  # circles need d >= 2


def _assert_same_curves(curves_a, curves_b):
    for a, b in zip(curves_a, curves_b, strict=True):
        assert np.all(a.points == b.points)
        assert np.all(a.converged == b.converged)


def test_threads_give_identical_curves():
    sample = substream(74, "threads").standard_normal((600, 4)) @ np.diag([1.0, 0.5, 2.0, 1.5])
    one, two = (
        subadditivity_sets(sample[:, :2], sample[:, 2:], r=0.6, measure="var", n_phi=8,
                           threads=threads)
        for threads in (1, 2)
    )
    _assert_same_curves((one.curve_sum, one.curve_add), (two.curve_sum, two.curve_add))
    assert one.included == two.included
    one, two = (
        marginalization_curves(sample[:, :3], r=0.3, n_phi=8, threads=threads)
        for threads in (1, 2)
    )
    _assert_same_curves((one.margin_curve, *one.full_curves),
                        (two.margin_curve, *two.full_curves))
    assert one.inclusion_i4 == two.inclusion_i4


# ---------------------------------------------------------------------------
# univariate comparison

def test_comparison_centers_at_level_half(symmetric_sample):
    rows = compare_univariate(symmetric_sample, [0.5])
    row = rows[0]
    center = symmetric_sample[:, 0].mean()
    assert row.univariate_expectile == pytest.approx(center, abs=1e-3)
    assert row.univariate_var == pytest.approx(center, abs=2e-2)
    assert row.geometric_expectile_first == pytest.approx(center, abs=1e-3)
    assert row.geometric_var_first == pytest.approx(center, abs=2e-2)


def test_comparison_univariate_columns_match_oracles(symmetric_sample):
    rows = compare_univariate(symmetric_sample, [0.8, 0.95])
    x = symmetric_sample[:, 0]
    for row in rows:
        assert row.univariate_var == univariate_quantile(x, row.level)
        assert row.univariate_expectile == pytest.approx(
            univariate_expectile(x, row.level), abs=1e-9
        )


# ---------------------------------------------------------------------------
# magnitude matching

def test_match_magnitude_zero_theta_on_symmetric_sample(symmetric_sample):
    m_star = match_magnitude(symmetric_sample, np.array([1.0, 0.0]), 0.0)
    assert 0.0 <= m_star <= 1e-3


def test_match_magnitude_trace_and_domain(symmetric_sample):
    m_star, trace, ok = match_magnitude(
        symmetric_sample, np.array([1.0, 1.0]) / np.sqrt(2.0), 0.5, return_trace=True
    )
    assert ok
    assert 0.0 <= m_star <= 0.999
    trace = np.asarray(trace)
    assert trace.ndim == 2 and trace.shape[1] == 2  # (magnitude, gap) evaluations
    assert np.all(trace[:, 1] >= 0.0)


def test_match_magnitude_validates_direction(symmetric_sample):
    with pytest.raises(ValueError):
        match_magnitude(symmetric_sample, np.array([1.0, 1.0]), 0.5)  # not unit norm
    with pytest.raises(ValueError):
        match_magnitude(symmetric_sample, np.array([1.0, 0.0]), 1.0)  # theta >= 1


# ---------------------------------------------------------------------------
# marginalization, distance, bounded support

def test_marginalization_structure():
    rng = substream(72, "marg-small")
    sample = rng.standard_normal((1500, 3)) @ np.diag([1.0, 0.8, 1.2])
    res = marginalization_curves(sample, r=0.1, n_phi=12)
    assert len(res.full_curves) == 7
    assert res.margin_curve.points.shape == (12, 2)
    for curve in res.full_curves:
        assert curve.points.shape == (12, 2)
        assert np.all(np.isfinite(curve.points))
    assert isinstance(res.inclusion_i4, bool)


def test_marginalization_validates_dimension(symmetric_sample):
    with pytest.raises(ValueError):
        marginalization_curves(symmetric_sample, r=0.1, n_phi=8)  # needs d = 3


def test_distance_curve_starts_at_zero(symmetric_sample):
    grid = np.array([0.0, 0.2, 0.5, 0.8])
    res = distance_curve(symmetric_sample, np.array([0.0, 1.0]), grid)
    assert res.distances[0] <= 1e-6
    assert np.all(res.distances >= 0.0)
    assert np.all(res.converged)
    np.testing.assert_allclose(res.radii, grid, atol=0.0)


def test_distance_curve_validates_grid(symmetric_sample):
    with pytest.raises(ValueError):
        distance_curve(symmetric_sample, np.array([0.0, 1.0]), np.array([0.5, 0.2]))
    with pytest.raises(ValueError):
        distance_curve(symmetric_sample, np.array([0.0, 1.0]), np.array([0.0, 1.0]))


def test_bounded_support_small_radius_stays_inside():
    rows = bounded_support_check(4000, r_list=(0.1,), n_phi=16,
                                 rng=substream(73, "bounded-small"))
    assert len(rows) == 1
    assert rows[0].r == 0.1
    assert rows[0].exits_support is False
    assert rows[0].all_converged


def test_default_stress_radii_exposed():
    assert DEFAULT_STRESS_RADII[0] == 0.1
    assert DEFAULT_STRESS_RADII[-1] == 0.99999
    assert len(DEFAULT_STRESS_RADII) == 14
    assert all(b > a for a, b in zip(DEFAULT_STRESS_RADII, DEFAULT_STRESS_RADII[1:]))
