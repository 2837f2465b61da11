"""Experiment procedures: index paths, predictor-corrector curve tracing, polygon
inclusion, set-level subadditivity, univariate comparison, magnitude matching,
marginalization, distance curves, and the bounded-support sweep."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from geomrisk import estimators, experiments
from geomrisk import (
    DEFAULT_STRESS_RADII,
    CirclePath,
    ClaytonCopula,
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
    get_preset,
    marginalization_curves,
    match_magnitude,
    point_in_polygon,
    simulate,
    simulate_compound,
    subadditivity_sets,
    substream,
    trace_curve,
    univariate_expectile,
    univariate_quantile,
)

from sampling import copula_sample


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
        RayPath(np.array([0.0, 0.0]), mags)  # no direction
    with pytest.raises(ValueError):
        RayPath(np.array([1.0, 0.0]), np.array([0.4, 0.1]))  # not increasing
    with pytest.raises(ValueError):
        RayPath(np.array([1.0, 0.0]), np.array([0.4, 1.0]))  # magnitude >= 1


@pytest.mark.parametrize(
    "make, min_phi",
    [
        (CirclePath, 1),
        (lambda r, n: EllipsePath(r, 0.5, n), 1),
        (lambda r, n: EllipsePath(0.5, r, n), 1),
        (QuarterCirclePath, 2),
    ],
    ids=["circle", "ellipse-r1", "ellipse-r2", "quarter"],
)
def test_path_validation(make, min_phi):
    for radius in (0.0, 1.0, np.nan, -0.1, 1.2):
        with pytest.raises(ValueError, match=r"^radius must lie in \(0, 1\)$"):
            make(radius, 8)
    with pytest.raises(ValueError, match=f"^n_phi must be at least {min_phi}$"):
        make(0.5, min_phi - 1)
    assert make(0.5, min_phi).indices()[1].shape == (min_phi, 2)


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


def test_non_convergence_is_flagged(symmetric_sample, monkeypatch):
    monkeypatch.setattr(SolverConfig, "max_iterations", 1)
    cfg = SolverConfig(grad_tolerance=1e-14)
    curve = trace_curve(symmetric_sample, CirclePath(0.8, 4), config=cfg)
    assert not curve.all_converged


def test_trace_dimension_mismatch(symmetric_sample):
    with pytest.raises(ValueError):
        trace_curve(np.random.default_rng(0).standard_normal((50, 3)), CirclePath(0.5, 4))
        # circle paths are planar; 3-D samples need the marginalization driver


# ---------------------------------------------------------------------------
# one prepared sample per path

@pytest.mark.parametrize("measure, solver, kind", [("expectile", geometric_expectile, "expectile"),
                                                   ("var", geometric_var, "quantile")])
def test_traced_curve_matches_cold_solves(symmetric_sample, measure, solver, kind):
    # the traced path starts its solves elsewhere and carries curvature, so
    # its points are the cold minimizers to the solver's tolerance, not bit
    # for bit; each passes the first-order test (for VaR, the subdifferential
    # at rows that sit exactly on the point)
    sample = np.vstack([symmetric_sample[:300], symmetric_sample[:100]])  # duplicate rows
    path = CirclePath(0.8, 12)
    curve = trace_curve(sample, path, measure)
    for k, alpha in enumerate(path.indices()[1]):
        cold = solver(sample, alpha)
        point = curve.points[k]
        assert np.linalg.norm(point - cold.argmin) <= 1e-6 * (1.0 + np.linalg.norm(cold.argmin))
        grad = np.linalg.norm(estimators.empirical_objective_grad(sample, alpha, point, kind))
        if kind == "quantile":
            atoms = np.count_nonzero(np.all(sample == point, axis=1))
            grad = max(0.0, grad - 0.5 * atoms / len(sample))
        assert grad <= 1e-6
        assert curve.converged[k] == cold.converged


def _asymptote_start(sample: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """``mean + ||u|| r0 v`` with ``r0 = sqrt((tr S - v^T S v) / (2 (1 - ||u||)))``,
    S the 1/n covariance: the VaR start from the extreme-index asymptote."""
    cov = np.cov(sample.T, ddof=0)
    norm = np.linalg.norm(alpha)
    v = alpha / norm
    r0 = np.sqrt(0.5 * (np.trace(cov) - v @ cov @ v) / (1.0 - norm))
    return sample.mean(axis=0) + norm * r0 * v


@pytest.mark.parametrize("measure", ["expectile", "var"])
def test_trace_starts_each_solve_at_the_extrapolated_prediction(symmetric_sample, solver_calls,
                                                                measure):
    # the first point a solve evaluates is its start: the measure's cold
    # prediction for the path's first solve (the sample mean for the
    # expectile; for VaR the extreme-index asymptote, which wins its guard
    # here and so is where the first gradient is taken), the first minimizer
    # for the second, and from the sixth on the order-5 extrapolation of the
    # five minimizers before it, bit for bit, on a circle fine enough that
    # none of them turns sharply
    indices = CirclePath(0.8, 64).indices()[1]
    points, _ = experiments._trace(symmetric_sample, indices, measure, None)
    starts = [call["points"][0] for call in solver_calls]
    assert len(starts) == 64
    prep = estimators._prepare(symmetric_sample)
    if measure == "expectile":
        assert np.array_equal(starts[0], prep.mean)
    else:
        predicted, bar = prep.asymptote(indices[0])
        assert np.array_equal(starts[0], predicted)
        np.testing.assert_allclose(starts[0], _asymptote_start(symmetric_sample, indices[0]),
                                   rtol=1e-13)
        assert bar == pytest.approx(
            0.5 * np.linalg.norm(symmetric_sample - prep.mean, axis=1).mean(), rel=1e-14)
        assert np.array_equal(solver_calls[0]["grad_points"][0], predicted)
    assert np.array_equal(starts[1], points[0])
    for k in range(5, 64):
        p = points[k - 5:k]
        assert np.array_equal(starts[k], p[0] - 5.0 * p[1] + 10.0 * p[2] - 10.0 * p[3] + 5.0 * p[4])
    # on a 6-point circle the extrapolations of order 3 to 5 land farther
    # than half a secant step from the secant prediction, which is taken
    solver_calls.clear()
    points, _ = experiments._trace(symmetric_sample, CirclePath(0.7, 6).indices()[1], measure,
                                   None)
    starts = [call["points"][0] for call in solver_calls]
    for k in range(2, 6):
        secant = 2.0 * points[k - 1] - points[k - 2]
        assert np.array_equal(starts[k], secant)
        if k >= 3:
            extrapolated = np.polyval(np.polyfit(np.arange(k), points[:k], k - 1), k)
            assert np.linalg.norm(extrapolated - secant) > 0.5 * np.linalg.norm(
                points[k - 1] - points[k - 2])


def test_bounded_support_starts_each_circle_at_the_sample_mean(solver_calls):
    # every circle is a path of its own: its first solve starts at the
    # sample mean, and its second at its own first minimizer
    sample = copula_sample(ClaytonCopula(5.0, 2), 300, substream(85, "first-start"))
    rows = bounded_support_check(sample, r_list=(0.3, 0.6), n_phi=4)
    assert all(row.all_converged for row in rows) and len(solver_calls) == 8
    mean = estimators._prepare(sample).mean
    for first in (0, 4):
        assert np.array_equal(solver_calls[first]["points"][0], mean)
        assert np.array_equal(solver_calls[first + 1]["points"][0],
                              solver_calls[first]["result"].argmin)


def test_each_trace_starts_without_curvature(symmetric_sample, solver_calls):
    noise = substream(78, "curvature").standard_normal(symmetric_sample.shape)
    subadditivity_sets(symmetric_sample, noise, r=0.4, measure="var", n_phi=8)
    full = substream(79, "curvature").standard_normal((400, 3))
    marginalization_curves(full, r=0.2, n_phi=8)
    copula = copula_sample(ClaytonCopula(5.0, 2), 500, substream(80, "curvature"))
    bounded_support_check(copula, r_list=(0.3, 0.6), n_phi=8)
    # group the solves by the curvature state they were handed; the records
    # keep every state alive, so no id is reused
    traces = {}
    for call in solver_calls:
        assert call["curvature"] is not None
        traces.setdefault(id(call["curvature"]), []).append(call)
    assert [len(trace) for trace in traces.values()] == [8] * (3 + 8 + 2)
    for trace in traces.values():
        assert trace[0]["h_inv_in"] is None
        assert any(call["h_inv_in"] is not None for call in trace[1:])


def _passes(solver_calls) -> int:
    """Kernel passes of the recorded solves; clears the record."""
    total = sum(call["fun"] + call["grad"] for call in solver_calls)
    solver_calls.clear()
    return total


def _old_chain(sample, indices, kind: str) -> None:
    """The engine before predictor-corrector tracing: each solve starts at
    the previous minimizer (the first at the sample mean), without curvature."""
    prep = estimators._prepare(sample)
    x = prep.mean
    atom = prep.nearest_atom if kind == "quantile" else None
    for alpha in indices:
        fun, grad = estimators._objective_closures(prep, np.asarray(alpha, dtype=float), kind)
        x = estimators.minimize_convex(fun, grad, x, _curvature=estimators._Curvature(atom)).argmin


@pytest.mark.parametrize("measure, kind", [("expectile", "expectile"), ("var", "quantile")])
def test_predictor_corrector_saves_kernel_passes(solver_calls, measure, kind):
    # the paper's 64-point circle curve near the unit sphere
    sample = simulate(get_preset("X3"), 10_000, substream(81, "x3-passes"))
    path = CirclePath(0.98, 64)
    assert trace_curve(sample, path, measure).all_converged
    traced = _passes(solver_calls)
    _old_chain(sample, path.indices()[1], kind)
    assert traced <= 0.75 * _passes(solver_calls)


def test_carried_curvature_costs_nothing_near_the_unit_sphere(solver_calls):
    # on a coarse circle near the unit sphere the carried estimate, even
    # turned with the index, may not fit the next index; it gets the unit
    # step only, so the trace costs no more than the old chain (~1.13x
    # without that rule and without the turn)
    sample = copula_sample(ClaytonCopula(5.0, 2), 4000, substream(82, "near-sphere"))
    traced = chain = 0
    for r in (0.9995, 0.9999, 0.99999):
        path = CirclePath(r, 16)
        assert trace_curve(sample, path).all_converged
        traced += _passes(solver_calls)
        _old_chain(sample, path.indices()[1], "expectile")
        chain += _passes(solver_calls)
    assert traced <= 1.05 * chain


def _x3_circle() -> None:
    sample = simulate(get_preset("X3"), 10_000, substream(81, "x3-passes"))
    assert trace_curve(sample, CirclePath(0.98, 64)).all_converged


def _near_sphere_circles() -> None:
    sample = copula_sample(ClaytonCopula(5.0, 2), 4000, substream(82, "near-sphere"))
    for r in (0.9995, 0.9999, 0.99999):
        assert trace_curve(sample, CirclePath(r, 16)).all_converged


@pytest.mark.parametrize("curve", [_x3_circle, _near_sphere_circles],
                         ids=["x3-circle", "clayton-near-sphere"])
def test_turned_curvature_saves_kernel_passes(solver_calls, monkeypatch, curve):
    # the expectile Hessian's anisotropic terms are linear in the index, so
    # the carried estimate turns with it: 0.77x and 0.75x the passes of
    # carrying it unturned (488 / 634 and 1,148 / 1,539)
    curve()
    turned = _passes(solver_calls)
    with monkeypatch.context() as patched:
        patched.setattr(estimators, "_rotation", lambda a, b: None)
        curve()
    assert turned <= 0.85 * _passes(solver_calls)


def _secant_start(self, cold, fun):
    """The start rule of an expectile path before the order-5 predictor:
    ``cold``, the first minimizer, then the secant prediction ``2 c[k-1] -
    c[k-2]``, none with a known value."""
    past = self.past
    if not past:
        return np.array(cold, dtype=float), None
    if len(past) < 2:
        return past[-1].copy(), None
    return 2.0 * past[-1] - past[-2], None


def _secant_passes(monkeypatch, solver_calls, run) -> int:
    """Kernel passes of ``run()`` with every path started by the secant rule."""
    with monkeypatch.context() as patched:
        patched.setattr(estimators._Curvature, "start", _secant_start)
        run()
    return _passes(solver_calls)


@pytest.mark.parametrize("experiment", [
    lambda s: marginalization_curves(s[:, :3], r=0.1, n_phi=64),
    lambda s: subadditivity_sets(s[:, :2], s[:, 2:], r=0.2, measure="expectile", n_phi=64),
], ids=["marginalization", "subadditivity-expectile"])
def test_extrapolated_starts_save_kernel_passes(solver_calls, monkeypatch, experiment):
    # the paper's 64-point circles: the order-5 start took 0.69x
    # (marginalization, 2,180 / 3,166 passes) and 0.71x (subadditivity,
    # 830 / 1,170) the passes of the secant start
    sample = simulate(get_preset("Z-clayton5"), 2000, substream(84, "extrapolated-passes"))

    def run():
        experiment(sample)

    run()
    extrapolated = _passes(solver_calls)
    secant = _secant_passes(monkeypatch, solver_calls, run)
    assert extrapolated <= 0.8 * secant


@pytest.mark.parametrize("measure", ["expectile", "var"])
def test_each_point_of_a_trace_costs_one_pass_state(solver_calls, measure):
    # a gradient at the point just valued reads the state its value pass
    # computed, so a traced path computes one pass state per distinct point
    sample = simulate(get_preset("X3"), 2000, substream(83, "pass-states"))
    assert trace_curve(sample, CirclePath(0.9, 16), measure).all_converged
    states = sum(call["states"] for call in solver_calls)
    points = sum(len({x.tobytes() for x in call["points"]}) for call in solver_calls)
    passes = sum(call["fun"] + call["grad"] for call in solver_calls)
    assert states == points < passes


def test_atom_paths_keep_their_pass_count(solver_calls):
    # fresh pass states of the cp-paper VaR circles (n = 100, over a third
    # of the rows on the zero-claim atom; radii 0.5 and 0.9, 64 angles, 8
    # seeds): 5,229; 10,368 without the held atom's test at a solve's start,
    # and 5,786 without the extrapolation's secant guard (5,456 where only
    # equal last minimizers still give way to the secant).  The bound fails
    # a change that loses either
    for seed in range(8):
        sample = simulate_compound(get_preset("cp-paper"), 100, substream(seed, "atom-paths"))
        for r in (0.5, 0.9):
            assert trace_curve(sample, CirclePath(r, 64), "var").all_converged
    assert len(solver_calls) == 8 * 2 * 64
    assert sum(call["states"] for call in solver_calls) <= 5_340


def test_bounded_support_keeps_its_pass_count(solver_calls):
    # fresh pass states of the bounded-support sweep on a Clayton(5) sample
    # (n = 2,000, the 14 default radii, 16 angles): 1,475; 1,751 with the
    # carried estimate not turned with the index (1,542 without the secant
    # guard).  The bound fails a change that loses the turn
    sample = copula_sample(ClaytonCopula(5.0, 2), 2000, substream(1, "bounded-passes"))
    assert all(row.all_converged for row in bounded_support_check(sample, n_phi=16))
    assert len(solver_calls) == len(DEFAULT_STRESS_RADII) * 16
    assert sum(call["states"] for call in solver_calls) <= 1_520


@pytest.mark.parametrize("measure", ["expectile", "var"])
def test_traced_curve_of_identical_rows_is_that_point(measure):
    sample = np.tile([1.5, -0.25], (30, 1))
    curve = trace_curve(sample, CirclePath(0.9, 8), measure)
    assert np.all(curve.points == sample[0])
    assert curve.all_converged


def test_each_sample_is_prepared_once(symmetric_sample, monkeypatch):
    calls = []
    collinear = estimators._collinear

    def counted(*args):
        calls.append(1)
        return collinear(*args)

    monkeypatch.setattr(estimators, "_collinear", counted)
    trace_curve(symmetric_sample, CirclePath(0.5, 16), "var")
    assert len(calls) == 1
    noise = substream(75, "prepared").standard_normal(symmetric_sample.shape)
    calls.clear()
    subadditivity_sets(symmetric_sample, noise, r=0.4, measure="var", n_phi=8)
    assert len(calls) == 3
    calls.clear()
    match_magnitude(symmetric_sample, np.array([1.0, 0.0]), 0.5)
    assert len(calls) == 1
    calls.clear()
    for _ in range(2):
        geometric_var(symmetric_sample, np.array([0.3, 0.1]))
    assert len(calls) == 2


def test_solves_see_the_callers_sample_through_the_module_names(symmetric_sample, monkeypatch):
    seen = []
    var = experiments.geometric_var

    def recorded(sample, alpha, config=None):
        seen.append(sample)
        return var(sample, alpha, config)

    monkeypatch.setattr(experiments, "geometric_var", recorded)
    sample = symmetric_sample.copy()
    curve = trace_curve(sample, CirclePath(0.6, 8), "var")
    assert len(seen) == 8
    alpha = np.array([0.6, 0.0])
    for arg in seen:
        assert arg.ndim == 2 and arg.shape == sample.shape
        assert np.array_equal(np.asarray(arg, dtype=float), sample)
        assert estimators.empirical_objective(arg, alpha, curve.points[0], "quantile") == (
            estimators.empirical_objective(sample, alpha, curve.points[0], "quantile"))
    other = substream(76, "prepared").standard_normal(sample.shape)
    full = substream(77, "prepared").standard_normal((400, 3))
    before = (sample.copy(), other.copy(), full.copy())
    subadditivity_sets(sample, other, r=0.3, measure="var", n_phi=8)
    marginalization_curves(full, r=0.2, n_phi=8)
    for arr, copy in zip((sample, other, full), before, strict=True):
        assert np.array_equal(arr, copy)
        assert arr.flags.writeable


# ---------------------------------------------------------------------------
# polygon inclusion

# the boundary band is relative to the polygon's size: every verdict holds at
# any common scale of point and polygon
_SCALES = pytest.mark.parametrize("s", (1e-12, 1.0, 1e12))


@_SCALES
def test_point_in_polygon_square_and_diamond(s):
    square = s * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    diamond = s * np.array([[0.5, 0.1], [0.9, 0.5], [0.5, 0.9], [0.1, 0.5]])
    # Every diamond vertex is inside the square...
    assert all(point_in_polygon(v, square) for v in diamond)
    # ...but square corners are outside the diamond.
    assert not any(point_in_polygon(v, diamond) for v in square)
    assert point_in_polygon(s * np.array([0.5, 0.5]), diamond)
    assert not point_in_polygon(s * np.array([1.5, 0.5]), square)
    assert not point_in_polygon(s * np.array([0.5, -1e-6]), square)


@_SCALES
def test_point_on_boundary_counts_as_inside(s):
    square = s * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert point_in_polygon(s * np.array([0.5, 0.0]), square)  # edge midpoint
    assert point_in_polygon(s * np.array([1.0, 1.0]), square)  # vertex
    assert point_in_polygon(s * np.array([0.5, -1e-12]), square)  # within tolerance band
    assert not point_in_polygon(s * np.array([1.0 + 1e-6, 0.5]), square)


def _one_point_verdict(point, vertices):
    """The per-point rule in Python floats, one edge at a time: the oracle."""
    px, py = (float(x) for x in point)
    corners = [(float(x), float(y)) for x, y in vertices]
    xs, ys = zip(*corners)
    band = 1e-9 * math.hypot(max(xs) - min(xs), max(ys) - min(ys))
    crossings = 0
    for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
        dx, dy = bx - ax, by - ay
        denom = dx * dx + dy * dy
        t = ((px - ax) * dx + (py - ay) * dy) / (denom if denom else 1.0)
        t = min(max(t, 0.0), 1.0)
        if math.hypot(px - (ax + t * dx), py - (ay + t * dy)) <= band:
            return True
        if (ay > py) != (by > py) and px < ax + (py - ay) / dy * dx:
            crossings += 1
    return crossings % 2 == 1


def _probe_points(rng, vertices):
    """Vertices, edge midpoints, points on each edge's line past its end,
    points 0.999 and 1.001 bands off each edge midpoint, and uniform points
    over a box twice the polygon's size."""
    a, b = vertices, np.roll(vertices, -1, axis=0)
    mid = 0.5 * (a + b)
    edge = b - a
    length = np.linalg.norm(edge, axis=1)
    normal = np.column_stack([-edge[:, 1], edge[:, 0]]) / np.where(length, length, 1.0)[:, None]
    band = 1e-9 * math.hypot(*np.ptp(vertices, axis=0))
    near = [mid + f * band * normal for f in (0.999, -0.999, 1.001, -1.001)]
    lo, hi = vertices.min(axis=0), vertices.max(axis=0)
    spread = rng.uniform(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo), size=(20, 2))
    return np.vstack([vertices, mid, a + 1.5 * edge, *near, spread])


@_SCALES
def test_batch_and_single_verdicts_equal_the_per_point_rule(s, rng_factory):
    rng = rng_factory("polygon-batch")
    for _ in range(40):
        vertices = rng.standard_normal((int(rng.integers(3, 12)), 2))
        if rng.random() < 0.5:  # a repeated vertex: a zero-length edge
            i = int(rng.integers(vertices.shape[0]))
            vertices = np.insert(vertices, i, vertices[i], axis=0)
        vertices = s * vertices
        points = _probe_points(rng, vertices)
        expected = [_one_point_verdict(p, vertices) for p in points]
        batch = point_in_polygon(points, vertices)
        assert batch.dtype == bool and batch.shape == (points.shape[0],)
        assert batch.tolist() == expected
        single = [point_in_polygon(p, vertices) for p in points]
        assert all(type(v) is bool for v in single)
        assert single == expected


@pytest.mark.parametrize("run, verdict", [
    (lambda s: subadditivity_sets(s[:, :2], s[:, 2:], r=0.2, n_phi=6), "included"),
    (lambda s: marginalization_curves(s[:, :3], r=0.1, n_phi=6), "inclusion_i4"),
], ids=["subadditivity", "marginalization"])
def test_each_verdict_is_one_polygon_call(run, verdict, rng_factory, monkeypatch):
    calls = []

    def counted(point, vertices):
        calls.append(np.shape(point))
        return point_in_polygon(point, vertices)

    monkeypatch.setattr(experiments, "point_in_polygon", counted)
    result = run(rng_factory("one-verdict").standard_normal((300, 4)))
    assert calls == [(6, 2)]
    assert type(getattr(result, verdict)) is bool


@pytest.mark.parametrize("s", (1e-9, 1.0))
def test_subadditivity_verdict_does_not_depend_on_the_sample_scale(s):
    # Z-clayton5 (seed 1) at the 0.86 VaR circle: the sum curve leaves the
    # added polygon at every scale
    sample = simulate(get_preset("Z-clayton5"), 20_000, substream(1, "simulate"))
    res = subadditivity_sets(s * sample[:, :2], s * sample[:, 2:], 0.86, "var", n_phi=32)
    assert res.included is False


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
    with pytest.raises(ValueError, match="subadditivity requires bivariate samples"):
        subadditivity_sets(column, column, r=0.2, n_phi=8)


def test_subadditivity_rejects_its_inputs_before_any_solve(symmetric_sample, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the inputs were checked")

    monkeypatch.setattr(experiments, "geometric_expectile", no_solve)
    monkeypatch.setattr(experiments, "geometric_var", no_solve)
    with pytest.raises(ValueError, match="n_phi must be at least 3"):
        subadditivity_sets(symmetric_sample, symmetric_sample, r=0.2, n_phi=2)
    trivariate = np.column_stack([symmetric_sample, symmetric_sample[:, 0]])
    with pytest.raises(ValueError, match="subadditivity requires bivariate samples"):
        subadditivity_sets(trivariate, trivariate[::-1], r=0.2, n_phi=8)


def test_path_experiments_take_no_threads_keyword(symmetric_sample):
    with pytest.raises(TypeError, match="threads"):
        subadditivity_sets(symmetric_sample, symmetric_sample, r=0.2, n_phi=8, threads=2)
    with pytest.raises(TypeError, match="threads"):
        marginalization_curves(symmetric_sample, r=0.2, n_phi=8, threads=2)


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
    m_star, _, ok = match_magnitude(symmetric_sample, np.array([1.0, 0.0]), 0.0)
    assert ok
    assert 0.0 <= m_star <= 1e-3


def test_match_magnitude_trace_and_domain(symmetric_sample):
    m_star, trace, ok = match_magnitude(symmetric_sample, np.array([1.0, 1.0]) / np.sqrt(2.0), 0.5)
    assert ok
    assert 0.0 <= m_star <= 0.999
    trace = np.asarray(trace)
    assert trace.ndim == 2 and trace.shape[1] == 2  # (magnitude, gap) evaluations
    assert np.all(trace[:, 1] >= 0.0)


def test_match_magnitude_reports_a_target_solve_that_did_not_converge(
    symmetric_sample, monkeypatch
):
    direction = np.array([1.0, 0.0])
    assert match_magnitude(symmetric_sample, direction, 0.5)[2]
    solve = experiments.geometric_expectile
    monkeypatch.setattr(
        experiments,
        "geometric_expectile",
        lambda *args: dataclasses.replace(solve(*args), converged=False),
    )
    assert not match_magnitude(symmetric_sample, direction, 0.5)[2]


def test_match_magnitude_starts_its_var_path_at_the_asymptote(symmetric_sample, solver_calls):
    # the expectile target starts at the sample mean, on a fresh path state
    # of its own; the VaR solves of the search share one path, whose first
    # solve starts at the extreme-index asymptote of its index (below the
    # objective at the mean here), whose second starts at the first VaR
    # minimizer, and whose later solves carry the estimate the one before left
    _, trace, _ = match_magnitude(symmetric_sample, np.array([1.0, 0.0]), 0.5)
    prep = estimators._prepare(symmetric_sample)
    target, first, second, *later = solver_calls
    assert np.array_equal(target["points"][0], prep.mean)
    path = first["curvature"]
    assert target["curvature"] is not path and len(target["curvature"].past) == 1
    assert path is not None and len(later) > 1
    assert all(call["curvature"] is path for call in (second, *later))
    alpha = np.array([trace[0][0], 0.0])
    predicted, _ = prep.asymptote(alpha)
    np.testing.assert_allclose(predicted, _asymptote_start(symmetric_sample, alpha), rtol=1e-13)
    assert np.array_equal(first["points"][0], predicted) and first["h_inv_in"] is None
    assert np.array_equal(first["grad_points"][0], predicted)
    assert np.array_equal(second["points"][0], first["result"].argmin)
    assert all(call["h_inv_in"] is not None for call in later)


def test_match_magnitude_searches_on_one_path(solver_calls):
    # the search's VaR solves as one traced path cost at most 0.9x the fresh
    # pass states of starting each at the minimizer before it, without
    # curvature, over the same magnitudes (0.73 here; 0.68-0.82 on X1 at
    # n = 2,000 over seeds 1-3, along e1 and the diagonal, theta 0.3/0.5/0.8)
    sample = simulate(get_preset("X1"), 2000, substream(86, "one-path"))
    direction = np.array([1.0, 0.0])
    _, trace, ok = match_magnitude(sample, direction, 0.5)
    assert ok
    one_path = sum(call["states"] for call in solver_calls[1:])
    solver_calls.clear()
    _old_chain(sample, [m * direction for m, _ in trace], "quantile")
    chain = sum(call["states"] for call in solver_calls)
    assert len(solver_calls) == len(trace)
    assert one_path <= 0.9 * chain


@pytest.mark.parametrize("name, n, seeds, bound", [
    # the largest |m* - m*_tight| measured: 8.0e-5 on cp-paper over seeds
    # 1-16 (these 96 cases), 7.9e-6 on X1 at n = 2,000 over seeds 1-8
    ("cp-paper", 100, range(1, 17), 1e-4),
    ("X1", 2000, range(1, 4), 1e-5),
], ids=["cp-paper", "X1"])
def test_match_magnitude_is_as_precise_as_its_var_solves(name, n, seeds, bound):
    # m* is only as precise as its VaR solves: at the default config it stays
    # this near a search with grad_tolerance = 1e-13 (whose solves may stop
    # as stagnation short of that tolerance)
    model = get_preset(name)
    draw = simulate_compound if name == "cp-paper" else simulate
    tight = SolverConfig(grad_tolerance=1e-13)
    for seed in seeds:
        sample = draw(model, n, substream(seed, "simulate"))
        for direction in (np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2.0)):
            for theta in (0.3, 0.6, 0.9):
                m_star, _, ok = match_magnitude(sample, direction, theta)
                m_tight = match_magnitude(sample, direction, theta, tight)[0]
                assert ok
                assert abs(m_star - m_tight) <= bound, (seed, direction, theta)


@pytest.mark.parametrize("direction, unit", [
    ([3.0, 4.0], [0.6, 0.8]),
    ([1.0, 1.0], [np.sqrt(0.5), np.sqrt(0.5)]),
    # squared norms that overflow, underflow to zero or are subnormal
    ([1e200, 1e200], [np.sqrt(0.5), np.sqrt(0.5)]),
    ([1e-200, 0.0], [1.0, 0.0]),
    ([3e-170, 4e-170], [0.6, 0.8]),
    ([3e-160, 4e-160], [0.6, 0.8]),
], ids=["3-4", "1-1", "square-overflows", "square-underflows", "squares-underflow",
        "squares-subnormal"])
def test_any_nonzero_direction_is_scaled_to_unit_length(direction, unit, symmetric_sample):
    # one direction rule for every experiment: the given vector, scaled
    grid = np.array([0.0, 0.3, 0.6, 0.9])
    np.testing.assert_allclose(RayPath(direction, grid).direction, unit, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(distance_curve(symmetric_sample, direction, grid).distances,
                               distance_curve(symmetric_sample, unit, grid).distances,
                               rtol=1e-12, atol=0.0)
    m_scaled, _, ok = match_magnitude(symmetric_sample, direction, 0.5)
    assert ok
    assert abs(m_scaled - match_magnitude(symmetric_sample, unit, 0.5)[0]) <= 1e-6


def test_match_magnitude_validates_direction(symmetric_sample):
    with pytest.raises(ValueError):
        match_magnitude(symmetric_sample, np.array([0.0, 0.0]), 0.5)  # no direction
    with pytest.raises(ValueError):
        match_magnitude(symmetric_sample, np.array([1.0, 0.0]), 1.0)  # theta >= 1


@pytest.mark.parametrize("grad_tolerance", [None, 1e-12, 1e-8, 1e-4])
def test_match_magnitude_search_bracket_follows_grad_tolerance(
    grad_tolerance, symmetric_sample, monkeypatch
):
    # m* is only as precise as the VaR solves, to about sqrt(grad_tolerance):
    # the bracket stays two orders below that, 1e-6 at the default
    brackets = []

    def golden(fun, lo, hi, tol):
        brackets.append(tol)
        return 0.5 * (lo + hi), []

    monkeypatch.setattr(experiments, "_golden_section", golden)
    config = None if grad_tolerance is None else SolverConfig(grad_tolerance=grad_tolerance)
    match_magnitude(symmetric_sample, np.array([1.0, 0.0]), 0.5, config)
    expected = 1e-6 if grad_tolerance is None else np.sqrt(grad_tolerance) / 100.0
    assert brackets == [expected]


def test_match_magnitude_takes_no_search_tolerance(symmetric_sample):
    with pytest.raises(TypeError):
        match_magnitude(symmetric_sample, np.array([1.0, 0.0]), 0.5, tol=1e-6)


def test_golden_section_ends_at_rounding_below_a_tiny_tolerance():
    # a width below the spacing of floats near the minimum is never reached
    def gap(m: float) -> float:
        gap.calls += 1
        if gap.calls > 1000:
            raise AssertionError("the search did not end")
        return (m - 0.3) ** 2

    gap.calls = 0
    m, trace = experiments._golden_section(gap, 0.0, 0.999, 1e-300)
    assert m == pytest.approx(0.3, abs=1e-15)
    assert len(trace) < 100


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
    with pytest.raises(ValueError, match="n_phi must be at least 3"):
        marginalization_curves(np.ones((5, 3)), r=0.1, n_phi=2)  # no polygon


def test_distance_curve_starts_at_zero(symmetric_sample):
    grid = np.array([0.0, 0.2, 0.5, 0.8])
    res = distance_curve(symmetric_sample, np.array([0.0, 1.0]), grid)
    assert res.distances[0] == 0.0
    assert np.all(res.distances >= 0.0)
    assert np.all(res.converged)
    np.testing.assert_allclose(res.radii, grid, atol=0.0)


def test_distance_curve_validates_grid(symmetric_sample):
    with pytest.raises(ValueError):
        distance_curve(symmetric_sample, np.array([0.0, 1.0]), np.array([0.5, 0.2]))
    with pytest.raises(ValueError):
        distance_curve(symmetric_sample, np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        distance_curve(symmetric_sample, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.5]))


@pytest.mark.parametrize("r_list, n_phi", [((0.5, 1.0), 8), ((0.0, 0.5), 8), ((0.5,), 0)])
def test_bounded_support_validates_its_path(r_list, n_phi):
    with pytest.raises(ValueError, match="radius must lie|n_phi must be at least 1"):
        sample = copula_sample(ClaytonCopula(5.0, 2), 100, substream(74, "bs-bad"))
        bounded_support_check(sample, r_list=r_list, n_phi=n_phi)


@pytest.mark.parametrize("levels", [[0.5, 1.0], [0.0], [np.nan], [], [[0.5]]])
def test_compare_univariate_validates_levels(levels, symmetric_sample):
    with pytest.raises(ValueError, match="level"):
        compare_univariate(symmetric_sample, levels)


def test_bounded_support_small_radius_stays_inside():
    sample = copula_sample(ClaytonCopula(5.0, 2), 4000, substream(73, "bounded-small"))
    rows = bounded_support_check(sample, r_list=(0.1,), n_phi=16)
    assert len(rows) == 1
    assert rows[0].r == 0.1
    assert rows[0].exits_support is False
    assert rows[0].all_converged


def test_experiments_draw_no_sample_of_their_own():
    # every sample comes from the caller; the module reaches no sampler
    tree = ast.parse(Path(experiments.__file__).read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not {m for m in modules if m and m.split(".")[-1] in ("copulas", "models")}
    assert list(inspect.signature(bounded_support_check).parameters) == [
        "sample", "r_list", "n_phi", "config"]


def test_default_stress_radii_exposed():
    assert DEFAULT_STRESS_RADII[0] == 0.1
    assert DEFAULT_STRESS_RADII[-1] == 0.99999
    assert len(DEFAULT_STRESS_RADII) == 14
    assert all(b > a for a, b in zip(DEFAULT_STRESS_RADII, DEFAULT_STRESS_RADII[1:]))


# ---------------------------------------------------------------------------
# every check that no test above reaches: id -> (call, exception, message)

_PAIR = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

_REJECTED = {
    # one direction rule (experiments._unit_direction) and one index-length
    # check (estimators._solve), for every entry point
    "ray-direction": (lambda: RayPath([np.nan, 1.0], [0.1]), ValueError,
                      "direction must be a finite nonzero vector"),
    "ray-direction-zero": (lambda: RayPath([0.0, 0.0], [0.1]), ValueError,
                           "direction must be a finite nonzero vector"),
    "trace-direction-dim": (lambda: trace_curve(_PAIR, RayPath([1.0, 0.0, 0.0], [0.1])),
                            ValueError, "index dimension must match the sample dimension"),
    "distance-direction-zero": (lambda: distance_curve(_PAIR, [0.0, 0.0], [0.5]), ValueError,
                                "direction must be a finite nonzero vector"),
    "distance-direction-inf": (lambda: distance_curve(_PAIR, [np.inf, 1.0], [0.5]), ValueError,
                               "direction must be a finite nonzero vector"),
    "distance-direction-dim": (lambda: distance_curve(_PAIR, [1.0, 0.0, 0.0], [0.5]),
                               ValueError, "index dimension must match the sample dimension"),
    "match-direction-nan": (lambda: match_magnitude(_PAIR, [np.nan, 1.0], 0.5), ValueError,
                            "direction must be a finite nonzero vector"),
    "ray-magnitudes": (lambda: RayPath([1.0, 0.0], []), ValueError,
                       "magnitudes must be a finite 1-D array"),
    "match-direction-dim": (lambda: match_magnitude(_PAIR, [1.0, 0.0, 0.0], 0.5), ValueError,
                            "index dimension must match the sample dimension"),
    "expectile-index-dim": (lambda: geometric_expectile(_PAIR, [0.1, 0.1, 0.1]), ValueError,
                            "index dimension must match the sample dimension"),
    "var-index-dim": (lambda: geometric_var(_PAIR, [0.1, 0.1, 0.1]), ValueError,
                      "index dimension must match the sample dimension"),
    "curve-converged": (lambda: Curve([0.0, 1.0], np.zeros((2, 2)), [True]), ValueError,
                        "converged must be a boolean array matching params"),
    "trace-measure": (lambda: trace_curve(_PAIR, CirclePath(0.5, 4), "median"), ValueError,
                      "measure must be one of ('expectile', 'var')"),
    "trace-path-type": (lambda: trace_curve(_PAIR, (0.5, 4)), ValueError,
                        "unknown path type: tuple"),
    "polygon-point": (lambda: point_in_polygon([0.0, np.nan], _SQUARE), ValueError,
                      "point must be a finite 2-vector"),
    "polygon-vertices": (lambda: point_in_polygon([0.0, 0.0], _SQUARE[:2]), ValueError,
                         "vertices must be a finite (k, 2) array with k >= 3"),
    "subadditivity-dimension": (lambda: subadditivity_sets(np.eye(3), np.eye(3), 0.2),
                                ValueError, "subadditivity requires bivariate samples"),
    "compare-dimension": (lambda: compare_univariate(np.eye(3), [0.9]), ValueError,
                          "comparison requires a bivariate sample"),
    "search-not-finite": (lambda: experiments._golden_section(lambda m: np.inf, 0.5, 0.5, 1e-3),
                          ValueError, "search objective is not finite at m = 0.5"),
    "bounded-support-dimension": (lambda: bounded_support_check(np.full((4, 3), 0.5)),
                                  ValueError, "sample must be bivariate with rows in [0, 1]^2"),
    "bounded-support-box": (lambda: bounded_support_check(_SQUARE + 0.5), ValueError,
                            "sample must be bivariate with rows in [0, 1]^2"),
}


@pytest.mark.parametrize("call, error, message", _REJECTED.values(), ids=_REJECTED.keys())
def test_rejected_input_raises_its_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message
