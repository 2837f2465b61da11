"""Acceptance gates: thirteen pinned criteria, one test per criterion.

Each test enforces the stated numeric tolerance and the desk-scale runtime
budget, and prints a single summary line on success (visible with -s)."""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy import stats

from geomrisk import (
    CirclePath,
    SolverConfig,
    QuarterCirclePath,
    UniformBox,
    ClaytonCopula,
    FrankCopula,
    GumbelCopula,
    bounded_support_check,
    compare_univariate,
    distance_curve,
    empirical_objective,
    empirical_objective_grad,
    expectile_loss,
    expectile_loss_grad,
    expectile_score,
    geometric_expectile,
    geometric_var,
    get_preset,
    marginalization_curves,
    match_magnitude,
    quantile_loss,
    simulate,
    simulate_compound,
    subadditivity_sets,
    substream,
    trace_curve,
    uniform_expected_loss,
    uniform_expectile,
    univariate_expectile,
    univariate_quantile,
)
from geomrisk.cli import main as cli_main

SLACK = 1e-10


def _report(num: int, budget_s: float, started: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s:.0f}s budget ({elapsed:.1f}s)"
    print(f"CRITERION {num:02d} PASS ({elapsed:.1f}s < {budget_s:.0f}s) - {detail}")


def _random_indices(rng: np.random.Generator, count: int, dim: int,
                    max_norm: float = 0.95) -> np.ndarray:
    out = np.empty((count, dim))
    for i in range(count):
        v = rng.standard_normal(dim)
        v /= max(np.linalg.norm(v), 1e-300)
        out[i] = v * rng.uniform(0.0, max_norm)
    return out


# ---------------------------------------------------------------------------
# shared heavy samples

@pytest.fixture(scope="module")
def z4_20k() -> np.ndarray:
    return simulate(get_preset("Z-clayton5"), 20_000, substream(1203, "acc-z4"))


@pytest.fixture(scope="module")
def frank4_20k() -> np.ndarray:
    return simulate(get_preset("frank3-4d"), 20_000, substream(1203, "acc-frank4"))


@pytest.fixture(scope="module")
def uniform_100k() -> np.ndarray:
    return substream(1203, "acc-uniform").uniform(0.0, 1.0, size=(100_000, 2))


def test_criterion_01_loss_kernel_bounds():
    t0 = time.perf_counter()
    rng = substream(1401, "c1")
    per_dim = 25_000
    checked = 0
    for dim in (1, 2, 3, 5):
        u = _random_indices(rng, 1, dim)[0]
        unorm = np.linalg.norm(u)
        t = rng.standard_normal((per_dim, dim)) * 3.0
        y = rng.standard_normal((per_dim, dim)) * 3.0
        lam = expectile_loss(u, t)
        phi = quantile_loss(u, t)
        norms = np.linalg.norm(t, axis=1)
        # nonnegativity
        assert np.all(lam >= -SLACK)
        assert np.all(phi >= -SLACK)
        # coercivity lower bound
        assert np.all(lam - 0.5 * (1.0 - unorm) * norms**2 >= -SLACK)
        # midpoint convexity h = 2L(x) + 2L(y) - L(x+y) >= 0
        h = 2 * lam + 2 * expectile_loss(u, y) - expectile_loss(u, t + y)
        assert np.all(h >= -SLACK)
        # parallelogram inequality, both sides
        mid = (
            2 * norms * (t @ u)
            + 2 * np.linalg.norm(y, axis=1) * (y @ u)
            - np.linalg.norm(t + y, axis=1) * ((t + y) @ u)
        )
        bound = np.linalg.norm(t - y, axis=1) ** 2
        assert np.all(bound - mid >= -SLACK)
        assert np.all(bound + mid >= -SLACK)
        # order-2 homogeneity of the score
        c = rng.uniform(0.1, 10.0, per_dim)
        base = expectile_loss(u, t - y)
        scaled = expectile_loss(u, c[:, None] * (t - y))
        assert np.all(np.abs(scaled - c**2 * base) <= SLACK * (1.0 + scaled))
        assert expectile_score(u, t[0], y[0]) == pytest.approx(base[0], abs=1e-14)
        checked += per_dim
    assert checked == 100_000
    _report(1, 10.0, t0, f"{checked} instances per property, slack {SLACK:g}")


def test_criterion_02_gradient_finite_differences():
    t0 = time.perf_counter()
    rng = substream(1402, "c2")
    step = 1e-6
    checked = 0
    while checked < 1000:
        dim = int(rng.integers(1, 6))
        u = _random_indices(rng, 1, dim)[0]
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

    sample = rng.standard_normal((200, 3))
    alpha = np.array([0.3, -0.2, 0.1])
    for _ in range(1000):
        c = rng.standard_normal(3) * 1.5
        grad = empirical_objective_grad(sample, alpha, c, "expectile")
        k = int(rng.integers(0, 3))
        e_k = np.zeros(3)
        e_k[k] = step
        fd = (
            empirical_objective(sample, alpha, c + e_k, "expectile")
            - empirical_objective(sample, alpha, c - e_k, "expectile")
        ) / (2 * step)
        assert abs(fd - grad[k]) <= 1e-6 * (1.0 + abs(fd))
    _report(2, 5.0, t0, "1000 loss-gradient and 1000 objective-gradient points, rel err <= 1e-6")


def test_criterion_03_exact_reductions():
    t0 = time.perf_counter()
    rng = substream(1403, "c3")
    sample = rng.standard_normal((500, 3)) + np.array([0.5, -1.0, 2.0])
    rep = geometric_expectile(sample, np.zeros(3))
    assert np.linalg.norm(rep.argmin - sample.mean(axis=0)) <= 1e-8

    x = rng.standard_normal(400) * 1.3 - 0.4
    xs = np.sort(x)
    for u in np.arange(-0.9, 0.95, 0.1):
        level = (1.0 + u) / 2.0
        e1 = geometric_expectile(x[:, None], np.array([u])).argmin[0]
        assert abs(e1 - univariate_expectile(x, level)) <= 1e-6
        q1 = geometric_var(x[:, None], np.array([u])).argmin[0]
        target = univariate_quantile(x, level)
        k = int(np.searchsorted(xs, target))
        gap = max(
            xs[k] - xs[k - 1] if k >= 1 else 0.0,
            xs[min(k + 1, len(xs) - 1)] - xs[min(k, len(xs) - 2)],
        )
        assert abs(q1 - target) <= gap + 1e-9
    _report(3, 5.0, t0, "mean at index 0, and 1-D expectile/quantile reductions for u in {-0.9..0.9}")


def test_criterion_04_equivariance_suite():
    t0 = time.perf_counter()
    rng = substream(1404, "c4")
    # The identities are exact; resolving them to 1e-6 absolute error at scale
    # sigma=100 needs solves tighter than the default relative tolerance.
    cfg = SolverConfig(grad_tolerance=1e-12)
    for dim in (2, 3, 4):
        sample = rng.standard_normal((500, dim))
        alpha = _random_indices(rng, 1, dim, max_norm=0.8)[0]
        base = geometric_expectile(sample, alpha, cfg).argmin
        # translation
        shift = rng.standard_normal(dim) * 5.0
        moved = geometric_expectile(sample + shift, alpha, cfg).argmin
        assert np.linalg.norm(moved - base - shift) <= 1e-6
        # positive scaling
        for sigma in (0.1, 3.0, 100.0):
            scaled = geometric_expectile(sigma * sample, alpha, cfg).argmin
            assert np.linalg.norm(scaled - sigma * base) <= 1e-6 * max(1.0, sigma)
        # random orthogonal rotation
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        rotated = geometric_expectile(sample @ q.T, q @ alpha, cfg).argmin
        assert np.linalg.norm(rotated - q @ base) <= 1e-6
        # vector sign symmetry
        flipped = geometric_expectile(-sample, -alpha, cfg).argmin
        assert np.linalg.norm(flipped + base) <= 1e-6
        # index sign symmetry on a centrally symmetrized sample
        sym = np.vstack([sample, -sample])
        plus = geometric_expectile(sym, alpha, cfg).argmin
        minus = geometric_expectile(sym, -alpha, cfg).argmin
        assert np.linalg.norm((plus + minus) / 2.0) <= 1e-6
    _report(4, 30.0, t0, "translation/scale/rotation/sign and index-sign symmetry, d in {2,3,4}")


def test_criterion_05_analytic_uniform_oracle(uniform_100k):
    t0 = time.perf_counter()
    rng = substream(1405, "c5")
    box = UniformBox(0.0, 1.0, 0.0, 1.0)
    worst = 0.0
    for alpha in _random_indices(rng, 20, 2, max_norm=0.85):
        exact = uniform_expectile(box, alpha)
        est = geometric_expectile(uniform_100k, alpha)
        assert exact.converged and est.converged
        gap = np.max(np.abs(exact.argmin - est.argmin))
        worst = max(worst, float(gap))
        assert gap <= 0.02
    for _ in range(5):
        alpha = _random_indices(rng, 1, 2, max_norm=0.85)[0]
        c = rng.uniform(-0.5, 1.5, 2)
        vals = expectile_loss(alpha, uniform_100k - c)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert uniform_expected_loss(box, alpha, c) == pytest.approx(
            float(vals.mean()), abs=4.0 * se
        )
    _report(5, 120.0, t0, f"20 random indices, worst componentwise gap {worst:.4f} <= 0.02; objective within 4 SE")


def test_criterion_06_copula_calibration():
    t0 = time.perf_counter()
    n = 100_000
    crit_1pct = 1.63 / np.sqrt(n)
    for name, cop in (
        ("clayton5", ClaytonCopula(5.0, 2)),
        ("gumbel2", GumbelCopula(2.0, 2)),
        ("frank3", FrankCopula(3.0, 2)),
    ):
        u = cop.sample(n, substream(1406, f"c6-{name}"))
        emp = stats.kendalltau(u[:, 0], u[:, 1]).statistic
        assert abs(emp - cop.kendall_tau()) <= 0.015
        for j in (0, 1):
            assert stats.kstest(u[:, j], "uniform").statistic <= crit_1pct
    _report(6, 60.0, t0, "Kendall tau within 0.015 and marginal KS at 1% for Clayton(5)/Gumbel(2)/Frank(3)")


def test_criterion_07_subadditivity_regions(z4_20k):
    t0 = time.perf_counter()
    x, y = z4_20k[:, :2], z4_20k[:, 2:]
    exp = subadditivity_sets(x, y, r=0.2, measure="expectile", n_phi=64)
    assert exp.curve_sum.all_converged and exp.curve_add.all_converged
    assert exp.included is True
    var = subadditivity_sets(x, y, r=0.2, measure="var", n_phi=64)
    assert var.curve_sum.all_converged and var.curve_add.all_converged
    assert var.included is False
    _report(7, 300.0, t0, "n=20000, r=0.2, n_phi=64: expectile locus included, quantile locus not")


def test_criterion_08_marginalization_inclusion(z4_20k):
    t0 = time.perf_counter()
    res = marginalization_curves(z4_20k[:, :3], r=0.1, n_phi=64)
    assert res.margin_curve.all_converged
    assert all(c.all_converged for c in res.full_curves)
    assert res.inclusion_i4 is True
    _report(8, 300.0, t0, "margin curve contained in the mid-height full curve at r=0.1, n=20000")


def test_criterion_09_conservativeness(x1_sample_10k):
    t0 = time.perf_counter()
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    gaps = []
    for theta in np.arange(0.1, 0.95, 0.1):
        m_star, _, converged = match_magnitude(x1_sample_10k, u, float(theta))
        assert converged, f"a solve of m*({theta:.1f}) did not converge"
        assert m_star < theta, f"m*({theta:.1f}) = {m_star:.4f} not below theta"
        gaps.append(theta - m_star)
    rows = compare_univariate(x1_sample_10k, [0.8, 0.9, 0.95, 0.99])
    for row in rows:
        assert row.converged
        assert row.geometric_expectile_first >= row.univariate_expectile
        assert row.geometric_var_first >= row.univariate_var
    _report(9, 180.0, t0,
            f"m* below theta on {{0.1..0.9}} (min gap {min(gaps):.3f}); multivariate first components dominate at 4 levels")


def test_criterion_10_distance_curve_monotone(frank4_20k):
    t0 = time.perf_counter()
    direction = -np.ones(4) / 2.0
    grid = np.round(np.arange(0.0, 0.9999, 0.01), 10)
    assert grid[-1] == pytest.approx(0.99)
    res = distance_curve(frank4_20k, direction, grid)
    assert np.all(res.converged)
    assert res.distances[0] <= 1e-6
    drops = np.diff(res.distances)
    assert np.all(drops >= -1e-3)
    _report(10, 300.0, t0,
            f"d(0) = {res.distances[0]:.2e}; max decrease {max(0.0, float(-drops.min())):.2e} within 1e-3 slack")


def test_criterion_11_bounded_support():
    t0 = time.perf_counter()
    sample = ClaytonCopula(5.0, 2).sample(20_000, substream(1411, "c11"))
    rows = bounded_support_check(sample, r_list=(0.1, 0.5, 0.99999), n_phi=64)
    by_r = {row.r: row for row in rows}
    assert by_r[0.1].exits_support is False
    assert by_r[0.99999].exits_support is True
    assert all(row.all_converged for row in rows)
    _report(11, 120.0, t0, "uniform-margin expectile curve inside [0,1]^2 at r=0.1, outside at r=0.99999")


def test_criterion_12_compound_poisson():
    t0 = time.perf_counter()
    model = get_preset("cp-paper")
    s = simulate_compound(model, 100_000, substream(1412, "c12-means"))
    for j, target in enumerate((10.0, 15.0)):
        se = s[:, j].std(ddof=1) / np.sqrt(len(s))
        assert abs(s[:, j].mean() - target) <= 4.0 * se
    small = simulate_compound(model, 100, substream(1412, "c12-curve"))
    curve = trace_curve(small, QuarterCirclePath(0.98, 8))
    assert curve.points.shape == (8, 2)
    assert np.all(np.isfinite(curve.points))
    # VaR minimizers of this atomic sample often sit on a data atom; each one
    # must be certified, by the gradient test or the subdifferential test
    path = CirclePath(0.5, 64)
    var_curve = trace_curve(small, path, "var")
    assert var_curve.all_converged
    tol = SolverConfig().grad_tolerance
    for u, c in zip(path.indices()[1], var_curve.points):
        g = float(np.linalg.norm(empirical_objective_grad(small, u, c, "quantile")))
        atoms = int(np.count_nonzero(np.all(small == c, axis=1)))
        value = empirical_objective(small, u, c, "quantile")
        assert g - 0.5 * atoms / len(small) <= tol * (1.0 + abs(value))
    _report(12, 60.0, t0, "column means within 4 SE of (10, 15); 8 finite quarter-circle points "
            "and 64 optimal VaR circle points at n=100")


def test_criterion_13_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    runs = [
        ["simulate", "--model", "X4", "--n", "800", "--seed", "5"],
        ["expectile", "--model", "X3", "--n", "800", "--seed", "5", "--alpha", "0.3,0.2"],
        ["var", "--model", "X2", "--n", "800", "--seed", "5", "--level", "0.95"],
        ["curve", "--model", "X1", "--n", "600", "--seed", "5", "--path", "circle:0.9",
         "--nphi", "8"],
        ["subadd", "--model", "Z-clayton5", "--n", "800", "--seed", "5", "--r", "0.2",
         "--nphi", "6"],
        ["compare-uni", "--model", "X1", "--n", "800", "--seed", "5"],
        ["match-magnitude", "--model", "X1", "--n", "600", "--seed", "5",
         "--direction", "1,1", "--theta", "0.4"],
        ["marginalize", "--model", "Z-clayton5", "--n", "600", "--seed", "5",
         "--r", "0.1", "--nphi", "6"],
        ["distance", "--model", "frank3-4d", "--n", "600", "--seed", "5",
         "--direction=-1,-1,-1,-1", "--r-grid", "0:0.3:0.1"],
        ["bounded-support", "--n", "600", "--seed", "5", "--r-list", "0.1,0.9",
         "--nphi", "6"],
        ["uniform-analytic", "--box", "0,1,0,1", "--alpha", "0.4,0.2"],
    ]
    for i, args in enumerate(runs):
        out_a = tmp_path / f"a{i}.csv"
        out_b = tmp_path / f"b{i}.csv"
        assert cli_main([*args, "--out", str(out_a)]) == 0, args
        assert cli_main([*args, "--out", str(out_b)]) == 0, args
        assert out_a.read_bytes() == out_b.read_bytes(), f"non-deterministic: {args}"
    _report(13, 60.0, t0, f"{len(runs)} subcommands byte-identical across repeat runs")
