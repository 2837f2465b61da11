"""Joint and compound models: preset definitions, simulation laws (moment and
rank-correlation oracles), the compound Poisson aggregator, and the seeded
substream rule."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

import geomrisk.models as models_module

from geomrisk import _scratch
from geomrisk import (
    ClaytonCopula,
    CompoundPoissonModel,
    Exponential,
    FrankCopula,
    GumbelCopula,
    IndependenceCopula,
    JointModel,
    Normal,
    PRESET_DEFAULT_N,
    PRESETS,
    get_preset,
    model_mean,
    simulate,
    simulate_compound,
    substream,
)


# ---------------------------------------------------------------------------
# presets

def test_preset_catalog():
    assert set(PRESETS) == {"X1", "X2", "X3", "X4", "Z-clayton5", "frank3-4d", "cp-paper"}
    assert set(PRESET_DEFAULT_N) == set(PRESETS)
    for name in ("X1", "X2", "X3", "X4"):
        model = get_preset(name)
        assert isinstance(model, JointModel)
        assert len(model.margins) == 2
    assert len(get_preset("Z-clayton5").margins) == 4
    assert len(get_preset("frank3-4d").margins) == 4
    assert isinstance(get_preset("cp-paper"), CompoundPoissonModel)


def test_get_preset_unknown_name():
    with pytest.raises(ValueError):
        get_preset("nope")


def test_x1_is_independent_standard_normal():
    model = get_preset("X1")
    assert all(isinstance(m, Normal) for m in model.margins)
    assert isinstance(model.copula, IndependenceCopula)
    np.testing.assert_allclose(model_mean(model), [0.0, 0.0], atol=0.0)


def test_x3_uses_gumbel_dependence():
    model = get_preset("X3")
    assert isinstance(model.copula, GumbelCopula)
    assert model.copula.theta == 2.0


def test_cp_paper_structure():
    model = get_preset("cp-paper")
    assert model.claim_rate == 1.0
    assert isinstance(model.severity.copula, ClaytonCopula)
    assert model.severity.copula.theta == pytest.approx(0.9)
    np.testing.assert_allclose(model_mean(model), [10.0, 15.0], atol=0.0)


# ---------------------------------------------------------------------------
# simulation laws

def test_x1_sample_moments(x1_sample_10k):
    n = 100_000
    s = simulate(get_preset("X1"), n, substream(31, "x1-moments"))
    np.testing.assert_allclose(s.mean(axis=0), [0.0, 0.0], atol=0.02)
    np.testing.assert_allclose(s.var(axis=0, ddof=1), [1.0, 1.0], atol=0.03)
    assert x1_sample_10k.shape == (10_000, 2)


def test_x2_first_margin_mean():
    model = get_preset("X2")
    target = model.margins[0].mean()
    assert target == pytest.approx(-1.0 + (2.0 / np.sqrt(5.0)) * np.sqrt(2.0 / np.pi), rel=1e-10)
    s = simulate(model, 100_000, substream(32, "x2-mean"))
    se = s[:, 0].std(ddof=1) / np.sqrt(len(s))
    assert abs(s[:, 0].mean() - target) <= 4.0 * se


def test_x3_dependence_calibration():
    s = simulate(get_preset("X3"), 100_000, substream(33, "x3-tau"))
    emp = stats.kendalltau(s[:, 0], s[:, 1]).statistic
    assert emp == pytest.approx(0.5, abs=0.015)


def test_simulate_is_deterministic():
    model = get_preset("X4")
    a = simulate(model, 500, substream(34, "det"))
    b = simulate(model, 500, substream(34, "det"))
    np.testing.assert_array_equal(a, b)
    c = simulate(model, 500, substream(35, "det"))
    assert not np.array_equal(a, c)


_JOINT = {name: model for name, model in PRESETS.items() if isinstance(model, JointModel)}
_JOINT["cp-paper-severity"] = PRESETS["cp-paper"].severity
_JOINT["frank-negative"] = JointModel((Normal(), Exponential(2.0)), FrankCopula(-4.0, 2))


@pytest.mark.parametrize("count", [0, 1, 2_000])
@pytest.mark.parametrize("name", list(_JOINT))
def test_simulate_is_the_margin_quantiles_of_the_copula_sample(name, count):
    # simulate draws through a per-thread scratch, fills contiguous rows and
    # returns a transposed block; the values are still those of the public
    # copula sample pushed through each margin's quantile, bit for bit, and
    # a second call, which reuses the scratch, draws the next values afresh
    model = _JOINT[name]
    rng_a, rng_b = np.random.default_rng(17), np.random.default_rng(17)
    for _ in range(2):
        got = simulate(model, count, rng_a)
        u = model.copula.sample(count, rng_b)
        assert u.flags.c_contiguous and u.flags.owndata
        assert got.shape == (count, model.dim)
        assert got.flags.f_contiguous and got.T.flags.c_contiguous
        for j, margin in enumerate(model.margins):
            assert got[:, j].tobytes() == margin.quantile(u[:, j]).tobytes(), (name, j)


def test_samples_are_fresh_arrays():
    # the arrays handed out never share memory with each other or with the
    # buffers the sampler reuses
    model = get_preset("Z-clayton5")
    rng = substream(36, "fresh")
    first, second = simulate(model, 300, rng), simulate(model, 300, rng)
    u, v = model.copula.sample(300, rng), model.copula.sample(300, rng)
    arrays = (first, second, u, v)
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    held = [b for b in _scratch._HELD.buffers.values() if isinstance(b, np.ndarray)]
    assert held and not any(np.shares_memory(a, b) for a in arrays for b in held)


def test_model_mean_matches_margin_means():
    model = get_preset("Z-clayton5")
    np.testing.assert_allclose(
        model_mean(model), [m.mean() for m in model.margins], atol=0.0
    )


# ---------------------------------------------------------------------------
# compound Poisson

def test_compound_means_within_four_se():
    model = get_preset("cp-paper")
    n = 100_000
    s = simulate_compound(model, n, substream(36, "cp-means"))
    assert s.shape == (n, 2)
    for j, target in enumerate((10.0, 15.0)):
        se = s[:, j].std(ddof=1) / np.sqrt(n)
        assert abs(s[:, j].mean() - target) <= 4.0 * se


def test_compound_variance_matches_poisson_second_moment():
    # For a compound Poisson sum, Var = rate * E[Y^2]; Y ~ Exp(0.1) gives 200.
    model = get_preset("cp-paper")
    n = 100_000
    s = simulate_compound(model, n, substream(37, "cp-var"))
    x = s[:, 0]
    s2 = x.var(ddof=1)
    m4 = np.mean((x - x.mean()) ** 4)
    se = np.sqrt(max(m4 - s2 * s2, 0.0) / n)
    assert abs(s2 - 200.0) <= 4.0 * se


def test_compound_zero_claim_fraction():
    # P(no claims) = exp(-rate) = exp(-1); both columns are zero together.
    model = get_preset("cp-paper")
    n = 100_000
    s = simulate_compound(model, n, substream(38, "cp-zeros"))
    frac = float(np.mean(np.all(s == 0.0, axis=1)))
    target = np.exp(-1.0)
    se = np.sqrt(target * (1.0 - target) / n)
    assert abs(frac - target) <= 4.0 * se


def test_compound_rows_are_nonnegative_and_dependent():
    model = get_preset("cp-paper")
    s = simulate_compound(model, 50_000, substream(39, "cp-dep"))
    assert np.all(s >= 0.0)
    nz = s[np.any(s > 0.0, axis=1)]
    # Clayton(0.9) claim dependence plus the shared count makes columns comonotone-ish.
    assert stats.kendalltau(nz[:, 0], nz[:, 1]).statistic > 0.2


def test_tiny_rate_gives_almost_all_zero_rows():
    model = CompoundPoissonModel(1e-9, get_preset("cp-paper").severity)
    s = simulate_compound(model, 100, substream(40, "cp-tiny"))
    assert int(np.sum(np.any(s != 0.0, axis=1))) <= 1


def test_claim_rate_validation():
    with pytest.raises(ValueError):
        CompoundPoissonModel(0.0, get_preset("cp-paper").severity)
    with pytest.raises(ValueError):
        CompoundPoissonModel(-2.0, get_preset("cp-paper").severity)
    # exp(-rate) underflows past ~708.396 and every count would read 0
    for rate in (709.0, 750.0, 1000.0, np.inf):
        with pytest.raises(ValueError, match="claim_rate <= 708.396"):
            CompoundPoissonModel(rate, get_preset("cp-paper").severity)


def test_largest_claim_rate_draws_its_mean():
    model = CompoundPoissonModel(708.0, get_preset("cp-paper").severity)
    counts = models_module._poisson_counts(model.claim_rate, 20_000, substream(41, "cp-max"))
    assert abs(counts.mean() - 708.0) <= 4.0 * np.sqrt(708.0 / 20_000)


def test_compound_severity_must_be_a_joint_model():
    with pytest.raises(ValueError, match="severity must be a JointModel"):
        CompoundPoissonModel(1.0, get_preset("cp-paper"))


def test_joint_model_dimension_validation():
    with pytest.raises(ValueError):
        JointModel((Normal(0, 1),), IndependenceCopula(2))
    # types are checked before the dimension: a count mismatch reports the type
    with pytest.raises(ValueError, match="unknown margin type: str"):
        JointModel(("normal",), IndependenceCopula(2))
    with pytest.raises(ValueError, match="unknown copula type: dict"):
        JointModel((Normal(), Normal()), {"type": "gumbel", "dim": 2})


# ---------------------------------------------------------------------------
# substream rule

def test_substream_determinism_and_separation():
    a = substream(123, "stage-a").standard_normal(8)
    b = substream(123, "stage-a").standard_normal(8)
    np.testing.assert_array_equal(a, b)
    c = substream(123, "stage-b").standard_normal(8)
    d = substream(124, "stage-a").standard_normal(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# ---------------------------------------------------------------------------
# every check that no test above reaches: id -> (call, exception, message)

_REJECTED = {
    "joint-without-margins": (lambda: JointModel((), IndependenceCopula(1)), ValueError,
                              "JointModel requires at least one margin"),
    "simulate-compound-model": (lambda: simulate(get_preset("cp-paper"), 5, substream(1, "r")),
                                ValueError,
                                "simulate expects a JointModel; use simulate_compound for claims"),
    "simulate-negative-count": (lambda: simulate(get_preset("X1"), -1, substream(1, "r")),
                                ValueError, "count must be nonnegative"),
    "compound-joint-model": (lambda: simulate_compound(get_preset("X1"), 5, substream(1, "r")),
                             ValueError, "simulate_compound expects a CompoundPoissonModel"),
    "compound-negative-count": (
        lambda: simulate_compound(get_preset("cp-paper"), -1, substream(1, "r")),
        ValueError,
        "count must be nonnegative",
    ),
    "mean-unknown-model": (lambda: model_mean("X1"), ValueError, "unknown model type: str"),
    "substream-empty-stage": (lambda: substream(1, ""), ValueError,
                              "stage must be a nonempty string"),
}


@pytest.mark.parametrize("call, error, message", _REJECTED.values(), ids=_REJECTED.keys())
def test_rejected_input_raises_its_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message
