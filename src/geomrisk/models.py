"""Joint models: margins glued by a copula, plus compound Poisson vectors.

A ``JointModel`` simulates by pushing copula columns through the margin
quantile functions, so a fixed generator yields reproducible samples.
``CompoundPoissonModel`` builds per-period claim totals
``X = sum_{k <= N} E_k`` with ``N ~ Poisson(claim_rate)`` and iid severity
vectors ``E_k`` drawn from a joint severity model.

``substream`` derives independent, named RNG streams from one root seed
so that separate pipeline stages never share random state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .copulas import (
    ClaytonCopula,
    CopulaSpec,
    FrankCopula,
    GumbelCopula,
    IndependenceCopula,
)
from .distributions import (
    Exponential,
    Gumbel,
    Logistic,
    MarginSpec,
    Normal,
    SkewNormal,
    StudentT,
)

__all__ = [
    "JointModel",
    "CompoundPoissonModel",
    "simulate",
    "simulate_compound",
    "model_mean",
    "substream",
    "PRESETS",
    "PRESET_DEFAULT_N",
    "get_preset",
]


@dataclass(frozen=True)
class JointModel:
    """d margins coupled by a d-dimensional copula.

    Construction rejects margins and copulas of unknown type, so
    :func:`simulate` and :func:`model_mean` call their methods unchecked.
    """

    margins: tuple[MarginSpec, ...]
    copula: CopulaSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "margins", tuple(self.margins))
        for margin in self.margins:
            if not isinstance(margin, MarginSpec):
                raise ValueError(f"unknown margin type: {type(margin).__name__}")
        if not isinstance(self.copula, CopulaSpec):
            raise ValueError(f"unknown copula type: {type(self.copula).__name__}")
        if len(self.margins) == 0:
            raise ValueError("JointModel requires at least one margin")
        if len(self.margins) != int(self.copula.dim):
            raise ValueError(
                f"margin count {len(self.margins)} does not match copula dimension {self.copula.dim}"
            )

    @property
    def dim(self) -> int:
        return len(self.margins)


@dataclass(frozen=True)
class CompoundPoissonModel:
    """Vector of compound Poisson sums sharing one claim-count process.

    ``claim_rate`` is the expected number of claims per period; each
    claim contributes one severity vector from ``severity``.  Periods
    with zero claims contribute the zero vector.
    """

    claim_rate: float
    severity: JointModel

    def __post_init__(self) -> None:
        if not (self.claim_rate > 0.0 and np.isfinite(self.claim_rate)):
            raise ValueError("CompoundPoissonModel requires claim_rate > 0")

    @property
    def dim(self) -> int:
        return self.severity.dim


def simulate(model: JointModel, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` rows from ``model`` by inverse-transforming copula columns."""
    if not isinstance(model, JointModel):
        raise ValueError("simulate expects a JointModel; use simulate_compound for claims")
    if int(count) < 0:
        raise ValueError("count must be nonnegative")
    u = model.copula.sample(int(count), rng)
    out = np.empty((int(count), model.dim), dtype=float)
    for j, margin in enumerate(model.margins):
        out[:, j] = margin.quantile(u[:, j]) if count else 0.0
    return out


def _poisson_counts(rate: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Poisson counts by inversion with sequential search (intended for rate <= 30)."""
    u = rng.random(count)
    p = np.full(count, np.exp(-rate))
    cdf = p.copy()
    k = np.zeros(count, dtype=np.int64)
    active = (u > cdf) & (p > 0.0)
    while np.any(active):
        k[active] += 1
        p[active] *= rate / k[active]
        cdf[active] += p[active]
        # p underflowing to 0 means u sits beyond fp-representable mass: stop there
        active = (u > cdf) & (p > 0.0)
    return k


def simulate_compound(
    model: CompoundPoissonModel, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` per-period compound Poisson vectors from ``model``."""
    if not isinstance(model, CompoundPoissonModel):
        raise ValueError("simulate_compound expects a CompoundPoissonModel")
    if int(count) < 0:
        raise ValueError("count must be nonnegative")
    count = int(count)
    claims = _poisson_counts(model.claim_rate, count, rng)
    total = int(claims.sum())
    severities = simulate(model.severity, total, rng)
    out = np.zeros((count, model.dim), dtype=float)
    if total:
        np.add.at(out, np.repeat(np.arange(count), claims), severities)
    return out


def model_mean(model: JointModel | CompoundPoissonModel) -> np.ndarray:
    """Population mean vector; Wald's identity for compound Poisson models."""
    if isinstance(model, JointModel):
        return np.array([m.mean() for m in model.margins], dtype=float)
    if isinstance(model, CompoundPoissonModel):
        return model.claim_rate * model_mean(model.severity)
    raise ValueError(f"unknown model type: {type(model).__name__}")


def substream(root_seed: int, stage: str) -> np.random.Generator:
    """Named child generator of a root seed.

    The child is seeded with ``SeedSequence([root_seed, h])`` where ``h``
    is the first 8 bytes (big endian) of SHA-256 of the stage name, so
    distinct stage names give independent streams and the mapping is
    stable across runs and platforms.
    """
    if not isinstance(stage, str) or not stage:
        raise ValueError("stage must be a nonempty string")
    h = int.from_bytes(hashlib.sha256(stage.encode("utf-8")).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([int(root_seed), h]))


PRESETS: dict[str, JointModel | CompoundPoissonModel] = {
    # bivariate test models: normal / skew-normal + t4 margins,
    # independent or Gumbel(2) coupled
    "X1": JointModel((Normal(), Normal()), IndependenceCopula(2)),
    "X2": JointModel((SkewNormal(-1.0, 1.0, 2.0), StudentT(4.0)), IndependenceCopula(2)),
    "X3": JointModel((Normal(), Normal()), GumbelCopula(2.0, 2)),
    "X4": JointModel((SkewNormal(-1.0, 1.0, 2.0), StudentT(4.0)), GumbelCopula(2.0, 2)),
    # 4-dimensional mixed-margin models
    "Z-clayton5": JointModel(
        (Gumbel(), StudentT(4.0), Logistic(), Normal()), ClaytonCopula(5.0, 4)
    ),
    "frank3-4d": JointModel(
        (Gumbel(), StudentT(4.0), Logistic(), Normal()), FrankCopula(3.0, 4)
    ),
    # bivariate insurance portfolio: one claim-count process, Clayton(0.9)
    # dependent exponential severities with means 10 and 15
    "cp-paper": CompoundPoissonModel(
        1.0,
        JointModel((Exponential(1.0 / 10.0), Exponential(1.0 / 15.0)), ClaytonCopula(0.9, 2)),
    ),
}

# default sample size per preset; the CLI uses these when --n is omitted
PRESET_DEFAULT_N: dict[str, int] = {
    "X1": 10_000,
    "X2": 10_000,
    "X3": 10_000,
    "X4": 10_000,
    "Z-clayton5": 20_000,
    "frank3-4d": 20_000,
    "cp-paper": 100,
}


def get_preset(name: str) -> JointModel | CompoundPoissonModel:
    """Look up a named model preset; raises ValueError with the known names."""
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r}; known presets: {known}") from None
