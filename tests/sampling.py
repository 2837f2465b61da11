"""Copula draws for the tests, through the package's one sampler.

A copula only describes its law; ``copula_sample`` draws from it with
``simulate`` on uniform margins, whose quantile is the identity, so the
values are the copula's own.  ``fresh_fill`` is the reference that
``simulate`` is checked against: the copula's ``_fill`` into fresh memory,
clipped to the floor that ``simulate`` applies.
"""

from __future__ import annotations

import numpy as np

from geomrisk import JointModel, Uniform, models, simulate


def copula_sample(copula, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` draws of ``copula``: a Fortran-ordered (count, dim) array."""
    return simulate(JointModel((Uniform(),) * int(copula.dim), copula), count, rng)


def fresh_fill(copula, count: int, rng: np.random.Generator) -> np.ndarray:
    """``copula._fill`` into a new C-ordered (count, dim) array, clipped as ``simulate`` clips."""
    out = np.empty((int(count), int(copula.dim)))
    copula._fill(out, rng, np.empty(out.size))
    np.clip(out, models._UNIT_LO, models._UNIT_HI, out=out)
    return out
