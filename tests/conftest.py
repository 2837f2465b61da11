"""Shared fixtures: deterministic samples reused across test modules."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from geomrisk import estimators, get_preset, simulate, substream


@pytest.fixture(scope="session")
def rng_factory():
    """Factory for named deterministic generators, one stream per purpose."""

    def make(stage: str) -> np.random.Generator:
        return substream(20260825, stage)

    return make


@pytest.fixture(scope="session")
def x1_sample_10k(rng_factory) -> np.ndarray:
    """Independent bivariate standard normal sample, n = 10_000."""
    return simulate(get_preset("X1"), 10_000, rng_factory("x1-10k"))


@pytest.fixture(scope="session")
def symmetric_sample(rng_factory) -> np.ndarray:
    """Centrally symmetrized 2-D sample: rows come in (+z, -z) pairs plus a shift."""
    half = rng_factory("symmetric").standard_normal((400, 2)) * np.array([1.0, 0.7])
    centered = np.vstack([half, -half])
    return centered + np.array([0.5, -1.5])


@pytest.fixture
def solver_calls(monkeypatch) -> list[dict]:
    """Route ``estimators.minimize_convex`` through a wrapper that binds ``fun``
    and ``grad`` by name, as a profiler would, and counts their calls.  Each
    call appends a record: the closures received, the pass counts, the
    points each pass was asked for, the number of fresh pass states (calls
    of ``estimators._pass_state``, the state function the closures look
    up by name), the private curvature state with a copy of its ``h_inv``
    on entry and on exit, and the result of the real solver."""
    real = estimators.minimize_convex
    signature = inspect.signature(real)
    calls = []
    fresh = [0]
    real_state = estimators._pass_state

    def counted_state(*args, **kwargs):
        fresh[0] += 1
        return real_state(*args, **kwargs)

    monkeypatch.setattr(estimators, "_pass_state", counted_state)

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        curvature = bound.arguments.get("_curvature")
        h_inv = None if curvature is None else curvature.h_inv
        record = {"closures": (bound.arguments["fun"], bound.arguments["grad"]),
                  "fun": 0, "grad": 0, "grad_points": [], "points": [],
                  "curvature": curvature,
                  "h_inv_in": None if h_inv is None else h_inv.copy()}

        def counted(name, f):
            def kernel_pass(x):
                record[name] += 1
                record["points"].append(np.array(x))
                if name == "grad":
                    record["grad_points"].append(np.array(x))
                return f(x)
            return kernel_pass

        bound.arguments["fun"] = counted("fun", bound.arguments["fun"])
        bound.arguments["grad"] = counted("grad", bound.arguments["grad"])
        before = fresh[0]
        record["result"] = real(*bound.args, **bound.kwargs)
        record["states"] = fresh[0] - before
        h_inv = None if curvature is None else curvature.h_inv
        record["h_inv_out"] = None if h_inv is None else h_inv.copy()
        calls.append(record)
        return record["result"]

    monkeypatch.setattr(estimators, "minimize_convex", wrapper)
    return calls
