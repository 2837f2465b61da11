"""Workload definitions: each workload is a list of CLI argument vectors.

Every op is one ``geomrisk`` subcommand that simulates its own sample from
``--model``/``--seed``.  All op seeds and index vectors derive from the
workload seed, so the same seed always yields the same op list.  No op
passes ``--threads``; the runner keeps ``GEOMRISK_THREADS`` unset, so every
op runs single-threaded.

This module imports nothing from numpy or geomrisk: building the op list is
part of the measured set-up time, and must stay cheap and side-effect free.
"""

from __future__ import annotations

import math
import random

WHY = {
    "paper-paths": "the paper's curve, subadditivity, marginalization and "
    "bounded-support runs at preset sizes: ~1,300 warm-started solves, "
    "loss kernel ~93% of time",
    "atoms-small": "cp-paper at n = 100 over 16 seeds: per-call overhead, "
    "solver loop and stop rule, VaR minimizers on data atoms",
    "cold-single": "72 one-shot expectile/var ops over six presets: CLI "
    "parsing, simulation, validation and cold starts dominate",
}

WORKLOADS = tuple(WHY)

# cold-single: presets, their dimension, and the index magnitudes it samples
_COLD_MODELS = (("X1", 2), ("X2", 2), ("X3", 2), ("X4", 2), ("Z-clayton5", 4), ("frank3-4d", 4))
_COLD_NORMS = (0.5, 0.9, 0.98)
_COLD_OPS = 72
_ATOM_SEEDS = 16


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash through SHA-512, so the stream is stable across runs and platforms
    return random.Random(f"{workload}:{int(seed)}")


def _op_seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


def _paper_paths(rng: random.Random) -> list[list[str]]:
    s_curve, s_subadd, s_marg, s_bounded = (_op_seed(rng) for _ in range(4))
    ops = []
    for measure in ("expectile", "var"):
        ops.append(["curve", "--model", "X3", "--path", "circle:0.98", "--nphi", "64",
                    "--measure", measure, "--seed", s_curve])
    for measure in ("expectile", "var"):
        ops.append(["subadd", "--model", "Z-clayton5", "--r", "0.2", "--nphi", "64",
                    "--measure", measure, "--seed", s_subadd])
    ops.append(["marginalize", "--model", "Z-clayton5", "--r", "0.1", "--nphi", "64",
                "--seed", s_marg])
    ops.append(["bounded-support", "--nphi", "16", "--seed", s_bounded])
    return ops


def _atoms_small(rng: random.Random) -> list[list[str]]:
    ops = []
    for _ in range(_ATOM_SEEDS):
        seed = _op_seed(rng)
        base = ["--model", "cp-paper", "--seed", seed]
        ops.append(["curve", *base, "--path", "circle:0.5", "--measure", "var"])
        ops.append(["curve", *base, "--path", "circle:0.9", "--measure", "var"])
        ops.append(["curve", *base, "--path", "circle:0.9", "--measure", "expectile"])
        ops.append(["compare-uni", *base])
        ops.append(["var", *base, "--alpha=0,0"])
    return ops


def _cold_single(rng: random.Random) -> list[list[str]]:
    ops = []
    for i in range(_COLD_OPS):
        model, dim = _COLD_MODELS[i % len(_COLD_MODELS)]
        measure = ("expectile", "var")[(i // len(_COLD_MODELS)) % 2]
        norm = _COLD_NORMS[(i // (2 * len(_COLD_MODELS))) % len(_COLD_NORMS)]
        direction = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        length = math.sqrt(sum(v * v for v in direction))
        alpha = ",".join(repr(norm * v / length) for v in direction)
        ops.append([measure, "--model", model, "--seed", _op_seed(rng), f"--alpha={alpha}"])
    return ops


_BUILDERS = {
    "paper-paths": _paper_paths,
    "atoms-small": _atoms_small,
    "cold-single": _cold_single,
}


def build(workload: str, seed: int) -> list[list[str]]:
    """The op list of ``workload`` for workload seed ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](_rng(workload, seed))
