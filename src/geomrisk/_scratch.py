"""Per-thread scratch buffers, reused by the sampler and the solver from one call to the next.

Besides the (n, d) sample it returns, a one-shot solve needs arrays of about
n d floats: the draws and a spare array (:func:`geomrisk.models.simulate`,
which lends the spare to the copula, :meth:`geomrisk.estimators._Prepared.nearest_atom`)
and the solver's pass state (:class:`geomrisk.losses._PassState`).
Allocated afresh on every call, each is a fresh run of pages that the
allocator faults in and hands back to the system.  Instead each thread
keeps the buffers it was handed, one per name and shape, so a call of a
shape seen before reuses its buffers.  Retention is bounded: a thread keeps
at most ``_KEEP_BYTES`` (16 MiB) of buffers, dropping the least recently
used first, and a buffer larger than that is made but not kept.  At the
presets' sizes the buffers of one shape take 0.7 MB (n = 10k, d = 2) or
2.4 MB (n = 20k, d = 4).  Only memory is reused, never values: every user
writes a buffer before it reads it, and each solve claims the pass state
(:func:`geomrisk.estimators._objective_closures`).  Other threads get
buffers of their own.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

_KEEP_BYTES = 16 << 20
_HELD = threading.local()


def buffer(name: str, make, *shape):
    """The calling thread's ``name`` buffer ``make(*shape)``, made on the first call of this shape."""
    held = getattr(_HELD, "buffers", None)
    if held is None:
        held = _HELD.buffers = OrderedDict()
    key = (name, shape)
    found = held.get(key)
    if found is not None:
        held.move_to_end(key)
        return found
    made = make(*shape)
    if made.nbytes <= _KEEP_BYTES:
        held[key] = made
        total = sum(b.nbytes for b in held.values())
        while total > _KEEP_BYTES:
            _, dropped = held.popitem(last=False)
            total -= dropped.nbytes
    return made


def spare(size: int) -> np.ndarray:
    """The calling thread's spare 1-D buffer of ``size`` floats."""
    return buffer("spare", np.empty, size)
