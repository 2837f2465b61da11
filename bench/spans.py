"""Span tracing of geomrisk's layers, installed from outside the package.

The traced run replaces public names with wrappers that record a span
(name, start, end, parent, op id) around each call.  ``minimize_convex``'s
wrapper also wraps the ``fun``/``grad`` callables it receives; each kernel
pass is counted and timed on the ``minimize_convex`` span that made it,
not recorded as a span of its own, which keeps tracing cheap on small
samples.  Spans stay in memory.  A layer's self time is the duration of its
spans minus the time covered by their children (kernel passes included).

A hook whose target is missing, or which is called with a shape the wrapper
does not recognise, records that fact and calls straight through; the
metrics that depend on it are then reported as missing instead of wrong.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from dataclasses import dataclass, field

# (hook name, module, attribute, span group) for every wrapped public name
SOLVE_HOOKS = (
    ("cli.geometric_expectile", "geomrisk.cli", "geometric_expectile", "solve"),
    ("cli.geometric_var", "geomrisk.cli", "geometric_var", "solve"),
    ("experiments.geometric_expectile", "geomrisk.experiments", "geometric_expectile", "solve"),
    ("experiments.geometric_var", "geomrisk.experiments", "geometric_var", "solve"),
)
MODEL_HOOKS = (
    ("cli.simulate", "geomrisk.cli", "simulate", "models"),
    ("cli.simulate_compound", "geomrisk.cli", "simulate_compound", "models"),
)
EXPERIMENT_HOOKS = tuple(
    (f"cli.{attr}", "geomrisk.cli", attr, "experiments")
    for attr in ("trace_curve", "subadditivity_sets", "marginalization_curves",
                 "bounded_support_check", "compare_univariate")
)
SOLVER_HOOK = ("estimators.minimize_convex", "geomrisk.estimators", "minimize_convex",
               "minimize_convex")
HOOKS = SOLVE_HOOKS + MODEL_HOOKS + EXPERIMENT_HOOKS + (SOLVER_HOOK,)

# shape checks made inside wrappers; each can fail on its own
PASSES = "estimators.minimize_convex(fun, grad)"
SOLVE_ARGS = "solve(sample, alpha, config)"
SOLVE_RESULT = "solve -> .iterations/.converged/.argmin"
SOLVER_RESULT = "minimize_convex -> .iterations"
KERNEL_API = "estimators.empirical_objective(_grad)"

_SOLVE = tuple(h[0] for h in SOLVE_HOOKS)
_MODELS = tuple(h[0] for h in MODEL_HOOKS)
_EXPERIMENTS = tuple(h[0] for h in EXPERIMENT_HOOKS)
_PASSES = (SOLVER_HOOK[0], PASSES)

# every per-layer metric: unit and the hooks and shape checks it needs
METRICS = {
    "losses.fun_us_per_pass": ("us", _PASSES),
    "losses.grad_us_per_pass": ("us", _PASSES),
    "losses.fun_passes": ("count", _PASSES),
    "losses.grad_passes": ("count", _PASSES),
    "losses.passes_per_solve": ("count", _PASSES + _SOLVE),
    "losses.useful_ratio": ("ratio", _PASSES),
    "losses.share": ("frac", _PASSES),
    "losses.objective_us": ("us", _SOLVE + (SOLVE_ARGS, SOLVE_RESULT, KERNEL_API)),
    "losses.grad_us": ("us", _SOLVE + (SOLVE_ARGS, SOLVE_RESULT, KERNEL_API)),
    "estimators.solves": ("count", _SOLVE),
    "estimators.iters_per_solve": ("count", _SOLVE + (SOLVE_RESULT,)),
    "estimators.backtracks_per_solve": ("count", _PASSES + _SOLVE + (SOLVER_RESULT,)),
    "estimators.max_iter_hits": ("count", _SOLVE + (SOLVE_ARGS, SOLVE_RESULT)),
    "estimators.nonconverged": ("count", _SOLVE + (SOLVE_RESULT,)),
    "estimators.prep_ms_per_solve": ("ms", _SOLVE + (SOLVER_HOOK[0],)),
    "estimators.solver_self_s": ("s", _PASSES),
    "estimators.solve_ms_p50": ("ms", _SOLVE),
    "estimators.solve_ms_p90": ("ms", _SOLVE),
    "experiments.self_s": ("s", _EXPERIMENTS + _SOLVE),
    "experiments.share": ("frac", _EXPERIMENTS + _SOLVE),
    "models.simulate_ms_p50": ("ms", _MODELS),
    "models.share": ("frac", _MODELS),
    "cli.self_ms_per_op": ("ms", _MODELS + _EXPERIMENTS + _SOLVE),
    "trace.overhead_frac": ("frac", ()),
    "failed_frac": ("frac", ()),
}

_KINDS = {"geometric_expectile": "expectile", "geometric_var": "quantile"}


@dataclass(slots=True)
class Span:
    name: str
    group: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    # what the call returned (solve spans: (hook, fn, args, kwargs, result)); it is
    # only inspected after the traced pass, so inspection costs no traced time
    info: object = None
    # minimize_convex spans: [fun passes, fun seconds, grad passes, grad seconds]
    passes: list | None = None


@dataclass
class Tracer:
    """In-memory span recorder plus the hooks it could not install or match."""

    spans: list[Span] = field(default_factory=list)
    broken: dict[str, str] = field(default_factory=dict)
    op: int | None = None
    _stack: list[int] = field(default_factory=list, init=False, repr=False)

    def open(self, name: str, group: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, group, time.perf_counter(), parent=parent, op=self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, group: str, fn, *args, **kwargs):
        idx = self.open(name, group)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def mark(self, check: str, reason: str) -> None:
        self.broken.setdefault(check, reason)


def _signature(fn):
    try:
        return inspect.signature(fn)
    except (TypeError, ValueError):
        return None


def _bind(signature, args, kwargs):
    try:
        return signature.bind(*args, **kwargs)
    except (AttributeError, TypeError):
        return None


def _solve_wrapper(tracer: Tracer, hook: str, fn):
    def wrapper(*args, **kwargs):
        idx = tracer.open(fn.__name__, "solve")
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.spans[idx].info = (hook, fn, args, kwargs, result)
        return result

    return wrapper


def _counted(f, acc: list, col: int):
    """``f`` with its calls counted in ``acc[col]`` and timed in ``acc[col + 1]``."""
    def kernel_pass(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return f(*args, **kwargs)
        finally:
            acc[col] += 1
            acc[col + 1] += time.perf_counter() - t0

    return kernel_pass


def _solver_wrapper(tracer: Tracer, fn):
    signature = _signature(fn)

    def wrapper(*args, **kwargs):
        acc = None
        bound = _bind(signature, args, kwargs)
        if (bound is not None and callable(bound.arguments.get("fun"))
                and callable(bound.arguments.get("grad"))):
            acc = [0, 0.0, 0, 0.0]
            bound.arguments["fun"] = _counted(bound.arguments["fun"], acc, 0)
            bound.arguments["grad"] = _counted(bound.arguments["grad"], acc, 2)
            args, kwargs = bound.args, bound.kwargs
        else:
            tracer.mark(PASSES, f"minimize_convex called as {_shape(args, kwargs)}")
        idx = tracer.open(fn.__name__, "minimize_convex")
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.spans[idx].info = result
        tracer.spans[idx].passes = acc
        return result

    return wrapper


def _plain_wrapper(tracer: Tracer, group: str, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(fn.__name__, group, fn, *args, **kwargs)

    return wrapper


def _shape(args, kwargs) -> str:
    names = [type(a).__name__ for a in args] + [f"{k}=" for k in kwargs]
    return "(" + ", ".join(names) + ")"


def install(tracer: Tracer, hooks=HOOKS):
    """Wrap every hook target; returns a function that restores the originals."""
    restore = []
    for hook, module_name, attr, group in hooks:
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            tracer.mark(hook, f"cannot import {module_name}: {exc}")
            continue
        fn = getattr(module, attr, None)
        if not callable(fn):
            tracer.mark(hook, f"{module_name}.{attr} is missing")
            continue
        if group == "solve":
            wrapper = _solve_wrapper(tracer, hook, fn)
        elif group == "minimize_convex":
            wrapper = _solver_wrapper(tracer, fn)
        else:
            wrapper = _plain_wrapper(tracer, group, fn)
        setattr(module, attr, wrapper)
        restore.append((module, attr, fn))

    def uninstall() -> None:
        for module, attr, fn in reversed(restore):
            setattr(module, attr, fn)

    return uninstall


def _solve_records(tracer: Tracer) -> list[dict]:
    """What each traced public solve was asked and returned, as far as its shape allows."""
    signatures: dict = {}
    records = []
    for span in tracer.spans:
        if span.group != "solve":
            continue
        hook, fn, args, kwargs, result = span.info
        record = {"seconds": span.end - span.start}
        if fn not in signatures:
            signatures[fn] = _signature(fn)
        bound = _bind(signatures[fn], args, kwargs)
        sample = bound.arguments.get("sample") if bound else None
        if fn.__name__ not in _KINDS or getattr(sample, "ndim", None) != 2:
            tracer.mark(SOLVE_ARGS, f"{hook} called as {fn.__name__}{_shape(args, kwargs)}")
        else:
            config = bound.arguments.get("config")
            record.update(kind=_KINDS[fn.__name__], sample=sample,
                          alpha=bound.arguments.get("alpha"),
                          max_iter=getattr(config, "max_iterations", None))
        try:
            record.update(iterations=int(result.iterations), converged=bool(result.converged),
                          argmin=result.argmin)
        except (AttributeError, TypeError, ValueError):
            tracer.mark(SOLVE_RESULT, f"{hook} returned {type(result).__name__}")
        records.append(record)
    return records


def _median_us(fn, *args) -> float:
    """Median seconds per call of ``fn(*args)``, in microseconds, over ~50 ms of calls."""
    times = []
    deadline = time.perf_counter() + 0.05
    while len(times) < 5 or (time.perf_counter() < deadline and len(times) < 200):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def _kernel_timings(tracer: Tracer, records: list[dict]) -> dict[str, float]:
    """Public-API kernel µs per call at each (shape, kind) the traced solves used,
    averaged with the number of solves at that shape as weights."""
    try:
        estimators = importlib.import_module("geomrisk.estimators")
        objective = estimators.empirical_objective
        gradient = estimators.empirical_objective_grad
    except (ImportError, AttributeError) as exc:
        tracer.mark(KERNEL_API, str(exc))
        return {}
    shapes: dict[tuple, list] = {}
    for record in records:
        if "sample" in record and "argmin" in record:
            key = (tuple(record["sample"].shape), record["kind"])
            shapes.setdefault(key, [record, 0])[1] += 1
    total = sum(count for _, count in shapes.values())
    if not total:
        return {}
    out = {"losses.objective_us": 0.0, "losses.grad_us": 0.0}
    try:
        for info, count in shapes.values():
            args = (info["sample"], info["alpha"], info["argmin"], info["kind"])
            out["losses.objective_us"] += count / total * _median_us(objective, *args)
            out["losses.grad_us"] += count / total * _median_us(gradient, *args)
    except (TypeError, ValueError) as exc:
        tracer.mark(KERNEL_API, f"{type(exc).__name__}: {exc}")
        return {}
    return out


def p50_p90(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile (linear interpolation between order statistics)."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def _solver_iterations(tracer: Tracer, span: Span) -> int:
    try:
        return int(span.info.iterations)
    except (AttributeError, TypeError, ValueError):
        tracer.mark(SOLVER_RESULT, f"minimize_convex returned {type(span.info).__name__}")
        return 0


def layer_metrics(tracer: Tracer, untraced_wall: float, traced_wall: float,
                  failed_frac: float) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics from the spans, plus ``failed_frac`` from the output
    checks; also the metrics left missing, with why."""
    spans = tracer.spans
    records = _solve_records(tracer)
    kernel = _kernel_timings(tracer, records)
    covered = [0.0] * len(spans)
    fun_n = grad_n = 0
    fun_s = grad_s = 0.0
    for i, span in enumerate(spans):
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
        if span.passes:
            covered[i] += span.passes[1] + span.passes[3]
            fun_n, fun_s = fun_n + span.passes[0], fun_s + span.passes[1]
            grad_n, grad_s = grad_n + span.passes[2], grad_s + span.passes[3]
    # group -> (duration, self time) of each of its spans
    by_group: dict[str, list[tuple[float, float]]] = {}
    for i, span in enumerate(spans):
        dur = span.end - span.start
        by_group.setdefault(span.group, []).append((dur, dur - covered[i]))

    def total(group, self_time=False):
        return sum(entry[1 if self_time else 0] for entry in by_group.get(group, ()))

    def count(group):
        return len(by_group.get(group, ()))

    op_time = total("op")
    n_solves = len(records)
    accepted = sum(_solver_iterations(tracer, span) + 1
                   for span in spans if span.group == "minimize_convex")
    solve_ms = [r["seconds"] * 1e3 for r in records]
    model_ms = [entry[0] * 1e3 for entry in by_group.get("models", ())]
    values = {
        "losses.fun_passes": fun_n,
        "losses.grad_passes": grad_n,
        "losses.useful_ratio": grad_n / fun_n if fun_n else 0.0,
        "losses.fun_us_per_pass": fun_s / fun_n * 1e6 if fun_n else 0.0,
        "losses.grad_us_per_pass": grad_s / grad_n * 1e6 if grad_n else 0.0,
        "losses.share": (fun_s + grad_s) / op_time if op_time else 0.0,
        "estimators.solves": n_solves,
        "estimators.solver_self_s": total("minimize_convex", self_time=True),
        "experiments.self_s": total("experiments", self_time=True),
        "experiments.share": total("experiments", self_time=True) / op_time if op_time else 0.0,
        "models.share": total("models") / op_time if op_time else 0.0,
        "models.simulate_ms_p50": statistics.median(model_ms) if model_ms else 0.0,
        "cli.self_ms_per_op":
            total("op", self_time=True) / count("op") * 1e3 if count("op") else 0.0,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "failed_frac": failed_frac,
        "estimators.nonconverged": sum(1 for r in records if r.get("converged") is False),
        "estimators.max_iter_hits": sum(
            1 for r in records
            if r.get("max_iter") is not None and r.get("iterations", 0) >= r["max_iter"]),
        **kernel,
    }
    if n_solves:
        values.update({
            "losses.passes_per_solve": (fun_n + grad_n) / n_solves,
            "estimators.iters_per_solve": sum(r.get("iterations", 0) for r in records) / n_solves,
            "estimators.backtracks_per_solve": (fun_n - accepted) / n_solves,
            "estimators.prep_ms_per_solve":
                (total("solve") - total("minimize_convex")) / n_solves * 1e3,
            "estimators.solve_ms_p50": p50_p90(solve_ms)[0],
            "estimators.solve_ms_p90": p50_p90(solve_ms)[1],
        })
    metrics, missing = {}, {}
    for name, (_, needs) in METRICS.items():
        broken = [n for n in needs if n in tracer.broken]
        if broken:
            missing[name] = "; ".join(f"{n}: {tracer.broken[n]}" for n in broken)
        elif name not in values:
            missing[name] = "no solves were traced" if not n_solves else "not measured"
        else:
            metrics[name] = values[name]
    return metrics, missing
