#!/usr/bin/env python3
"""geomrisk benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload paper-paths --seed 1 --seconds 25 --trace 0

The benchmark drives ``geomrisk.cli.main(argv)`` in-process, one op at a
time, in a closed loop with a single client; each op's stdout is captured
in memory.  The op list comes from ``workloads.build(workload, seed)``.

``--trace 0`` measures end-to-end metrics: after a short untimed warm-up it
runs the op list in passes until ``--seconds`` would be exceeded (always at
least one full pass) and reports per-op medians.  Op and set-up times are
CPU seconds of the measuring process (all work is single-threaded), so time
the host gives to other tenants does not count; wall-clock figures are kept
in the results file.  ``--trace 1`` runs one untraced and one traced pass and
reports per-layer metrics from the spans (see ``spans.py``).  Both modes then check every op's output (``checks.py``)
outside the timed region and require every execution of an op to produce
the same SHA-256 digest.

A human-readable report goes to stdout, followed by one JSON line with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, per-op digests and times, and for traced runs the spans) is
written to ``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

# single-threaded everywhere: iteration counts then repeat exactly
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_REPEATS = 5
WARMUP_S = 1.0

E2E_UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "op_ms_p50": "ms",
    "converged_frac": "frac",
    "peak_rss_mb": "MB",
}

# fresh-process set-up: import the package and build the op list
_SETUP_CODE = """\
import sys, time
t0 = time.process_time()
sys.path[:0] = [{src!r}, {bench!r}]
import geomrisk.cli
import workloads
workloads.build({workload!r}, {seed!r})
print(repr(time.process_time() - t0))
"""


def run_op(main, argv: list[str]) -> tuple[int | None, str, str, float, float]:
    """Run one CLI op with stdout/stderr captured; exit code None means it raised.

    Returns the exit code, stdout, stderr, wall seconds and CPU seconds."""
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except Exception:  # a crashing op is a failed op; the run goes on and reports it
        code = None
        err.write(traceback.format_exc())
    return (code, out.getvalue(), err.getvalue(), time.perf_counter() - t0,
            time.process_time() - c0)


class Runner:
    """Executes ops, keeps each op's first output and checks later ones against its digest."""

    def __init__(self, ops: list[list[str]], main) -> None:
        self.ops = ops
        self.main = main
        self.first: list[tuple | None] = [None] * len(ops)
        self.digests: list[str | None] = [None] * len(ops)
        self.mismatched: set[int] = set()
        self.attempted = 0
        self.failed = 0

    def run(self, i: int) -> tuple[float, float]:
        """Execute op ``i``; returns its (wall, CPU) seconds."""
        code, text, err, wall, cpu = run_op(self.main, self.ops[i])
        self.attempted += 1
        if code not in (0, 2):
            self.failed += 1
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.first[i] is None:
            self.first[i] = (code, text, err)
            self.digests[i] = digest
        elif digest != self.digests[i] or code != self.first[i][0]:
            self.mismatched.add(i)
        return wall, cpu

    def warm_up(self) -> None:
        """Untimed ops from the head of the list until WARMUP_S has passed."""
        t0 = time.perf_counter()
        for i in range(len(self.ops)):
            if time.perf_counter() - t0 >= WARMUP_S:
                break
            self.run(i)

    def timed(self, seconds: float) -> list[list[tuple[float, float]]]:
        """One full pass, then more ops in order while each fits before the wall-clock
        deadline; returns each op's (wall, CPU) seconds per execution."""
        deadline = time.perf_counter() + seconds
        times = [[self.run(i)] for i in range(len(self.ops))]
        while True:
            for i, samples in enumerate(times):
                if time.perf_counter() + statistics.median(w for w, _ in samples) > deadline:
                    return times
                samples.append(self.run(i))

    def one_pass(self, tracer=None) -> float:
        """Wall seconds of one full pass; with a tracer, each op is an ``op`` span."""
        t0 = time.perf_counter()
        for i, argv in enumerate(self.ops):
            if tracer is None:
                self.run(i)
                continue
            tracer.op = i
            tracer.call(argv[0], "op", self.run, i)
        return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> list[float]:
    """CPU seconds to import geomrisk.cli and build the op list, each in a fresh process."""
    code = _SETUP_CODE.format(src=str(SRC), bench=str(BENCH), workload=workload, seed=seed)
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def check_outputs(runner: Runner) -> dict:
    """Run the output checks on each op's first output; names every failing row."""
    import checks  # imports numpy and geomrisk: only after main() set the thread env

    samples = checks.SampleCache()
    summary = {"rows": 0, "failed_rows": 0, "checked_points": 0, "worst_residual": 0.0,
               "problems": [], "per_op": []}
    for i, argv in enumerate(runner.ops):
        code, text, err = runner.first[i]
        result = checks.check_op(argv, code, text, samples)
        summary["rows"] += result.rows
        summary["failed_rows"] += result.failed_rows
        summary["checked_points"] += result.checked_points
        summary["worst_residual"] = max(summary["worst_residual"], result.worst_residual)
        summary["per_op"].append(result)
        where = f"op {i} ({' '.join(argv)})"
        summary["problems"] += [f"{where}: {p}" for p in result.problems]
        if code not in (0, 2) and err:
            summary["problems"].append(f"{where}: stderr: {err.strip().splitlines()[-1]}")
    summary["problems"] += [f"op {i} ({' '.join(runner.ops[i])}): output differs between "
                            "executions" for i in sorted(runner.mismatched)]
    summary["problems"] += samples.problems
    return summary


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        **{k: os.environ.get(k) for k in THREAD_ENV},
        "GEOMRISK_THREADS": os.environ.get("GEOMRISK_THREADS"),
        "git_revision": _git_revision(),
    }


def end_to_end(runner: Runner, times: list[list[tuple[float, float]]], checked: dict,
               setup: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics, plus (value, unit) figures reported alongside them: op
    latency p90, failed_frac, the per-subcommand op-time sums of at least 1 s and
    the wall-clock rate.  Op times are CPU seconds."""
    medians = [statistics.median(c for _, c in t) for t in times]
    wall_medians = [statistics.median(w for w, _ in t) for t in times]
    rows = [r.rows for r in checked["per_op"]]
    p50, p90 = spans.p50_p90([m * 1e3 for m in medians])
    metrics = {
        "setup_s": statistics.median(setup),
        "points_per_s": sum(rows) / sum(medians),
        "op_ms_p50": p50,
        "converged_frac": 1.0 - checked["failed_rows"] / checked["rows"],
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {"op_ms_p90": (p90, "ms"),
             "failed_frac": (checked["failed_rows"] / checked["rows"], "frac"),
             "wall_points_per_s": (sum(rows) / sum(wall_medians), "1/s")}
    by_cmd: dict[str, float] = {}
    for argv, med in zip(runner.ops, medians):
        key = argv[0].replace("-", "_") + "_s"
        by_cmd[key] = by_cmd.get(key, 0.0) + med
    extra.update((k, (v, "s")) for k, v in by_cmd.items() if v >= 1.0)
    return metrics, extra


def _write_spans(path: Path, tracer) -> None:
    """Spans as CSV; kernel passes appear as counts and µs on their minimize_convex span."""
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    with path.open("w") as fh:
        fh.write("id,parent,op,group,name,start_us,end_us,"
                 "fun_passes,fun_us,grad_passes,grad_us\n")
        for i, s in enumerate(tracer.spans):
            parent = "" if s.parent is None else s.parent
            fun_n, fun_s, grad_n, grad_s = s.passes or (0, 0.0, 0, 0.0)
            fh.write(f"{i},{parent},{s.op},{s.group},{s.name},"
                     f"{(s.start - t0) * 1e6:.1f},{(s.end - t0) * 1e6:.1f},"
                     f"{fun_n},{fun_s * 1e6:.1f},{grad_n},{grad_s * 1e6:.1f}\n")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "geomrisk" / "__init__.py").is_file():
        print(f"error: no geomrisk sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    os.environ.pop("GEOMRISK_THREADS", None)
    sys.path.insert(0, str(SRC))
    import geomrisk.cli

    if not Path(geomrisk.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: geomrisk imported from {geomrisk.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed)
    runner = Runner(ops, geomrisk.cli.main)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "why": workloads.WHY[args.workload],
              "environment": environment()}
    extra: dict[str, tuple[float, str]] = {}
    missing: dict[str, str] = {}
    tracer = None
    if args.trace == 0:
        setup = measure_setup(args.workload, args.seed)
        runner.warm_up()
        times = runner.timed(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked = check_outputs(runner)
        metrics, extra = end_to_end(runner, times, checked, setup, peak_rss_mb)
        units = dict(E2E_UNITS)
        record.update(setup_s=setup, passes=min(len(t) for t in times))
    else:
        runner.warm_up()
        untraced = runner.one_pass()
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            traced = runner.one_pass(tracer)
        finally:
            uninstall()
        checked = check_outputs(runner)
        metrics, missing = spans.layer_metrics(tracer, untraced, traced,
                                               checked["failed_rows"] / checked["rows"])
        units = {name: unit for name, (unit, _) in spans.METRICS.items()}
        times = None
        record.update(untraced_pass_s=untraced, traced_pass_s=traced, broken_hooks=tracer.broken)

    correct = not checked["problems"] and runner.failed == 0
    record.update(
        correct=correct, attempted=runner.attempted, failed=runner.failed,
        metrics=metrics, extra=extra, missing=missing, problems=checked["problems"],
        rows=checked["rows"], failed_rows=checked["failed_rows"],
        checked_points=checked["checked_points"], worst_residual=checked["worst_residual"],
        outputs_sha256=hashlib.sha256("".join(runner.digests).encode()).hexdigest(),
        ops=[{"argv": argv, "exit": runner.first[i][0], "sha256": runner.digests[i],
              "rows": checked["per_op"][i].rows, "failed_rows": checked["per_op"][i].failed_rows,
              "wall_s": [w for w, _ in times[i]] if times else None,
              "cpu_s": [c for _, c in times[i]] if times else None}
             for i, argv in enumerate(ops)],
    )
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        _write_spans(RESULTS / f"{stem}-spans.csv", tracer)

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops, "
          f"{runner.attempted} executions, {checked['rows']} rows, "
          f"{checked['checked_points']} points checked "
          f"(worst residual {checked['worst_residual']:.3g})")
    if args.trace == 0:
        print(f"  op latencies: per-op medians of {len(ops)} ops over "
              f"{record['passes']}+ passes; setup: median of {SETUP_REPEATS} fresh processes")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for name, why in missing.items():
        print(f"  {name:32s} {'missing':>14s} ({why})")
    print(f"  outputs_sha256 {record['outputs_sha256']}")
    for problem in checked["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
