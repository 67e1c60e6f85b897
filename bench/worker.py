"""Benchmark worker: runs one workload in a fresh process and writes its
measurements to a JSON file.  Started by ``bench/run.py``, which pins the
BLAS threads before this process imports numpy.

    python3 bench/worker.py --workload W --seed N --workdir DIR --result FILE
        [--seconds S] [--trace 0|1] [--setup-only]

``--setup-only`` imports phasemono and generates the workload inputs, then
exits: the launcher times it as the workload's set-up.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import phasemono  # noqa: E402

if not Path(phasemono.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"phasemono imported from {phasemono.__file__}, not {ROOT / 'src'}")

# bench/ is on sys.path as the script's directory
import micro  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _untraced(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Runs passes of one workload, times them and applies the checks."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}

    def record(self, label, failures):
        """Count one attempted operation and keep its failure reasons."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(f"{label}: {f}" for f in failures)

    def run_pass(self, span=_untraced, on_result=None, clock=time.perf_counter):
        """Run every op once; return (pass seconds, {phase: [op seconds]})."""
        phases = defaultdict(list)
        for op in self.ops:
            t0 = clock()
            try:
                result = op.call(span)
            except Exception as exc:  # a traceback is a failed operation
                phases[op.phase].append(clock() - t0)
                self.record(op.key, [f"raised {type(exc).__name__}: {exc}"])
                continue
            phases[op.phase].append(clock() - t0)
            try:
                failures = op.check(result) + self._identity_failures(op)
            except (OSError, ValueError, KeyError) as exc:
                failures = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if on_result is not None:
                on_result(op, result)
            self.record(op.key, failures)
        return sum(sum(v) for v in phases.values()), phases

    def _identity_failures(self, op):
        failures = []
        for name in op.outputs:
            digest = _digest(op.out / name)
            first = self.digests.setdefault((op.key, name), digest)
            if digest != first:
                failures.append(f"{name} differs from its first write")
        return failures


def _more(times, deadline, minimum):
    """Whether to run another pass: always below ``minimum`` passes, then
    only while a pass of median length still ends before the deadline."""
    if len(times) < minimum:
        return True
    return time.perf_counter() + statistics.median(times) <= deadline


def _untraced_run(runner, seconds, min_passes):
    """Passes under the host-speed probe: (pass seconds, the same rescaled
    to the probe's reference speed, {phase: [op seconds]})."""
    passes, rescaled, phases = [], [], defaultdict(list)
    deadline = time.perf_counter() + seconds
    with probe.SpeedProbe() as speed:
        while _more(passes, deadline, min_passes):
            first = len(speed.samples)
            wall, ph = runner.run_pass(clock=speed.clock)
            passes.append(wall)
            rescaled.append(wall * speed.host_factor(first))
            for k, v in ph.items():
                phases[k].extend(v)
    return passes, rescaled, phases


def _traced_run(runner, seconds):
    """Alternate untraced and traced passes; per-layer figures per pass."""
    tracer = tracing.Tracer()
    extra = defaultdict(float)

    def on_result(op, result):
        if op.out is not None:
            extra["bytes_written"] += sum(
                p.stat().st_size for p in op.out.iterdir() if p.is_file())
        if op.phase == "selftest":
            extra["rows"] += len(result)
            extra["rows_failed"] += sum(not r.passed for r in result)

    plain, traced, pairs = [], [], []
    deadline = time.perf_counter() + seconds
    while _more(pairs, deadline, 1):
        plain.append(runner.run_pass()[0])
        with tracing.installed(tracer):
            traced.append(runner.run_pass(tracer.call, on_result)[0])
        pairs.append(plain[-1] + traced[-1])
    return layer_metrics(tracer, extra, len(traced),
                         statistics.median(traced) / statistics.median(plain) - 1.0)


def layer_metrics(tracer, extra, n_passes, overhead):
    """Per-layer figures per traced pass; ladder figures per ladder call."""
    stats, c = tracer.stats, tracer.counters

    def per_pass(x):
        return x / n_passes

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for span in ("monotone.solve_increasing", "monotone.yosida", "monotone.resolvent",
                 "monotone.resolvent_oracle", "spectral.to_grid", "spectral.from_grid",
                 "potentials.envelope", "dynamics.solve", "estimates.energy_monitor",
                 "config.build_problem"):
        m[f"{span}.calls"] = (per_pass(stats[span].calls), "count")
        m[f"{span}.self_s"] = (per_pass(stats[span].self_time), "s")
    m["dynamics.steps"] = (per_pass(c["steps"]), "count")
    m["dynamics.rejected"] = (per_pass(c["rejected"]), "count")
    m["dynamics.rhs_evals"] = (per_pass(c["rhs_evals"]), "count")
    m["dynamics.rhs_evals_per_step"] = (ratio(c["rhs_evals"], c["steps"]), "ratio")
    m["dynamics.us_per_rhs_eval"] = (
        ratio(stats["dynamics.solve"].total * 1e6, c["rhs_evals"]), "us")
    for name in ("galerkin_convergence", "yosida_convergence", "contraction_sweep"):
        ladder = stats[f"estimates.{name}"]
        m[f"estimates.{name}.s"] = (ratio(ladder.total, ladder.calls), "s")
    sweeps = stats["estimates.contraction_sweep"].calls
    m["estimates.contraction.solves"] = (ratio(c["contraction_solves"], sweeps), "count")
    m["estimates.contraction.useful_solve_ratio"] = (
        ratio(c["contraction_distinct"], c["contraction_solves"]), "ratio")
    m["estimates.eps_ladder.steps"] = (
        ratio(c["eps_ladder_steps"], stats["estimates.yosida_convergence"].calls), "count")
    m["selftest.run_selftest.self_s"] = (
        per_pass(stats["selftest.run_selftest"].self_time), "s")
    m["selftest.rows"] = (per_pass(extra["rows"]), "count")
    m["selftest.rows_failed"] = (per_pass(extra["rows_failed"]), "count")
    m["cli.write.self_s"] = (per_pass(stats["cli.main"].self_time), "s")
    m["cli.bytes_written"] = (per_pass(extra["bytes_written"]), "B")
    m["bench.trace_overhead"] = (overhead, "ratio")
    return m


def _metadata():
    threads = "unknown"
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    if libs:
        lib = ctypes.CDLL(str(libs[0]))
        query = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if query is not None:
            threads = query()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "nproc": os.cpu_count()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ops = workloads.build(args.workload, args.seed, args.workdir)
    if args.setup_only:
        return 0
    runner = Runner(ops)
    result = {"meta": _metadata()}
    if args.trace:
        result["per_layer"] = _traced_run(runner, args.seconds)
        rng = np.random.default_rng([args.seed, 11])
        for bench in (micro.spectral_metrics, micro.yosida_metrics):
            metrics, failures = bench(rng)
            result["per_layer"].update(metrics)
            runner.record(bench.__name__, failures)
    else:
        min_passes = 1 if args.workload == "verify" else 2
        passes, rescaled, phases = _untraced_run(runner, args.seconds, min_passes)
        result["passes_s"] = passes
        result["passes_ref_s"] = rescaled
        result["phases_s"] = dict(phases)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    result["failures"] = runner.failures
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
