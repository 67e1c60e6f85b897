"""phasemono benchmark launcher.

    python3 bench/run.py --workload {scenarios_1d,field_2d,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; phasemono is imported from ./src.
With ``--trace 0`` it times the workload's set-up in several fresh processes,
then runs whole passes of the workload in one more fresh process for about
S seconds (at least one pass) and reports the end-to-end metrics of BENCHMARK.json.  With
``--trace 1`` it reports the per-layer metrics instead, from a run that
alternates untraced and traced passes, followed by the layer
microbenchmarks.  Every metric is printed by name with its unit; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The BLAS thread count is pinned here, before any process imports numpy.
This file uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_REPEATS = 7
BLAS_THREADS = "1"
DEADLINE_S = 170.0
VERIFY_PHASES = ("sweep_n", "sweep_eps", "sweep_delta", "selftest")


class BenchError(RuntimeError):
    pass


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _timing_note(values):
    p25, p75 = _quartiles(values)
    return (f"median of {len(values)}; p25 {p25:.4g}, p75 {p75:.4g}, "
            f"max {max(values):.4g}")


def _spawn(argv, env, deadline):
    """Run a child to completion, killing it at the deadline.

    The wait blocks in the kernel: ``subprocess.run(timeout=...)`` would poll
    at 50 ms steps and quantize the set-up times."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("out of time")
    with subprocess.Popen(argv, env=env, stdout=sys.stderr) as proc:
        watchdog = threading.Timer(remaining, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
    if code != 0:
        raise BenchError(f"worker exited with code {code}"
                         + (" (killed at the time limit)" if code < 0 else ""))


def measure(args, work, deadline):
    """Run the workload; return (worker result, metrics, notes)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    result_file = work / "result.json"
    base = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", str(work / "io"),
            "--result", str(result_file)]
    setups = []

    def time_setups(count):
        for _ in range(count):
            t0 = time.perf_counter()
            _spawn(base + ["--setup-only"], env, deadline)
            setups.append(time.perf_counter() - t0)

    # set-ups before and after the run, so that their median spans it
    if not args.trace:
        time_setups(SETUP_REPEATS // 2 + 1)
    _spawn(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
           env, deadline)
    res = json.loads(result_file.read_text())
    if not args.trace:
        time_setups(SETUP_REPEATS // 2)

    notes = {}
    if args.trace:
        return res, res["per_layer"], notes
    passes, rescaled = res["passes_s"], res["passes_ref_s"]
    metrics = {
        "wall_ref_s": (statistics.median(rescaled), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes["wall_ref_s"] = (_timing_note(rescaled) + " passes, rescaled to the "
                           "probe's reference host speed")
    notes["wall_s"] = _timing_note(passes) + " passes, as measured"
    notes["setup_s"] = _timing_note(setups) + " fresh processes"
    notes["peak_rss_mb"] = "ru_maxrss of the fresh worker process"
    return res, metrics, notes


def report(args, spec, res, metrics, notes):
    """Print every metric by name with its unit; return the result object."""
    meta = res["meta"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k}={v}" for k, v in meta.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<14} {notes.get(name, '')}")
    if not args.trace:
        print(f"  {'wall_s':<48} {statistics.median(res['passes_s']):>14.6g} "
              f"{'s':<14} {notes['wall_s']}")
    failed, attempted = res["failed"], res["attempted"]
    print(f"  {'fail_frac':<48} {failed / attempted:>14.6g} {'ratio':<14} "
          f"{failed} failed of {attempted} operations")
    if args.workload == "verify" and not args.trace:
        for phase in VERIFY_PHASES:
            values = res["phases_s"][phase]
            print(f"  {phase + '_s':<48} {statistics.median(values):>14.6g} "
                  f"{'s':<14} {_timing_note(values)} calls")
    for reason in res["failures"][:20]:
        print(f"failure: {reason}", file=sys.stderr)

    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != expected:
        missing = sorted(set(expected) - set(produced))
        extra = sorted(set(produced) - set(expected))
        raise BenchError(f"metrics disagree with BENCHMARK.json {section}: "
                         f"missing {missing}, unexpected {extra}, or units differ")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None):
    start = time.perf_counter()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="phasemono benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "phasemono" / "__init__.py").is_file():
        print(f"bench: no phasemono sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        res, metrics, notes = measure(args, work, start + DEADLINE_S)
        result = report(args, spec, res, metrics, notes)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
