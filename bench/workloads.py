"""Seeded inputs, operations and correctness checks of the three workloads.

A workload is a list of operations that make up one pass.  Each operation
drives a public entry point (``cli.main`` for ``run``/``sweep``, or
``selftest.run_selftest``), and its check reads what the operation wrote and
returns the reasons it failed, if any.  The bounds are those of
``tests/test_acceptance.py``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from phasemono import cli, selftest
from phasemono.scenarios import scenario_names

WORKLOADS = ("scenarios_1d", "field_2d", "verify")

# sweep --axis eps is short, so one verify pass repeats it
EPS_REPEATS = 5

RUN_OUTPUTS = ("trajectory.csv", "plot.csv", "report.json")

FIELD_2D_CONFIG = """\
[domain]
dims = 2
lengths = 1.0 1.0
modes = 64
normalization = h

[model]
ell = 1.0
alpha = 0.5
k = 0.5
nu = 0.08
gamma = 0.5
t_final = 0.3

[potential]
variant = obstacle
c0 = 1.0

[graph]
variant = scalar_sign

[regularization]
eps = 1e-2

[initial]
eta0 = random-smooth 0.5
phi0 = tanh 0.9 0.12
eta_star = zero
forcing = zero

[integrator]
method = imex
dt = 2.5e-4
saves = 101

[run]
seed = {seed}
"""


@dataclass
class Op:
    """One operation of a pass.

    ``phase`` groups timings (``run``, ``sweep_n``, ...).  ``key`` names the
    outputs that must repeat byte for byte: every operation with the same
    key, in this pass or another, writes the same bytes.
    """

    phase: str
    key: str
    call: Callable            # call(span) -> result, span(name, fn, *args)
    check: Callable           # check(result) -> list of failure reasons
    out: Path | None = None
    outputs: tuple = field(default=())


def _cli_op(phase, key, argv, out, check, outputs):
    argv = list(argv) + ["--out", str(out)]
    return Op(phase=phase, key=key,
              call=lambda span: span("cli.main", cli.main, argv),
              check=check, out=out, outputs=outputs)


def _report_failures(out, code):
    if code != 0:
        return [f"exit code {code}"]
    report = json.loads((out / "report.json").read_text())
    return [f"invariant failure: {f}" for f in report["invariant_failures"]]


def _read_trajectory(out):
    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def _check_run(name, out):
    def check(code):
        failures = _report_failures(out, code)
        if failures:
            return failures
        if name == "heat_decay":
            # eta = theta here (alpha = ell); the mode-1 coefficient decays
            # by exactly exp(-k lambda_1 T) = exp(-1)
            header, data = _read_trajectory(out)
            col = header.index("theta_1")
            err = abs(data[-1, col] / data[0, col] - math.exp(-1.0))
            if not err <= 1e-4:
                failures.append(f"heat_decay error {err:.3e} > 1e-4")
        elif name == "zero":
            _, data = _read_trajectory(out)
            if np.any(data[:, 1:] != 0.0):
                failures.append("zero scenario produced a nonzero value")
        return failures

    return check


def _strictly_decreasing(values):
    return all(b < a for a, b in zip(values, values[1:]))


def _check_sweep(axis, out):
    def check(code):
        if code != 0:
            return [f"exit code {code}"]
        payload = json.loads((out / "sweep.json").read_text())
        failures = []
        if axis in ("n", "eps"):
            diffs = payload["consecutive_total"]
            limit = 1e-3 if axis == "n" else 2e-2
            if not _strictly_decreasing(diffs):
                failures.append(f"{axis}-ladder differences not decreasing: {diffs}")
            if not diffs[-1] <= limit:
                failures.append(f"{axis}-ladder final difference {diffs[-1]:.3e} > {limit:g}")
        if axis == "eps" and not _strictly_decreasing(payload["overshoot"]):
            failures.append(f"eps-ladder overshoot not decreasing: {payload['overshoot']}")
        if axis == "delta":
            if not abs(payload["slope"] - 1.0) <= 0.15:
                failures.append(f"delta sweep slope {payload['slope']:.4f}")
            if not payload["c_spread"] <= 2.0:
                failures.append(f"delta sweep c_spread {payload['c_spread']:.4f}")
        return failures

    return check


def _check_selftest(rows):
    return [f"selftest row failed: {r.suite} {r.variant} {r.prop} worst {r.worst:.3e}"
            for r in rows if not r.passed]


def delta_ladder(seed):
    """Eight dyadic perturbations 0.01*2**u * 2**-j, j = 0..7, with the
    offset u in [-0.5, 0.5] drawn from the seed."""
    u = np.random.default_rng([seed, 7]).uniform(-0.5, 0.5)
    return [0.01 * 2.0 ** u * 2.0 ** -j for j in range(8)]


def build(workload, seed, workdir):
    """Generate the workload's inputs under ``workdir`` and return its ops."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    s = str(seed)
    if workload == "scenarios_1d":
        ops = []
        for name in scenario_names():
            out = workdir / name
            ops.append(_cli_op("run", name,
                               ["run", "--scenario", name, "--seed", s],
                               out, _check_run(name, out), RUN_OUTPUTS))
        return ops
    if workload == "field_2d":
        cfg = workdir / "field_2d.cfg"
        cfg.write_text(FIELD_2D_CONFIG.format(seed=seed))
        out = workdir / "field_2d"
        return [_cli_op("run", "field_2d", ["run", "--config", str(cfg)],
                        out, _check_run("field_2d", out), RUN_OUTPUTS)]
    if workload == "verify":
        deltas = " ".join(repr(d) for d in delta_ladder(seed))
        sweeps = {
            "n": ("tanh_front", "8 16 32 64"),
            "eps": ("obstacle_sign", "1e-1 1e-2 1e-3 1e-4"),
            "delta": ("contraction_base", deltas),
        }
        ops = []
        for axis, (scenario, values) in sweeps.items():
            out = workdir / f"sweep_{axis}"
            op = _cli_op(f"sweep_{axis}", f"sweep_{axis}",
                         ["sweep", "--scenario", scenario, "--axis", axis,
                          "--values", values, "--seed", s],
                         out, _check_sweep(axis, out), ("sweep.json",))
            ops.extend([op] * (EPS_REPEATS if axis == "eps" else 1))
        ops.append(Op(phase="selftest", key="selftest",
                      call=lambda span: span("selftest.run_selftest",
                                             selftest.run_selftest, seed=seed),
                      check=_check_selftest))
        return ops
    raise ValueError(f"unknown workload {workload!r}")
