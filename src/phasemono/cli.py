"""Command-line interface: scenario runs, parameter sweeps, graph self-tests.

Exit codes: 0 success, 2 configuration or output error (an --out that
cannot be created or written), 3 invariant or acceptance failure, 4
numerical failure (blow-up, step-control collapse, or a resolvent root-find
that does not converge).

All deterministic outputs (trajectory.csv, plot.csv, report.json, sweep.*)
are byte-identical across repeated runs with the same config and seed; wall
clock timings go to the separate timing.json, which is excluded from that
guarantee.  A large CSV table is formatted in two processes where fork and a
second CPU exist (see _write_csv); its bytes do not change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, spectral
from .config import ConfigError, build_problem, parse_config, serialize_config, with_overrides
from .dynamics import METHODS, BlowUpError, StepFailure, solve
from .estimates import (
    ContractionData,
    LadderMemberError,
    contraction_sweep,
    energy_monitor,
    galerkin_convergence,
    yosida_convergence,
)
from .monotone import ResolventError
from .scenarios import get_scenario, scenario_names, scenario_text, SCENARIOS
from .selftest import run_selftest

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_BLOWUP = 4


# A table of at least this many cells (rows x columns) is formatted in two
# processes where fork and a second CPU exist.  Formatting floats by repr is
# the cost of a large write; below this size the fork is not worth it.
_SPLIT_CELLS = 1 << 17


def _csv_lines(rows):
    """One line per row.  A table row is turned into Python floats first,
    so every float is written by str, which is its repr; other rows hold
    Python floats and blank strings.  Every line is ASCII."""
    for row in rows:
        cells = row.tolist() if isinstance(row, np.ndarray) else row
        yield ",".join(map(str, cells)) + "\n"


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fork_formatter(rows):
    """Fork a child that formats ``rows`` into its own memory, writes them
    to a pipe and leaves by ``os._exit``.  Returns ``(pid, read end)``, or
    None where fork is missing or fails.  The child runs only Python string
    formatting and ``ndarray.tolist``, never BLAS or I/O of the parent's."""
    if not hasattr(os, "fork"):
        return None
    # the child must not inherit unwritten output that it could write again
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write("".join(_csv_lines(rows)).encode("ascii"))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _write_csv(path, header, rows):
    """Write the header and then one line per row of ``rows`` (a table or a
    list of rows); return how many processes formatted the rows, 1 or 2.

    A table of at least ``_SPLIT_CELLS`` cells, where fork and a second CPU
    exist, is split: a forked child formats the second half of the rows
    while this process writes the first half row by row, then appends the
    child's bytes from the pipe.  Both halves go through ``_csv_lines``, so
    the file is byte for byte the one-process file.  The child is always
    reaped and the pipe closed; a child that fails raises OSError."""
    half = (len(rows) + 1) // 2
    child = None
    if len(rows) * len(header) >= _SPLIT_CELLS and _cpus() > 1:
        child = _fork_formatter(rows[half:])
    try:
        with path.open("w") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(_csv_lines(rows if child is None else rows[:half]))
            if child is not None:
                fh.flush()
                while chunk := os.read(child[1], 1 << 16):
                    fh.buffer.write(chunk)
    finally:
        if child is not None:
            os.close(child[1])
            _, status = os.waitpid(child[0], 0)
    if child is None:
        return 1
    if status != 0:
        raise OSError(f"cannot write {path}: the process formatting its second "
                      f"half exited with code {os.waitstatus_to_exitcode(status)}")
    return 2


def _json_dump(path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _invariant_failures(report):
    failures = []
    if not report.gronwall_ok:
        failures.append("energy exceeded the Gronwall bound")
    if not report.selection_ok:
        failures.append(
            f"selection norm violated the linear-growth bound "
            f"(margin {report.selection_margin:.3e})")
    if report.dissipation_min < -1e-9:
        failures.append(
            f"graph dissipation integral went negative ({report.dissipation_min:.3e})")
    if report.envelope_initial > report.q_eps + 1e-9:
        failures.append("initial envelope exceeded its budget")
    return failures


def _load_config(args):
    if getattr(args, "scenario", None):
        if args.config:
            raise ConfigError("give either --config or --scenario, not both")
        cfg = get_scenario(args.scenario)
    elif args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        cfg = parse_config(text)
    else:
        raise ConfigError("a --config file or --scenario name is required")
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "method", None):
        overrides["method"] = args.method
    if overrides:
        cfg = with_overrides(cfg, **overrides)
    return cfg


def _cmd_run(args):
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    params, initial, schedule = build_problem(cfg)
    t1 = time.perf_counter()
    traj = solve(params, initial, schedule)
    t2 = time.perf_counter()
    report = energy_monitor(traj, params)
    t3 = time.perf_counter()

    failures = _invariant_failures(report)
    eta_T = traj.eta[-1]
    payload = {
        "tool_version": __version__,
        "config": serialize_config(cfg),
        "trajectory": {
            "t_final": float(traj.times[-1]),
            "samples": len(traj.times),
            "final_eta_h": spectral.h_norm(params.basis, eta_T),
            "final_phi_h": spectral.h_norm(params.basis, traj.phi[-1]),
            "steps": traj.stats["steps"],
            "rejected": traj.stats["rejected"],
            "rhs_evals": traj.stats["rhs_evals"],
            "rhs_evals_saves": traj.stats["rhs_evals_saves"],
            "h_min": traj.stats["h_min"],
            "h_max": traj.stats["h_max"],
            "method": traj.stats["method"],
        },
        "energy": report.to_dict(),
        "invariant_failures": failures,
    }
    basis, m = params.basis, params.basis.total_modes
    eta = traj.eta
    parts = _write_csv(
        out / "trajectory.csv",
        ["t", *(f"phi_{i}" for i in range(m)), *(f"theta_{i}" for i in range(m)),
         "eta_h", "eta_v", "phi_h", "phi_v"],
        np.column_stack((traj.times, traj.phi, traj.theta,
                         spectral.h_norm(basis, eta), spectral.v_norm(basis, eta),
                         spectral.h_norm(basis, traj.phi), spectral.v_norm(basis, traj.phi))))
    comps = ("eta_h2_half", "grad_eta_int", "dphi_int", "phi_v2_scaled", "envelope")
    parts = max(parts, _write_csv(
        out / "plot.csv",
        ["t", "e1", "bound", *comps, "zeta_norm", "dissipation"],
        np.column_stack((report.times, report.e1, report.bound,
                         *(report.components[c] for c in comps),
                         report.zeta_norms, report.dissipation))))
    _json_dump(out / "report.json", payload)
    _json_dump(out / "timing.json", {
        "wall_clock_seconds": t3 - t0,
        "build_s": t1 - t0,
        "solve_s": t2 - t1,
        "monitor_s": t3 - t2,
        "write_s": time.perf_counter() - t3,
        "write_parts": parts,
    })

    print(f"run: {traj.stats['steps']} steps, "
          f"final |eta|_H = {payload['trajectory']['final_eta_h']:.6g}, "
          f"outputs in {out}")
    for f in failures:
        print(f"invariant failure: {f}", file=sys.stderr)
    return EXIT_INVARIANT if failures else EXIT_OK


def _parse_values(raw, kind):
    try:
        vals = [kind(v) for v in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"--values: {exc}") from exc
    if not vals:
        raise ConfigError("--values is empty")
    return vals


def _cmd_sweep(args):
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params, initial, schedule = build_problem(cfg)

    if args.axis == "delta":
        values = _parse_values(args.values, float)
        data = ContractionData(initial=initial, eta_star=params.eta_star,
                               forcing=params.forcing)
        ladder = partial(contraction_sweep, params, data, values, schedule)
    else:
        if args.axis == "n":
            values = _parse_values(args.values, int)
            convergence = galerkin_convergence

            def overrides(n):
                return {"modes": n, "quadrature": None}
        else:
            values = _parse_values(args.values, float)
            convergence = yosida_convergence

            def overrides(eps):
                dt = min(cfg.dt, 0.25 * eps) if cfg.method == "imex" else cfg.dt
                return {"eps": eps, "dt": dt}

        def factory(v):
            return build_problem(with_overrides(cfg, **overrides(v)))[:2]

        ladder = partial(convergence, factory, values, schedule)
    try:
        rep = ladder()
    except ValueError as exc:
        # an inadmissible ladder, or a delta ladder without alpha = ell or
        # on a one-mode basis, refused before any solve; a failed build or
        # solve of a member is a LadderMemberError
        raise ConfigError(str(exc)) from exc
    payload = rep.to_dict()

    payload["axis"] = args.axis
    payload["config"] = serialize_config(cfg)
    payload["tool_version"] = __version__
    _json_dump(out / "sweep.json", payload)

    keys = [k for k, v in payload.items()
            if isinstance(v, list) and len(v) in (len(values), len(values) - 1)]
    depth = max(len(payload[k]) for k in keys) if keys else 0
    _write_csv(out / "sweep.csv", keys,
               [[payload[k][j] if j < len(payload[k]) else "" for k in keys]
                for j in range(depth)])

    print(f"sweep over {args.axis}: {values}")
    for key in ("consecutive_total", "overshoot", "c_observed", "slope"):
        if key in payload:
            print(f"  {key}: {payload[key]}")
    return EXIT_OK


def _cmd_selftest(args):
    rows = run_selftest()
    widths = [14, 26, 30, 6]
    header = ["suite", "variant", "property", "result", "worst", "detail"]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)) + "  worst/detail")
    failed = 0
    for r in rows:
        cells = r.row()
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths))
              + f"  {cells[4]}  {cells[5]}")
        failed += 0 if r.passed else 1
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _json_dump(out / "selftest.json", {
            "tool_version": __version__,
            "results": [
                {"suite": r.suite, "variant": r.variant, "property": r.prop,
                 "passed": bool(r.passed), "worst": float(r.worst),
                 "detail": r.detail}
                for r in rows],
        })
    print(f"{len(rows) - failed}/{len(rows)} properties passed")
    return EXIT_OK if failed == 0 else EXIT_INVARIANT


def _cmd_scenarios(args):
    if args.action == "list":
        for name in scenario_names():
            print(f"{name:18s} {SCENARIOS[name][0]}")
        return EXIT_OK
    if not args.name:
        print("scenario name required", file=sys.stderr)
        return EXIT_CONFIG
    print(scenario_text(args.name), end="")
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="phasemono",
        description="Spectral Galerkin simulator for a monotone-perturbed "
                    "phase-field system, with verification harnesses.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="PATH", help="scenario config file")
        p.add_argument("--scenario", metavar="NAME",
                       help="bundled scenario name (see 'scenarios list')")
        p.add_argument("--out", metavar="DIR", default="out",
                       help="output directory (default: ./out)")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--method", choices=METHODS, default=None,
                       help="override the integrator")

    p_run = sub.add_parser("run", help="solve one scenario and write reports")
    add_common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="ladder studies over eps, n, or data perturbations")
    add_common(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=("eps", "n", "delta"))
    p_sweep.add_argument("--values", required=True,
                         help="space- or comma-separated ladder values")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_self = sub.add_parser("graph-selftest",
                            help="run the graph/potential property suites")
    p_self.add_argument("--out", metavar="DIR", default=None)
    p_self.set_defaults(fn=_cmd_selftest)

    p_sc = sub.add_parser("scenarios", help="list or show bundled scenarios")
    p_sc.add_argument("action", choices=("list", "show"))
    p_sc.add_argument("name", nargs="?", default=None)
    p_sc.set_defaults(fn=_cmd_scenarios)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BlowUpError, StepFailure, ResolventError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except LadderMemberError as exc:
        print(f"sweep failure: {exc}", file=sys.stderr)
        if isinstance(exc.cause, ConfigError):
            return EXIT_CONFIG
        return EXIT_BLOWUP
    except KeyError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
