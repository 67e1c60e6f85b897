"""Command-line interface: scenario runs, parameter sweeps, graph self-tests.

Exit codes: 0 success, 2 configuration or output error (an --out that
cannot be created or written), 3 invariant or acceptance failure, 4
numerical failure (blow-up, step-control collapse, or a resolvent root-find
that does not converge).

All deterministic outputs (trajectory.csv, plot.csv, report.json, sweep.*)
are byte-identical across repeated runs with the same config and seed; wall
clock timings go to the separate timing.json, which is excluded from that
guarantee.  A large CSV table is formatted in niced forked children as well
as in this process, a large trajectory.csv while the solve runs (see
_TableWriter), and its bytes do not change.  A CSV table is written under a
".part" name and renamed once it is whole, so a failed write or solve leaves
no partial table behind.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import signal
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


# A table of at least this many cells (rows x columns) is formatted in forked
# processes too, where fork exists.  Formatting floats by repr is the cost of
# a large write; below this size a fork is not worth it.
_SPLIT_CELLS = 1 << 17


def _csv_lines(rows):
    """One line per row.  A table row is turned into Python floats first,
    so every float is written by str, which is its repr; other rows hold
    Python floats and blank strings.  Every line is ASCII."""
    for row in rows:
        cells = row.tolist() if isinstance(row, np.ndarray) else row
        yield ",".join(map(str, cells)) + "\n"


class _TableWriter:
    """Formats the rows of one CSV table, in forked children as well as in
    this process when the table is large, and writes it to ``path``.

    ``rows(*source, lo, hi)`` builds rows ``lo`` to ``hi - 1`` (a table or a
    list of rows) from the arrays in ``source``.  Every row goes through
    ``_csv_lines`` in some process, and the chunks are written in row order,
    so the file is byte for byte the one that one process writes.  They go
    to ``path`` with ".part" appended, renamed to ``path`` once every row is
    in, so ``path`` only ever holds the whole table.

    ``forks`` holds where the table has at least ``_SPLIT_CELLS`` cells and
    fork exists.  Then at most one child is alive at a time, beside this
    process, and each is handed rows holding at least ``_SPLIT_CELLS``
    cells, so a table of c cells forks at most c / ``_SPLIT_CELLS`` + 1
    times.  A child first lowers its own priority to the least, by
    ``os.nice(19)``, so that beside the computation producing the rows (a
    BLAS pool on every CPU included) it yields the CPU rather than competes.

    - ``ready(n, *source)``, where ``forks`` holds, says that rows below
      ``n`` can be built.  A child whose pipe has turned readable has
      formatted its rows; they are copied to the part file and the child is
      reaped.  Then, if no child is alive and the next chunk (the fewest
      rows not yet handed out that hold ``_SPLIT_CELLS`` cells) is ready, a
      child is forked for it.  It builds those rows from its copy-on-write
      view of ``source``, formats them into its own memory, writes them to
      its pipe and leaves by ``os._exit``.  One chunk at a time, rather than
      every ready row, so that the child still busy when the solve ends has
      at most one chunk to format.
    - ``write(*source)``, once every row is ready, formats rows from the
      back until the last child has finished, forks once more for the back
      half of the rows left if they hold ``_SPLIT_CELLS`` cells, and formats
      their front half into the part file meanwhile.

    A child runs only elementwise numpy work and string formatting, never
    BLAS or I/O of this process's.  A fork that fails leaves the rest to
    this process; a child that fails raises OSError naming the file.
    ``close``, also run on leaving a ``with`` block, kills and reaps a child
    still alive and deletes the part file unless it has been renamed.
    """

    def __init__(self, path, header, n_rows, rows):
        self.path, self.header, self.n_rows, self._rows = path, header, n_rows, rows
        self.forks = n_rows * len(header) >= _SPLIT_CELLS and hasattr(os, "fork")
        self._part = path.with_name(path.name + ".part")
        self._file = None       # the part file, once opened
        self._child = None      # (pid, read end, poll on it) of the child alive
        self._forked = 0
        self._handed = 0        # rows below this are handed to children

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _out(self):
        """The part file, opened and given the header on first use."""
        if self._file is None:
            self._file = self._part.open("wb")
            self._file.write((",".join(self.header) + "\n").encode("ascii"))
        return self._file

    def _put(self, lines):
        self._out().writelines(line.encode("ascii") for line in lines)

    def _drain(self):
        """Copy the child's rows to the part file as it writes them and reap
        it."""
        pid, fd, _ = self._child
        out = self._out()
        while chunk := os.read(fd, 1 << 16):
            out.write(chunk)
        self._child = None
        os.close(fd)
        status = os.waitpid(pid, 0)[1]
        if status != 0:
            raise OSError(f"cannot write {self.path}: a process formatting its rows "
                          f"exited with code {os.waitstatus_to_exitcode(status)}")

    def _idle(self):
        """Drain the child if it has formatted its rows; return whether no
        child is alive."""
        if self._child is not None and self._child[2].poll(0):
            self._drain()
        return self._child is None

    def _fork(self, rows):
        """Hand the rows that ``rows()`` builds to a new child; return
        False, and stop forking, if the pipe or the fork fails."""
        # the child must not inherit unwritten output that it could write again
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
        except OSError:
            self.forks = False
            return False
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                with contextlib.suppress(OSError):
                    os.nice(19)
                with open(write_fd, "wb") as pipe:
                    pipe.write("".join(_csv_lines(rows())).encode("ascii"))
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        poll = select.poll()
        poll.register(read_fd, select.POLLIN)
        self._child = (pid, read_fd, poll)
        self._forked += 1
        return True

    def ready(self, n, *source):
        """Rows below ``n`` can be built from ``source``: unless a child is
        alive, fork one for the next chunk not yet handed out once it is
        ready."""
        lo = self._handed
        hi = lo - (-_SPLIT_CELLS // len(self.header))
        if (self.forks and self._idle() and hi <= n
                and self._fork(partial(self._rows, *source, lo, hi))):
            self._handed = hi

    def write(self, *source):
        """Format every row not yet handed out and write the table to
        ``path``; return how many processes formatted rows: this one and
        each forked child."""
        lo, hi = self._handed, self.n_rows
        table = self._rows(*source, lo, hi)     # row i is table[i - lo]
        tail = []               # lines of the rows from hi on, last row first
        while hi > lo and not self._idle():
            hi -= 1
            tail.extend(_csv_lines(table[hi - lo:hi + 1 - lo]))
        if self._child is not None:     # every row is formatted; wait for the child
            self._drain()
        mid = (lo + hi) // 2
        back = (self.forks and mid > lo and (hi - lo) * len(self.header) >= _SPLIT_CELLS
                and self._fork(lambda: table[mid - lo:hi - lo]))
        self._put(_csv_lines(table[:(mid if back else hi) - lo]))
        if back:
            self._drain()
        self._put(reversed(tail))
        self._out().close()
        os.replace(self._part, self.path)
        self._file = None
        return 1 + self._forked

    def close(self):
        """Kill and reap a child still alive, and delete the part file
        unless it has been renamed."""
        if self._child is not None:
            pid, fd, _ = self._child
            self._child = None
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if self._file is not None:
            self._file.close()
            self._file = None
            self._part.unlink(missing_ok=True)


def _write_csv(path, header, rows):
    """Write ``rows`` (a table or a list of rows) under ``header``; return
    how many processes formatted them (see ``_TableWriter``)."""
    with _TableWriter(path, header, len(rows), lambda table, lo, hi: table[lo:hi]) as writer:
        return writer.write(rows)


def _trajectory_rows(basis, dm, times, phi, theta, lo, hi):
    """Rows ``lo`` to ``hi - 1`` of trajectory.csv: the time, the phi and
    theta coefficients, and the H and V norms of eta = theta - dm phi and of
    phi."""
    phi, theta = phi[lo:hi], theta[lo:hi]
    eta = theta - dm * phi
    return np.column_stack((times[lo:hi], phi, theta,
                            spectral.h_norm(basis, eta), spectral.v_norm(basis, eta),
                            spectral.h_norm(basis, phi), spectral.v_norm(basis, phi)))


def _json_dump(path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _invariant_failures(report):
    failures = []
    if not report.gronwall_ok:
        failures.append(
            f"energy exceeded the Gronwall bound (log-margin "
            f"{report.gronwall_margin_min:.3e} at t = {report.gronwall_margin_t:.6g})")
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
    basis, m = params.basis, params.basis.total_modes
    with _TableWriter(
            out / "trajectory.csv",
            ["t", *(f"phi_{i}" for i in range(m)), *(f"theta_{i}" for i in range(m)),
             "eta_h", "eta_v", "phi_h", "phi_v"],
            schedule.n_saves,
            partial(_trajectory_rows, basis, params.ell - params.alpha)) as table:

        def on_save(j, times, states):
            table.ready(j + 1, times, states[:, 0], states[:, 1])

        # a large table is formatted while the solve runs, by a niced child
        traj = solve(params, initial, schedule, on_save=on_save)
        t2 = time.perf_counter()
        report = energy_monitor(traj, params)
        t3 = time.perf_counter()
        parts = table.write(traj.times, traj.phi, traj.theta)

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
    comps = ("eta_h2_half", "grad_eta_int", "dphi_int", "phi_v2_scaled", "envelope")
    parts = max(parts, _write_csv(
        out / "plot.csv",
        ["t", "e1", "bound", *comps, "zeta_norm", "dissipation"],
        np.column_stack((report.times, report.e1, report.bound,
                         *(report.components[c] for c in comps),
                         report.zeta_norms, report.dissipation))))
    _json_dump(out / "report.json", payload)
    t4 = time.perf_counter()
    _json_dump(out / "timing.json", {
        "wall_clock_seconds": t4 - t0,
        "build_s": t1 - t0,
        "solve_s": t2 - t1,
        "monitor_s": t3 - t2,
        "write_s": t4 - t3,
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
        raise ConfigError("scenario name required")
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
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
