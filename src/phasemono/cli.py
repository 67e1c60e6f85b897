"""Command-line interface: scenario runs, parameter sweeps, graph self-tests.

Exit codes: 0 success, 2 configuration or output error (an --out that
cannot be created or written, a ladder member that cannot be built, or a
problem that does not fit in memory), 3
invariant or acceptance failure, 4 numerical failure (blow-up, step-control
collapse, or a resolvent root-find that does not converge).

All deterministic outputs (trajectory.csv, plot.csv, report.json, sweep.*)
are byte-identical across repeated runs with the same config and seed; wall
clock timings go to the separate timing.json, which is excluded from that
guarantee.  Every float of a CSV table is written as repr writes it: a
float table by the numpy kernel of _floatfmt, which gives the same bytes,
and the list rows of sweep.csv through str.  The rows of a large CSV table
are sent down a pipe to one niced forked child, which formats and writes
them, those of a large trajectory.csv while the solve runs (see
_TableWriter); its bytes do not change.  Every output file is written
under a ".part" name and renamed once it is whole, so a failed write or
solve leaves no partial file behind.  ``run``, ``sweep`` and
``graph-selftest --out`` delete their outputs of an earlier run from --out
before they compute, so a failure leaves none of them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, _floatfmt, spectral
from .config import ConfigError, build_problem, parse_config, serialize_config
from .dynamics import METHODS, BlowUpError, StepFailure, solve
from .estimates import (
    LadderMemberError,
    contraction_sweep,
    energy_monitor,
    galerkin_convergence,
    yosida_convergence,
)
from .monotone import DomainError, ResolventError
from .scenarios import SCENARIOS, get_scenario, scenario_names
from .selftest import run_selftest

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_BLOWUP = 4


# A table of at least this many cells (rows x columns) is formatted and written
# by a forked child, where fork exists: even the kernel takes about 0.3 µs a
# cell, too much to leave after the solve (see _TableWriter).  Below this size
# a fork is not worth it.
_SPLIT_CELLS = 1 << 17


def _csv_lines(rows):
    """The lines of ``rows`` as ASCII byte blocks, each float as repr writes
    it: a float table's by ``_floatfmt.csv_text``, list rows (of Python
    floats and blank strings) by str."""
    if isinstance(rows, np.ndarray):
        return _floatfmt.csv_text(rows)
    return ((",".join(map(str, row)) + "\n").encode("ascii") for row in rows)


@contextlib.contextmanager
def _replacing(path):
    """Open ``path`` with ".part" appended to write bytes; rename it to
    ``path`` when the block ends, or delete it if the block raises, so that
    ``path`` is never left partly written.  A failed write is raised as an
    OSError that names ``path``."""
    part = path.with_name(path.name + ".part")
    try:
        try:
            with part.open("wb") as f:
                yield f
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)


class _TableWriter:
    """Writes one CSV table to ``path``; a forked child formats and writes
    the rows of a large one.

    A row is formatted by ``_csv_lines``, by the kernel of ``_floatfmt``
    where it is a float.  Even so, the 101 rows of 8197 cells of a 64-mode
    2D run cost about 0.25 s of CPU, which the child spends while the solve
    runs, on another core where there is one.

    ``rows(*source, lo, hi)`` builds rows ``lo`` to ``hi - 1`` (a table or a
    list of rows, of floats where the table forks) from the arrays in
    ``source``.  The table goes to ``path`` with ".part" appended, renamed
    to ``path`` once whole, and its bytes are those one process writes.

    ``forks`` holds where the table has at least ``_SPLIT_CELLS`` cells and
    one child was forked when the writer was created.  This process writes
    the header first.  The child calls ``os.nice(19)``, so that beside the
    computation producing the rows it yields the CPU rather than competes,
    and appends every row's line.

    - ``ready(n, *source)`` writes the float64 bytes of the rows below ``n``
      not yet sent into a pipe.  A full pipe makes it wait for the child.
      The child reads what the pipe holds, formats the whole rows in it and
      keeps the rest for the next read.
    - ``write(*source)`` sends the last rows, closes the pipe and waits for
      the child, which stops at the end of the pipe.

    While the child runs, this process holds the pipe's write end and no
    other file.  A refused fork leaves the table to this process.  A
    failed child raises OSError naming the file, from ``write`` or from a
    ``ready`` that finds the pipe broken.  ``close``, also run on leaving a
    ``with`` block, kills and reaps a child still alive, closes the pipe and
    deletes a ".part" file left behind.
    """

    def __init__(self, path, header, n_rows, rows):
        self.path, self.header, self.n_rows, self._rows = path, header, n_rows, rows
        self._part = path.with_name(path.name + ".part")
        self._pipe = self._pid = None
        self._sent = 0                      # rows below this are in the pipe
        self.forks = n_rows * len(header) >= _SPLIT_CELLS and hasattr(os, "fork") and self._fork()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _header(self):
        return (",".join(self.header) + "\n").encode("ascii")

    def _fork(self):
        """Fork the child; return False if the pipe, the ".part" file or the
        fork cannot be made."""
        # the child must not inherit unwritten output that it could write again
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            read_end, self._pipe = os.pipe()
            try:
                with self._part.open("wb") as part:
                    part.write(self._header())
                    part.flush()
                    pid = os.fork()
                    if pid == 0:
                        self._format(read_end, part)
            finally:
                # the child's copy is then the last read end, so that its
                # death breaks the pipe
                os.close(read_end)
        except OSError:
            self.close()
            return False
        self._pid = pid
        return True

    def _format(self, read_end, part):
        """In the child: append the lines of the rows read from the pipe to
        ``part`` until the pipe is closed; then exit."""
        status = 1
        try:
            os.close(self._pipe)
            with contextlib.suppress(OSError):
                os.nice(19)
            cols, held = len(self.header), b""
            while block := os.read(read_end, 1 << 20):
                held += block
                whole = len(held) // (8 * cols)
                part.writelines(_csv_lines(
                    np.frombuffer(held, count=whole * cols).reshape(whole, cols)))
                held = held[whole * 8 * cols:]
            part.flush()
            status = 0
        finally:
            os._exit(status)

    def _reap(self):
        """Wait for the child; raise OSError if it failed."""
        status = os.waitpid(self._pid, 0)[1]
        self._pid = None
        if status != 0:
            raise OSError(f"cannot write {self.path}: the process formatting its rows "
                          f"exited with code {os.waitstatus_to_exitcode(status)}")

    def ready(self, n, *source):
        """Rows below ``n`` can be built from ``source``: where ``forks``
        holds, write those not yet sent into the pipe."""
        if not self.forks or n <= self._sent:
            return
        data = memoryview(np.asarray(self._rows(*source, self._sent, n), np.float64).tobytes())
        try:
            while data:
                data = data[os.write(self._pipe, data):]
        except BrokenPipeError:
            self._reap()
            raise
        self._sent = n

    def write(self, *source):
        """Write the table to ``path``; return how many processes wrote it:
        2 where a child was forked, else 1."""
        if not self.forks:
            with _replacing(self.path) as part:
                part.write(self._header())
                part.writelines(_csv_lines(self._rows(*source, 0, self.n_rows)))
            return 1
        self.ready(self.n_rows, *source)
        os.close(self._pipe)
        self._pipe = None
        self._reap()
        os.replace(self._part, self.path)
        return 2

    def close(self):
        """Kill and reap a child still alive, close the pipe, and delete the
        ".part" file if it is left."""
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        if self._pipe is not None:
            os.close(self._pipe)
            self._pipe = None
        self._part.unlink(missing_ok=True)


def _write_csv(path, header, rows):
    """Write ``rows`` (a table or a list of rows) under ``header``; return
    how many processes wrote them (see ``_TableWriter``)."""
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
    with _replacing(path) as f:
        f.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("ascii"))


def _exit_for(failures):
    """Print each invariant failure; exit 3 if there is one, else 0."""
    for f in failures:
        print(f"invariant failure: {f}", file=sys.stderr)
    return EXIT_INVARIANT if failures else EXIT_OK


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
        cfg = replace(cfg, **overrides)
    return cfg


def _fresh_out(path, names):
    """Make the output directory and delete the command's outputs ``names``
    from an earlier run there, so that a failure leaves none behind."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    for name in names:
        (out / name).unlink(missing_ok=True)
    return out


def _cmd_run(args):
    cfg = _load_config(args)
    out = _fresh_out(args.out, ("trajectory.csv", "plot.csv", "report.json", "timing.json"))
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

    failures = report.failures
    # the bits of traj.eta[-1], without forming eta at every save
    eta_T = traj.theta[-1] - traj.ell_minus_alpha * traj.phi[-1]
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
    parts = max(parts, _write_csv(
        out / "plot.csv",
        ["t", "e1", "bound", *report.components, "zeta_norm", "dissipation"],
        np.column_stack((report.times, report.e1, report.bound,
                         *report.components.values(),
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
    return _exit_for(failures)


def _parse_values(raw, kind):
    try:
        vals = [kind(v) for v in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"--values: {exc}") from exc
    if not vals:
        raise ConfigError("--values is empty")
    return vals


# sweep axis -> the kind of its values and the name of its ladder, looked up
# in this module at each call, so that a tracer's patch of the binding is seen
_SWEEPS = {"eps": (float, "yosida_convergence"), "n": (int, "galerkin_convergence"),
           "delta": (float, "contraction_sweep")}


def _cmd_sweep(args):
    cfg = _load_config(args)
    kind, ladder = _SWEEPS[args.axis]
    values = _parse_values(args.values, kind)
    out = _fresh_out(args.out, ("sweep.json", "sweep.csv"))
    try:
        rep = globals()[ladder](cfg, values)
    except ValueError as exc:
        # an inadmissible ladder, a delta base that cannot be built, or a
        # delta ladder without alpha = ell, on a one-mode basis or with a
        # delta that rounds away, refused before any solve; a failed build or
        # solve of a member is a LadderMemberError
        raise ConfigError(str(exc)) from exc
    payload = rep.to_dict()

    payload["axis"] = args.axis
    payload["config"] = serialize_config(cfg)
    payload["tool_version"] = __version__
    _json_dump(out / "sweep.json", payload)

    # every list of the payload is a per-member or per-pair column
    keys = [k for k, v in payload.items() if isinstance(v, list)]
    depth = max(len(payload[k]) for k in keys) if keys else 0
    _write_csv(out / "sweep.csv", keys,
               [[payload[k][j] if j < len(payload[k]) else "" for k in keys]
                for j in range(depth)])

    print(f"sweep over {args.axis}: {values}")
    for key in ("consecutive_total", "overshoot", "c_observed", "slope"):
        if key in payload:
            print(f"  {key}: {payload[key]}")
    return _exit_for(rep.failures)


def _cmd_selftest(args):
    out = args.out and _fresh_out(args.out, ("selftest.json",))
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
    if out:
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
    print(serialize_config(get_scenario(args.name)), end="")
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
    p_sweep.add_argument("--axis", required=True, choices=tuple(_SWEEPS))
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


def _out_of_memory(what, exc):
    """Report a problem too large for memory as a configuration error."""
    detail = f": {exc}" if str(exc) else ""
    print(f"config error: {what} does not fit in memory{detail}", file=sys.stderr)
    return EXIT_CONFIG


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
        if isinstance(exc.cause, MemoryError):
            return _out_of_memory(f"ladder member {exc.value!r}", exc.cause)
        print(f"sweep failure: {exc}", file=sys.stderr)
        # a member that cannot be built: its config, or its datum outside
        # the potential's domain
        if isinstance(exc.cause, (ConfigError, DomainError)):
            return EXIT_CONFIG
        return EXIT_BLOWUP
    except MemoryError as exc:
        return _out_of_memory("the problem", exc)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
