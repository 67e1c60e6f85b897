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
float table with enough nonzero cells by the numpy kernel of _floatfmt,
which gives the same bytes, and other rows through str.  A large CSV table
is formatted by one niced forked child as well as by this process, a large
trajectory.csv while the solve runs (see _TableWriter), and its bytes do
not change.  A CSV table is written under a
".part" name and renamed once it is whole, so a failed write or solve leaves
no partial table behind.  ``run`` and ``sweep`` delete their outputs of an
earlier run from --out before the build, so a failure leaves none of them.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import signal
import sys
import tempfile
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


# A table of at least this many cells (rows x columns) is formatted by a forked
# child as well as by this process, where fork exists: even the kernel takes
# about 0.3 µs a cell, too much to leave after the solve (see _TableWriter).
# Below this size a fork is not worth it.
_SPLIT_CELLS = 1 << 17

# A float table with fewer nonzero cells is formatted by str: the kernel's
# fixed cost of about 0.2 ms a call exceeds what it saves below about 240
# cells.  The kernel takes a table in blocks of whole rows, of at most
# _BLOCK_CELLS cells or of one row, so that a large table's text is not held
# whole.
_KERNEL_CELLS = 256
_BLOCK_CELLS = 8192


def _csv_lines(rows):
    """One line per row, as ASCII bytes, each float as repr writes it.  A
    float table with at least _KERNEL_CELLS nonzero cells is formatted by
    ``_floatfmt.csv_text``; other rows, of a smaller table or of Python
    floats and blank strings, by str."""
    if isinstance(rows, np.ndarray) and np.count_nonzero(rows) >= _KERNEL_CELLS:
        step = max(1, _BLOCK_CELLS // rows.shape[1])
        for lo in range(0, len(rows), step):
            yield from _floatfmt.csv_text(rows[lo:lo + step]).splitlines(keepends=True)
        return
    for row in rows:
        cells = row.tolist() if isinstance(row, np.ndarray) else row
        yield (",".join(map(str, cells)) + "\n").encode("ascii")


class _TableWriter:
    """Writes one CSV table to ``path``, formatting its rows in a forked
    child as well as in this process when the table is large.

    Both processes format a row with ``_csv_lines``, so a row of enough
    nonzero floats with the kernel of ``_floatfmt``.  That takes about a
    third of str's time, but the 101 rows of 8197 cells of a 64-mode 2D
    run still cost about 0.25 s of CPU.  The child formats them while the
    solve runs, on another core where there is one, and leaves this process
    the few rows still queued when the solve ends (``tail_rows``).

    ``rows(*source, lo, hi)`` builds rows ``lo`` to ``hi - 1`` (a table or a
    list of rows, of floats where the table forks) from the arrays in
    ``source``.  The table goes to ``path`` with ".part" appended, renamed
    to ``path`` once whole, and its bytes are those one process writes.

    ``forks`` holds where the table has at least ``_SPLIT_CELLS`` cells and
    one child was forked when the writer was created.  The child first
    calls ``os.nice(19)``, so that beside the computation producing the rows
    it yields the CPU rather than competes.  The rows pass through two
    unlinked temporary files beside ``path``: the row spool, of the float64
    rows this process builds, and the line spool, of the lines the child
    formats.

    - ``ready(n, *source)`` appends the rows below ``n`` not yet built to
      the row spool and puts their indices on a queue pipe, 4 bytes per
      write so each arrives whole.  The child takes indices from the queue
      and appends their lines to the line spool until the queue is closed
      and empty.
    - ``write(*source)`` closes the queue and takes the indices left on it
      as well.  Both processes take indices in increasing order, so row j's
      line is this process's if it took j (or j found the queue full), and
      else the next of the line spool.

    A refused fork leaves the table to this process, and a failed child
    raises OSError naming the file.  ``close``, also run on leaving a
    ``with`` block, kills and reaps a child still alive and closes the
    queue and the spools.
    """

    def __init__(self, path, header, n_rows, rows):
        self.path, self.header, self.n_rows, self._rows = path, header, n_rows, rows
        self._width = 8 * len(header)   # bytes of a row in the row spool
        self._queue, self._spools, self._pid = [], [], None
        self._spooled = self._queued = 0    # rows below these are spooled, queued
        self.tail_rows = None               # set by write
        self.forks = n_rows * len(header) >= _SPLIT_CELLS and hasattr(os, "fork") and self._fork()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _fork(self):
        """Fork the child; return False if the queue, a spool or the fork
        cannot be made."""
        # the child must not inherit unwritten output that it could write again
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            self._queue = list(os.pipe())
            os.set_blocking(self._queue[1], False)
            self._spools = [tempfile.TemporaryFile(dir=self.path.parent) for _ in range(2)]
            pid = os.fork()
        except OSError:
            self.close()
            return False
        if pid == 0:
            status = 1
            try:
                os.close(self._queue.pop())
                with contextlib.suppress(OSError):
                    os.nice(19)
                lines = self._spools[1]
                for j in iter(self._take, None):
                    lines.write(self._line(j))
                lines.flush()
                status = 0
            finally:
                os._exit(status)
        self._pid = pid
        return True

    def _take(self):
        """The next index on the queue, or None once it is closed and empty."""
        record = os.read(self._queue[0], 4)
        return int.from_bytes(record, "little") if record else None

    def _line(self, j):
        """Row j's line, from the row spool."""
        row = os.pread(self._spools[0].fileno(), self._width, j * self._width)
        return next(_csv_lines(np.frombuffer(row)[None]))

    def ready(self, n, *source):
        """Rows below ``n`` can be built from ``source``: where ``forks``
        holds, spool and queue those not yet spooled."""
        if not self.forks or n <= self._spooled:
            return
        spool = self._spools[0]
        spool.write(np.asarray(self._rows(*source, self._spooled, n), np.float64).tobytes())
        spool.flush()
        self._spooled = n
        with contextlib.suppress(BlockingIOError):      # the queue is full
            while self._queued < n:
                os.write(self._queue[1], self._queued.to_bytes(4, "little"))
                self._queued += 1

    def write(self, *source):
        """Write the table to ``path``; return how many processes formatted
        its rows: 2 where a child was forked, else 1.  ``tail_rows`` then
        holds how many rows this process formatted here: those it took from
        the queue or never queued, or all where no child was forked."""
        if self.forks:
            self.ready(self.n_rows, *source)
            os.close(self._queue.pop())
            mine = {j: self._line(j) for j in itertools.chain(
                iter(self._take, None), range(self._queued, self.n_rows))}
            self.tail_rows = len(mine)
            status = os.waitpid(self._pid, 0)[1]
            self._pid = None
            if status != 0:
                raise OSError(f"cannot write {self.path}: the process formatting its rows "
                              f"exited with code {os.waitstatus_to_exitcode(status)}")
            spool = self._spools[1]
            spool.seek(0)
            lines = (mine.pop(j) if j in mine else spool.readline() for j in range(self.n_rows))
        else:
            lines = _csv_lines(self._rows(*source, 0, self.n_rows))
            self.tail_rows = self.n_rows
        part = self.path.with_name(self.path.name + ".part")
        try:
            with part.open("wb") as out:
                out.write((",".join(self.header) + "\n").encode("ascii"))
                out.writelines(lines)
            os.replace(part, self.path)
        except BaseException:
            part.unlink(missing_ok=True)
            raise
        return 2 if self.forks else 1

    def close(self):
        """Kill and reap a child still alive, and close the queue and the
        spools."""
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        while self._queue:
            os.close(self._queue.pop())
        while self._spools:
            self._spools.pop().close()


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
        "tail_rows": table.tail_rows,
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
