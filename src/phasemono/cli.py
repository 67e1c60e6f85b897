"""Command-line interface: scenario runs, parameter sweeps, graph self-tests.

Exit codes: 0 success, 2 configuration error, 3 invariant or acceptance
failure, 4 numerical failure (blow-up, step-control collapse, or a resolvent
root-find that does not converge).

All deterministic outputs (trajectory.csv, plot.csv, report.json, sweep.*)
are byte-identical across repeated runs with the same config and seed; wall
clock timings go to the separate timing.json, which is excluded from that
guarantee.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__, spectral
from .config import ConfigError, build_problem, parse_config, serialize_config, with_overrides
from .dynamics import BlowUpError, StepFailure, solve
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


def _fmt(x):
    return repr(float(x))


def _write_trajectory_csv(path, traj, basis):
    m = basis.total_modes
    cols = (["t"]
            + [f"phi_{i}" for i in range(m)]
            + [f"theta_{i}" for i in range(m)]
            + ["eta_h", "eta_v", "phi_h", "phi_v"])
    lines = [",".join(cols)]
    eta = traj.eta
    for j, t in enumerate(traj.times):
        row = [_fmt(t)]
        row += [_fmt(v) for v in traj.phi[j]]
        row += [_fmt(v) for v in traj.theta[j]]
        row += [_fmt(spectral.h_norm(basis, eta[j])),
                _fmt(spectral.v_norm(basis, eta[j])),
                _fmt(spectral.h_norm(basis, traj.phi[j])),
                _fmt(spectral.v_norm(basis, traj.phi[j]))]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _write_plot_csv(path, report):
    comps = report.components
    cols = ["t", "e1", "bound", "eta_h2_half", "grad_eta_int", "dphi_int",
            "phi_v2_scaled", "envelope", "zeta_norm", "dissipation"]
    lines = [",".join(cols)]
    for j, t in enumerate(report.times):
        row = [t, report.e1[j], report.bound[j],
               comps["eta_h2_half"][j], comps["grad_eta_int"][j],
               comps["dphi_int"][j], comps["phi_v2_scaled"][j],
               comps["envelope"][j], report.zeta_norms[j],
               report.dissipation[j]]
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


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
    traj = solve(params, initial, schedule)
    report = energy_monitor(traj, params)
    wall = time.perf_counter() - t0

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
            "method": traj.stats["method"],
        },
        "energy": report.to_dict(),
        "invariant_failures": failures,
    }
    _write_trajectory_csv(out / "trajectory.csv", traj, params.basis)
    _write_plot_csv(out / "plot.csv", report)
    _json_dump(out / "report.json", payload)
    _json_dump(out / "timing.json", {"wall_clock_seconds": wall})

    print(f"run: {traj.stats['steps']} steps, "
          f"final |eta|_H = {payload['trajectory']['final_eta_h']:.6g}, "
          f"outputs in {out}")
    for f in failures:
        print(f"invariant failure: {f}", file=sys.stderr)
    return EXIT_INVARIANT if failures else EXIT_OK


def _parse_values(raw, kind):
    vals = [kind(v) for v in raw.replace(",", " ").split()]
    if not vals:
        raise ConfigError("--values is empty")
    return vals


def _cmd_sweep(args):
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.axis == "n":
        values = _parse_values(args.values, int)

        def factory(n):
            c = with_overrides(cfg, modes=n, quadrature=None)
            p, i, _ = build_problem(c)
            return p, i

        _, _, schedule = build_problem(cfg)
        rep = galerkin_convergence(factory, values, schedule)
        payload = rep.to_dict()
    elif args.axis == "eps":
        values = _parse_values(args.values, float)

        def factory(eps):
            dt = min(cfg.dt, 0.25 * eps) if cfg.method == "imex" else cfg.dt
            c = with_overrides(cfg, eps=eps, dt=dt)
            p, i, _ = build_problem(c)
            return p, i

        _, _, schedule = build_problem(cfg)
        track = cfg.potential == "obstacle"
        rep = yosida_convergence(factory, values, schedule, track_overshoot=track)
        payload = rep.to_dict()
    elif args.axis == "delta":
        if cfg.alpha != cfg.ell:
            raise ConfigError("contraction sweeps require alpha = ell")
        values = _parse_values(args.values, float)
        params, initial, schedule = build_problem(cfg)
        data = ContractionData(initial=initial, eta_star=params.eta_star,
                               forcing=params.forcing)
        rep = contraction_sweep(params, data, values, schedule)
        payload = rep.to_dict()
    else:
        raise ConfigError(f"unknown sweep axis {args.axis!r}")

    payload["axis"] = args.axis
    payload["config"] = serialize_config(cfg)
    payload["tool_version"] = __version__
    _json_dump(out / "sweep.json", payload)

    keys = [k for k, v in payload.items()
            if isinstance(v, list) and len(v) in (len(values), len(values) - 1)]
    lines = [",".join(keys)]
    depth = max(len(payload[k]) for k in keys) if keys else 0
    for j in range(depth):
        lines.append(",".join(
            _fmt(payload[k][j]) if j < len(payload[k]) else "" for k in keys))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")

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
    if args.action == "show":
        if not args.name:
            print("scenario name required", file=sys.stderr)
            return EXIT_CONFIG
        print(scenario_text(args.name), end="")
        return EXIT_OK
    print(f"unknown scenarios action {args.action!r}", file=sys.stderr)
    return EXIT_CONFIG


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
        p.add_argument("--method", choices=("imex", "rk4", "rk45"), default=None,
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


if __name__ == "__main__":
    sys.exit(main())
