"""Acceptance criteria for the whole artifact.

Each test enforces one acceptance criterion at its stated tolerance and
prints a single PASS line on success (run with -s or -v to see them).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from phasemono import cli
from phasemono.config import build_problem, parse_config
from phasemono.dynamics import Schedule, solve
from phasemono.estimates import (
    contraction_sweep,
    energy_monitor,
    galerkin_convergence,
    yosida_convergence,
)
from phasemono.monotone import Stefan
from phasemono.scenarios import get_scenario
from phasemono.selftest import builtin_graphs


# a 2D field with an obstacle well and a scalar sign graph: the benchmark's
# 2D run at seed 5, on 16 modes per axis instead of 64
FIELD_2D = """\
[domain]
dims = 2
lengths = 1.0 1.0
modes = 16
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
seed = 5
"""


def report(line):
    print(f"ACCEPTANCE {line}")


def run_scenario(name, **overrides):
    cfg = get_scenario(name)
    if overrides:
        cfg = replace(cfg, **overrides)
    params, initial, schedule = build_problem(cfg)
    traj = solve(params, initial, schedule)
    return params, traj


def assert_n_ladder(name, cfg):
    diffs = galerkin_convergence(cfg, [8, 16, 32, 64]).consecutive_total
    assert np.all(diffs[1:] < diffs[:-1]), diffs
    assert diffs[-1] <= 1e-3
    report(f"5 (n-ladder, {name}): PASS  diffs "
           + " > ".join(f"{d:.2e}" for d in diffs)
           + f", final {diffs[-1]:.2e} <= 1e-3")


def assert_eps_ladder(name, cfg):
    rep = yosida_convergence(cfg, [1e-1, 1e-2, 1e-3, 1e-4])
    over = rep.overshoot
    assert np.all(np.diff(over) < 0), over
    diffs = rep.consecutive_total
    assert np.all(diffs[1:] < diffs[:-1]), diffs
    assert diffs[-1] <= 2e-2
    report(f"6 (eps-ladder, {name}): PASS  overshoot "
           + " > ".join(f"{o:.2e}" for o in over)
           + f"; Cauchy diffs final {diffs[-1]:.2e}")


def assert_dyadic_sweep(name, cfg):
    deltas = [0.02 * 2.0 ** -j for j in range(1, 9)]
    rep = contraction_sweep(cfg, deltas)
    assert abs(rep.slope - 1.0) <= 0.15
    assert rep.c_spread <= 2.0
    report(f"7 (contraction sweep, {name}): PASS  slope {rep.slope:.4f}, "
           f"C_obs in [{np.min(rep.c_observed):.3f}, {np.max(rep.c_observed):.3f}]")


class TestCriterion1ResolventOracle:
    """Closed-form/Newton resolvents match the bisection oracle to 1e-10 on
    10^3 random points per variant; Yosida maps satisfy the contraction,
    1/eps-Lipschitz, minimal-section and semigroup properties.  The
    ``graph-selftest`` rows carry these checks; the tests assert on them at
    the criterion's tolerances."""

    @pytest.mark.parametrize("name", sorted(builtin_graphs()))
    def test_oracle_equivalence(self, name, selftest_run):
        row = selftest_run.rows("graph", name)["resolvent_vs_oracle"]
        assert row["passed"] and row["worst"] <= 1e-10
        report(f"1 (oracle, {name}): PASS  worst |J - oracle| = {row['worst']:.2e}")

    @pytest.mark.parametrize("name", sorted(builtin_graphs()))
    def test_contraction_lipschitz_minimal_semigroup(self, name, selftest_run):
        rows = selftest_run.rows("graph", name)
        bounds = {"resolvent_contraction": 1e-12, "yosida_lipschitz": 1e-9,
                  "yosida_below_minimal_section": 1e-9, "semigroup_identity": 1e-9}
        for prop, bound in bounds.items():
            assert rows[prop]["passed"] and rows[prop]["worst"] <= bound, prop
        report(f"1 (properties, {name}): PASS  contraction "
               f"{rows['resolvent_contraction']['worst']:.1e}, "
               f"lipschitz {rows['yosida_lipschitz']['worst']:.1e}, "
               f"minimal {rows['yosida_below_minimal_section']['worst']:.1e}, "
               f"semigroup {rows['semigroup_identity']['worst']:.1e}")


class TestCriterion2GrowthBound:
    def test_stefan_growth_on_dense_grid(self):
        # |v| <= max(alpha1, alpha2) (1 + |r|) for every v in A(r)
        r = np.linspace(-100, 100, 200001)
        for a1, a2 in ((1.4, 0.9), (1.3, 0.7)):
            c = max(a1, a2)
            lo, hi = Stefan(a1, a2).value_interval(r)
            worst = max(float(np.max(np.abs(lo) - c * (1 + np.abs(r)))),
                        float(np.max(np.abs(hi) - c * (1 + np.abs(r)))))
            assert worst <= 1e-12, (a1, a2)
            report(f"2 (Stefan({a1:g},{a2:g}) growth): PASS  "
                   f"max |v| - C(1+|r|) = {worst:.2e}")

    @pytest.mark.parametrize("name", ["regular_sign", "log_sign", "obstacle_sign",
                                      "stefan_power"])
    def test_trajectory_selection_bound(self, name):
        params, traj = run_scenario(name)
        rep = energy_monitor(traj, params)
        assert rep.selection_ok
        report(f"2 (selection bound, {name}): PASS  margin {rep.selection_margin:.2e}")


class TestCriterion3LinearOracle:
    def test_rk45_matches_heat_semigroup(self):
        params, traj = run_scenario("heat_decay")
        ratio = traj.eta[-1][1] / traj.eta[0][1]
        err = abs(ratio - math.exp(-1.0))
        assert err <= 1e-4
        report(f"3 (rk45 heat decay): PASS  |ratio - e^-1| = {err:.2e}")

    def test_imex_first_order(self):
        cfg = get_scenario("heat_decay")
        errs, dts = [], (2e-2, 1e-2, 5e-3, 2.5e-3)
        for dt in dts:
            params, initial, _ = build_problem(
                replace(cfg, method="imex", dt=dt))
            traj = solve(params, initial, Schedule(method="imex", dt=dt, n_saves=11))
            errs.append(abs(traj.eta[-1][1] / traj.eta[0][1] - math.exp(-1.0)))
        slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
        assert abs(slope - 1.0) <= 0.2
        report(f"3 (imex order): PASS  measured order {slope:.3f}")


class TestCriterion4EnergyEstimate:
    @pytest.mark.parametrize("name", ["regular_sign", "log_sign", "obstacle_sign"])
    def test_gronwall_and_dissipation(self, name):
        params, traj = run_scenario(name)
        rep = energy_monitor(traj, params)
        assert rep.gronwall_ok
        assert rep.dissipation_min >= -1e-9
        margin = float(np.min(rep.bound - rep.e1))
        report(f"4 (energy, {name}): PASS  min(bound - E1) = {margin:.3g}, "
               f"dissipation >= {rep.dissipation_min:.2e}")

    def test_pair_dissipation(self):
        rep = contraction_sweep(get_scenario("contraction_base"), [0.05, 0.025])
        eta_min, phi_min = np.min(rep.pair_dissipation_min, axis=1)
        assert eta_min >= -1e-9
        assert phi_min >= -1e-9
        report(f"4 (pair dissipation): PASS  eta {eta_min:.2e}, phi {phi_min:.2e}")


class TestCriterion5GalerkinConvergence:
    def test_tanh_front_ladder(self):
        assert_n_ladder("tanh_front", get_scenario("tanh_front"))

    def test_field_2d_ladder(self):
        assert_n_ladder("2D field", parse_config(FIELD_2D))


class TestCriterion6YosidaConvergence:
    def test_obstacle_eps_ladder(self):
        assert_eps_ladder("obstacle_sign", get_scenario("obstacle_sign"))

    def test_field_2d_eps_ladder(self):
        assert_eps_ladder("2D field", parse_config(FIELD_2D))


class TestCriterion7ContinuousDependence:
    def test_identical_data_bitwise_identical(self):
        cfg = get_scenario("contraction_base")
        params, initial, schedule = build_problem(cfg)
        t1 = solve(params, initial, schedule)
        t2 = solve(params, initial, schedule)
        assert np.array_equal(t1.phi, t2.phi)
        assert np.array_equal(t1.theta, t2.theta)
        report("7 (uniqueness): PASS  identical data give bitwise-identical trajectories")

    def test_dyadic_sweep(self):
        assert_dyadic_sweep("contraction_base", get_scenario("contraction_base"))

    def test_dyadic_sweep_2d(self):
        # contraction_base on the unit square, its profiles constant in y
        cfg = replace(get_scenario("contraction_base"), dims=2, lengths=(1.0, 1.0),
                      eta0="cosine 0.4 2 0", phi0="cosine 0.6 1 0",
                      eta_star="cosine 0.3 1 0")
        assert_dyadic_sweep("2D contraction_base", cfg)


class TestCriterion8Reproducibility:
    def test_byte_identical_outputs(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = cli.main(["run", "--scenario", "obstacle_sign",
                             "--out", str(out), "--seed", "42"])
            assert code == 0
            outs.append(out)
        for fname in ("trajectory.csv", "plot.csv", "report.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname
        report("8 (reproducibility): PASS  trajectory.csv, plot.csv, report.json "
               "byte-identical across repeated runs")
