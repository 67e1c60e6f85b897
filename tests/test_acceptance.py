"""Acceptance criteria for the whole artifact.

Each test enforces one acceptance criterion at its stated tolerance and
prints a single PASS line on success (run with -s or -v to see them).
"""

import math

import numpy as np
import pytest

from phasemono import cli
from phasemono.config import build_problem, with_overrides
from phasemono.dynamics import Schedule, solve
from phasemono.estimates import (
    ContractionData,
    contraction_check,
    contraction_sweep,
    energy_monitor,
    galerkin_convergence,
    yosida_convergence,
)
from phasemono.monotone import Stefan, YosidaGraph, resolvent_oracle
from phasemono.scenarios import get_scenario
from phasemono.selftest import builtin_graphs


def report(line):
    print(f"ACCEPTANCE {line}")


def run_scenario(name, **overrides):
    cfg = get_scenario(name)
    if overrides:
        cfg = with_overrides(cfg, **overrides)
    params, initial, schedule = build_problem(cfg)
    traj = solve(params, initial, schedule)
    return params, traj


class TestCriterion1ResolventOracle:
    """Closed-form/Newton resolvents match the bisection oracle to 1e-10 on
    10^3 random points per variant; Yosida maps satisfy the contraction,
    1/eps-Lipschitz, minimal-section and semigroup properties."""

    N_POINTS = 1000

    @pytest.mark.parametrize("name", sorted(builtin_graphs()))
    def test_oracle_equivalence(self, name):
        # one production call on the whole sample, one oracle call per point
        g = builtin_graphs()[name]
        rng = np.random.default_rng(314159)
        if g.is_nonlocal:
            draws = [(rng.standard_normal(10) * 10 ** rng.uniform(-2, 1),
                      10 ** rng.uniform(-3, 0)) for _ in range(self.N_POINTS)]
            v = np.array([d[0] for d in draws])
            eps = np.array([d[1] for d in draws])
            j = g.resolvent(eps[:, None], v)
        else:
            v = rng.uniform(-5, 5, self.N_POINTS)
            eps = 10 ** rng.uniform(-3, 0, self.N_POINTS)
            j = np.asarray(g.resolvent(eps, v))
        o = np.array([resolvent_oracle(g, e, vi) for e, vi in zip(eps, v)])
        worst = float(np.max(np.abs(j - o)))
        assert worst <= 1e-10
        report(f"1 (oracle, {name}): PASS  worst |J - oracle| = {worst:.2e}")

    @pytest.mark.parametrize("name", sorted(builtin_graphs()))
    def test_contraction_lipschitz_minimal_semigroup(self, name):
        g = builtin_graphs()[name]
        rng = np.random.default_rng(2718)
        if g.is_nonlocal:
            draws = [(rng.standard_normal(8) * 10 ** rng.uniform(-2, 1),
                      rng.standard_normal(8) * 10 ** rng.uniform(-2, 1),
                      10 ** rng.uniform(-1.3, 0)) for _ in range(self.N_POINTS)]
            v = np.array([d[0] for d in draws])
            w = np.array([d[1] for d in draws])
            eps = np.array([d[2] for d in draws])[:, None]
            dvw = np.linalg.norm(v - w, axis=1)
            worst_c = float(np.max(np.linalg.norm(
                g.resolvent(eps, v) - g.resolvent(eps, w), axis=1) - dvw))
            worst_l = float(np.max(np.linalg.norm(
                g.yosida(eps, v) - g.yosida(eps, w), axis=1) - dvw / eps[:, 0]))
            worst_m = float(np.max(np.linalg.norm(g.yosida(eps, v), axis=1)
                                   - np.linalg.norm(g.minimal_section(v), axis=1)))
            lhs = YosidaGraph(g, eps).yosida(0.2, v)
            worst_s = float(np.max(np.abs(lhs - g.yosida(eps + 0.2, v))))
        else:
            x = rng.uniform(-5, 5, self.N_POINTS)
            y = rng.uniform(-5, 5, self.N_POINTS)
            eps = 10 ** rng.uniform(-1.3, 0, self.N_POINTS)
            jx = np.asarray(g.resolvent(eps, x))
            jy = np.asarray(g.resolvent(eps, y))
            worst_c = float(np.max(np.abs(jx - jy) - np.abs(x - y)))
            ax = np.asarray(g.yosida(eps, x))
            ay = np.asarray(g.yosida(eps, y))
            worst_l = float(np.max(np.abs(ax - ay) - np.abs(x - y) / eps))
            lo, hi = g.domain
            pad = 1e-3 if g.open_domain[0] else 0.0
            xd = rng.uniform(max(lo, -5) + pad, min(hi, 5) - pad, self.N_POINTS)
            m0 = np.abs(np.asarray(g.minimal_section(xd)))
            worst_m = float(np.max(np.abs(np.asarray(g.yosida(eps, xd))) - m0))
            xs = rng.uniform(-4, 4, 64)
            worst_s = 0.0
            for e, d in ((0.2, 0.3), (0.5, 0.1)):
                lhs = np.asarray(YosidaGraph(g, e).yosida(d, xs))
                worst_s = max(worst_s, float(np.max(np.abs(
                    lhs - np.asarray(g.yosida(e + d, xs))))))
        assert worst_c <= 1e-12, "resolvent contraction"
        assert worst_l <= 1e-9, "Yosida Lipschitz bound"
        assert worst_m <= 1e-9, "minimal-section bound"
        assert worst_s <= 1e-9, "semigroup identity"
        report(f"1 (properties, {name}): PASS  contraction {worst_c:.1e}, "
               f"lipschitz {worst_l:.1e}, minimal {worst_m:.1e}, semigroup {worst_s:.1e}")


class TestCriterion2GrowthBound:
    def test_stefan_growth_on_dense_grid(self):
        a1, a2 = 1.4, 0.9
        g = Stefan(a1, a2)
        c = max(a1, a2)
        r = np.linspace(-100, 100, 200001)
        lo, hi = g.value_interval(r)
        worst = max(float(np.max(np.abs(lo) - c * (1 + np.abs(r)))),
                    float(np.max(np.abs(hi) - c * (1 + np.abs(r)))))
        assert worst <= 1e-12
        report(f"2 (Stefan growth): PASS  max |v| - C(1+|r|) = {worst:.2e}")

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
                with_overrides(cfg, method="imex", dt=dt))
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
        cfg = get_scenario("contraction_base")
        params, initial, schedule = build_problem(cfg)
        data = ContractionData(initial=initial, eta_star=params.eta_star,
                               forcing=params.forcing)
        from phasemono.estimates import perturb_initial
        rep = contraction_check(params, data,
                                perturb_initial(params, data, 0.05), schedule)
        assert rep.pair_dissipation_eta_min >= -1e-9
        assert rep.pair_dissipation_phi_min >= -1e-9
        report(f"4 (pair dissipation): PASS  eta {rep.pair_dissipation_eta_min:.2e}, "
               f"phi {rep.pair_dissipation_phi_min:.2e}")


class TestCriterion5GalerkinConvergence:
    def test_tanh_front_ladder(self):
        cfg = get_scenario("tanh_front")

        def factory(n):
            p, i, _ = build_problem(with_overrides(cfg, modes=n, quadrature=None))
            return p, i

        _, _, schedule = build_problem(cfg)
        rep = galerkin_convergence(factory, [8, 16, 32, 64], schedule)
        diffs = rep.consecutive_total
        assert np.all(diffs[1:] < diffs[:-1]), diffs
        assert rep.final_diff <= 1e-3
        report("5 (n-ladder): PASS  diffs "
               + " > ".join(f"{d:.2e}" for d in diffs)
               + f", final {rep.final_diff:.2e} <= 1e-3")


class TestCriterion6YosidaConvergence:
    def test_obstacle_eps_ladder(self):
        cfg = get_scenario("obstacle_sign")

        def factory(eps):
            dt = min(cfg.dt, 0.25 * eps)
            p, i, _ = build_problem(with_overrides(cfg, eps=eps, dt=dt))
            return p, i

        _, _, schedule = build_problem(cfg)
        rep = yosida_convergence(factory, [1e-1, 1e-2, 1e-3, 1e-4], schedule,
                                 track_overshoot=True)
        over = rep.extras["overshoot"]
        assert np.all(np.diff(over) < 0), over
        diffs = rep.consecutive_total
        assert np.all(diffs[1:] < diffs[:-1]), diffs
        assert rep.final_diff <= 2e-2
        report("6 (eps-ladder): PASS  overshoot "
               + " > ".join(f"{o:.2e}" for o in over)
               + f"; Cauchy diffs final {rep.final_diff:.2e}")


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
        cfg = get_scenario("contraction_base")
        params, initial, schedule = build_problem(cfg)
        data = ContractionData(initial=initial, eta_star=params.eta_star,
                               forcing=params.forcing)
        deltas = [0.02 * 2.0 ** -j for j in range(1, 9)]
        rep = contraction_sweep(params, data, deltas, schedule)
        assert abs(rep.slope - 1.0) <= 0.15
        assert rep.c_spread <= 2.0
        report(f"7 (contraction sweep): PASS  slope {rep.slope:.4f}, "
               f"C_obs in [{np.min(rep.c_observed):.3f}, {np.max(rep.c_observed):.3f}]")


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
