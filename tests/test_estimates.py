"""Energy monitor, Gronwall certificate, contraction and ladder tests."""

import dataclasses
import math

import numpy as np
import pytest

from phasemono import spectral
from phasemono.config import build_problem, with_overrides
from phasemono import estimates
from phasemono.dynamics import BlowUpError, Schedule, envelope_integral, solve
from phasemono.estimates import (
    ContractionData,
    LadderMemberError,
    constraint_overshoot,
    contraction_sweep,
    energy_monitor,
    first_estimate_constants,
    galerkin_convergence,
    gronwall_bound,
    perturb_initial,
    stability_constants,
    yosida_convergence,
)
from phasemono.scenarios import get_scenario, scenario_names


def run_scenario(name, **overrides):
    cfg = get_scenario(name)
    if overrides:
        cfg = with_overrides(cfg, **overrides)
    params, initial, schedule = build_problem(cfg)
    traj = solve(params, initial, schedule)
    return params, initial, schedule, traj


class TestConstants:
    def test_first_estimate_block(self):
        params, _, _, _ = run_scenario("regular_sign")
        c = first_estimate_constants(params)
        cpi = params.potential.lipschitz_pi
        c1 = max(cpi, abs(params.potential.pi(0.0)))
        assert c["C1"] == c1
        assert c["C2"] == pytest.approx(
            2 * (2 * (params.ell - params.alpha) ** 2 + 0.125 + 8 * params.gamma ** 2))
        assert c["C3"] == pytest.approx(params.k * params.alpha ** 2 / params.nu)
        assert c["C4"] == pytest.approx(
            2 * (4 * c1 ** 2 + 8 * (params.nu - params.alpha * params.gamma) ** 2)
            / params.nu)
        assert c["C5"] == max(c["C2"], c["C3"], c["C4"])

    def test_stability_block(self):
        params, _, _, _ = run_scenario("contraction_base")
        t = stability_constants(params)
        k, ell, nu, gamma = params.k, params.ell, params.nu, params.gamma
        cpi = params.potential.lipschitz_pi
        assert t["M"] == pytest.approx(
            max((4 * gamma ** 2 * k * ell ** 2 + 2 * nu * cpi) / nu, 0.5))
        assert t["C0"] == pytest.approx(max(0.5, k * ell ** 2 / (2 * nu)))
        assert t["C1"] == pytest.approx(math.exp(params.t_final * t["M"]))
        assert t["C3"] == pytest.approx(min(0.5, k * ell ** 2 / (2 * nu), ell ** 2 / 2))
        assert t["C4"] == pytest.approx(t["C2"] / t["C3"])


class TestEnergyMonitor:
    def test_zero_trajectory_components_vanish(self):
        params, _, _, traj = run_scenario("zero")
        rep = energy_monitor(traj, params)
        assert np.all(rep.e1 == 0.0)
        for series in rep.components.values():
            assert np.all(series == 0.0)
        assert rep.dissipation_min == 0.0
        assert rep.gronwall_ok

    def test_heat_decay_energy_identity(self):
        # single decaying mode: 1/2|eta(t)|^2 + k int |grad eta|^2 is conserved
        params, _, _, traj = run_scenario("heat_decay")
        rep = energy_monitor(traj, params)
        combo = rep.components["eta_h2_half"] + rep.components["grad_eta_int"]
        assert np.max(np.abs(combo - combo[0])) <= 1e-3 * combo[0]

    def test_obstacle_envelope_equals_overshoot_integral(self):
        params, _, _, traj = run_scenario("obstacle_sign")
        rep = energy_monitor(traj, params)
        for j in (0, 50, 100):
            grid = spectral.to_grid(params.basis, traj.phi[j])
            overshoot = np.maximum(np.abs(grid) - 1.0, 0.0)
            direct = spectral.grid_integral(params.basis, overshoot ** 2) / (2 * params.eps)
            assert rep.components["envelope"][j] == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("name", ["regular_sign", "log_sign", "obstacle_sign",
                                      "stefan_power", "tanh_front"])
    def test_gronwall_certificate(self, name):
        params, _, _, traj = run_scenario(name)
        rep = energy_monitor(traj, params)
        assert rep.gronwall_ok
        assert np.all(rep.e1 <= rep.bound)
        assert rep.gronwall_margin_min >= 0.0

    @pytest.mark.parametrize("name", ["regular_sign", "obstacle_sign", "stefan_power"])
    def test_selection_growth_bound(self, name):
        params, _, _, traj = run_scenario(name)
        rep = energy_monitor(traj, params)
        assert rep.selection_ok
        c = params.graph.growth_constant
        eta_h = np.sqrt(np.sum(traj.eta ** 2, axis=1))
        assert np.all(rep.zeta_norms <= c * (1 + eta_h) + 1e-9)

    @pytest.mark.parametrize("name", ["regular_sign", "log_sign", "obstacle_sign"])
    def test_graph_dissipation_nonnegative(self, name):
        params, _, _, traj = run_scenario(name)
        rep = energy_monitor(traj, params)
        assert rep.dissipation_min >= -1e-9

    @pytest.mark.parametrize("name", scenario_names())
    def test_envelope_series_matches_the_per_save_quadrature(self, name):
        params, _, _, traj = run_scenario(name)
        got = energy_monitor(traj, params).components["envelope"]
        alone = np.array([envelope_integral(params, phi) for phi in traj.phi])
        # within a few ulps of an order-one energy; the obstacle well's
        # envelope is the square of |phi| - 1, which cancels, so the bound
        # is absolute
        assert got.shape == alone.shape
        assert np.max(np.abs(got - alone)) <= 1e-15

    def test_a_stacked_trajectory_is_refused_before_any_work(self, monkeypatch):
        params, initial, schedule, _ = run_scenario("contraction_base")
        traj = solve(params, estimates._stack_initial([initial] * 3), schedule)

        def forbidden(*args):
            raise AssertionError("envelope_integral called")

        monkeypatch.setattr(estimates, "envelope_integral", forbidden)
        m = params.basis.total_modes
        with pytest.raises(ValueError, match=rf"\(saves, modes\) = \(101, {m}\); "
                                             rf"got \(101, 3, {m}\)"):
            energy_monitor(traj, params)

    def test_initial_envelope_within_budget(self):
        params, initial, _, traj = run_scenario("obstacle_sign")
        rep = energy_monitor(traj, params)
        assert rep.envelope_initial <= rep.q_eps + 1e-12
        assert envelope_integral(params, initial.phi0.coeffs) == pytest.approx(
            rep.envelope_initial)

    def test_companion_quantities_on_heat_decay(self):
        # eta = e^{-t} v_1 with lambda_1 = 1: the Laplacian and the time
        # derivative both equal -eta, so every companion quantity reduces to
        # the same closed-form integral
        params, _, _, traj = run_scenario("heat_decay")
        rep = energy_monitor(traj, params)
        amp0 = spectral.h_norm(params.basis, traj.eta[0])
        l2 = amp0 * math.sqrt((1.0 - math.exp(-2.0)) / 2.0)
        assert rep.laplacian_eta_l2 == pytest.approx(l2, rel=1e-3)
        assert rep.dt_eta_l2 == pytest.approx(l2, rel=1e-3)
        assert rep.grad_eta_final == pytest.approx(amp0 * math.exp(-1.0), rel=1e-6)
        assert rep.laplacian_phi_l2 == 0.0

    def test_gronwall_margin_on_heat_decay(self):
        # phi = 0 and 1/2 |eta|^2 + k int |grad eta|^2 is conserved, so E1
        # stays at 1/2 |eta0|^2 while the bound grows: the smallest
        # log-margin is log(2 D) - log(|eta0|^2 / 2), at t = 0
        params, initial, _, traj = run_scenario("heat_decay")
        rep = energy_monitor(traj, params)
        d, _ = gronwall_bound(params, initial, traj.times)
        e1_0 = 0.5 * spectral.h_norm(params.basis, traj.eta[0]) ** 2
        assert rep.gronwall_margin_t == 0.0
        assert rep.gronwall_margin_min == pytest.approx(
            math.log(2.0 * d) - math.log(e1_0), rel=1e-12)
        assert rep.gronwall_margin_min == pytest.approx(
            float(np.min(np.log(rep.bound) - np.log(rep.e1))), rel=1e-12)
        report = rep.to_dict()
        assert (report["gronwall_margin_min"], report["gronwall_margin_t"]) == (
            rep.gronwall_margin_min, 0.0)

    def test_gronwall_margin_negative_control(self):
        # a trajectory double whose eta is scaled by s has s^2 times the
        # energy (phi = 0 on heat_decay): past the margin, the certificate
        # must fail
        params, _, _, traj = run_scenario("heat_decay")
        margin = energy_monitor(traj, params).gronwall_margin_min
        s = math.exp(0.5 * (margin + 1.0))
        scaled = dataclasses.replace(traj, theta=s * traj.theta, dtheta=s * traj.dtheta)
        rep = energy_monitor(scaled, params)
        assert rep.gronwall_margin_min == pytest.approx(-1.0, rel=1e-9)
        assert rep.gronwall_margin_t == 0.0
        assert not rep.gronwall_ok

    def test_quadrature_warning_on_sparse_sampling(self):
        params, initial, _, _ = run_scenario("regular_sign")
        traj = solve(params, initial, Schedule(method="imex", dt=5e-4, n_saves=9))
        rep = energy_monitor(traj, params)
        assert rep.quadrature_warning

    def test_bound_is_positive_and_grows(self):
        params, initial, _, traj = run_scenario("regular_sign")
        d, c5 = gronwall_bound(params, initial)
        assert d > 0 and c5 > 0
        rep = energy_monitor(traj, params)
        assert np.all(np.diff(rep.bound) >= 0)


class TestContraction:
    def make_data(self, params, initial):
        return ContractionData(initial=initial, eta_star=params.eta_star,
                               forcing=params.forcing)

    def test_requires_matched_coefficients(self, monkeypatch):
        params, initial, schedule, _ = run_scenario("regular_sign")
        data = self.make_data(params, initial)

        def forbidden(*args):
            raise AssertionError("solve called")

        monkeypatch.setattr(estimates, "solve", forbidden)
        with pytest.raises(ValueError, match="alpha = ell"):
            contraction_sweep(params, data, [0.01, 0.005], schedule)

    def test_requires_two_modes(self, monkeypatch):
        # the perturbation shifts basis mode 1, which a one-mode basis lacks
        cfg = with_overrides(get_scenario("contraction_base"), modes=1, quadrature=None,
                             eta0="constant 0.1", phi0="constant 0.3", eta_star="zero")
        params, initial, schedule = build_problem(cfg)
        data = self.make_data(params, initial)

        def forbidden(*args):
            raise AssertionError("solve called")

        monkeypatch.setattr(estimates, "solve", forbidden)
        monkeypatch.setattr(estimates, "perturb_initial", forbidden)
        with pytest.raises(ValueError, match="at least 2 modes"):
            contraction_sweep(params, data, [0.01, 0.005], schedule)

    def test_identical_data_zero_differences(self):
        # a member with the base's data follows the base row exactly, and
        # without a data difference there is no observed constant
        params, initial, schedule, _ = run_scenario("contraction_base")
        data = self.make_data(params, initial)
        traj = solve(params, estimates._stack_initial([initial, initial]), schedule)
        (rep,) = estimates._contraction_reports(params, data, [data], traj)
        assert rep.data_total == 0.0
        assert rep.sol_total == 0.0
        assert rep.c_observed is None

    def test_heat_decay_perturbation_linf_exact(self):
        # gamma = 0 decouples the order parameter: the perturbed flow starts
        # delta apart and contracts, so the sup-norm difference is delta
        params, initial, schedule, _ = run_scenario("heat_decay")
        data = self.make_data(params, initial)
        deltas = [0.01, 0.005]
        rep = contraction_sweep(params, data, deltas, schedule)
        for delta, member in zip(deltas, rep.reports):
            assert member.data_diff_phi0 == pytest.approx(delta, abs=1e-12)
            assert member.sol_linf_h_phi == pytest.approx(delta, abs=1e-12)

    def test_pair_dissipations_nonnegative(self):
        params, initial, schedule, _ = run_scenario("contraction_base")
        data = self.make_data(params, initial)
        rep = contraction_sweep(params, data, [0.05, 0.025], schedule)
        for member in rep.reports:
            assert member.pair_dissipation_eta_min >= -1e-9
            assert member.pair_dissipation_phi_min >= -1e-9

    def test_dyadic_sweep_linear_scaling(self):
        params, initial, schedule, _ = run_scenario("contraction_base")
        data = self.make_data(params, initial)
        deltas = [0.02 * 2.0 ** -j for j in range(1, 7)]
        rep = contraction_sweep(params, data, deltas, schedule)
        assert rep.slope == pytest.approx(1.0, abs=0.15)
        assert rep.c_spread <= 2.0
        assert np.all(np.isfinite(rep.c_observed))

    def test_sweep_rows_match_pairwise_checks(self):
        # the stacked sweep solves the base once; each member's report equals
        # the comparison of two standalone solves, the member's and the base's
        params, initial, schedule, _ = run_scenario("contraction_base")
        basis = params.basis
        data = self.make_data(params, initial)
        deltas = [0.01, 0.0025]
        rep = contraction_sweep(params, data, deltas, schedule)
        base = solve(params, initial, schedule)
        for j, delta in enumerate(sorted(deltas, reverse=True)):
            member = perturb_initial(params, data, delta).initial
            traj = solve(params, member, schedule)
            sol_total = 0.0
            for d in (base.eta - traj.eta, base.phi - traj.phi):
                sol_total += float(np.max(np.sqrt(np.sum(d * d, axis=1))))
                v2 = np.sum((1.0 + basis.eigenvalues) * d * d, axis=1)
                sol_total += math.sqrt(float(np.trapezoid(v2, base.times)))
            # the member shares f and eta* with the base: those differences are 0
            data_total = (spectral.h_norm(basis, initial.eta0.coeffs - member.eta0.coeffs)
                          + spectral.h_norm(basis, initial.phi0.coeffs - member.phi0.coeffs))
            assert rep.sol_totals[j] == pytest.approx(sol_total, rel=1e-12, abs=0)
            assert rep.data_totals[j] == data_total
            assert rep.c_observed[j] == pytest.approx(sol_total / data_total, rel=1e-12, abs=0)

    def test_sweep_is_one_stacked_solve(self, monkeypatch):
        params, initial, schedule, _ = run_scenario("contraction_base")
        data = self.make_data(params, initial)
        shapes = []

        def counted(p, init, sched):
            shapes.append(np.shape(init.phi0.coeffs))
            return solve(p, init, sched)

        monkeypatch.setattr(estimates, "solve", counted)
        contraction_sweep(params, data, [0.01, 0.005, 0.0025], schedule)
        assert shapes == [(4, params.basis.total_modes)]

    @pytest.mark.parametrize("deltas", [[0.01, 0.0], [0.01, -0.01], [0.01], [0.01, 0.01],
                                        [0.01, 0.005, 0.01]])
    def test_inadmissible_ladder_refused_before_solving(self, monkeypatch, deltas):
        params, initial, schedule, _ = run_scenario("contraction_base")
        data = self.make_data(params, initial)

        def forbidden(*args):
            raise AssertionError("solve called")

        monkeypatch.setattr(estimates, "solve", forbidden)
        with pytest.raises(ValueError, match="two distinct deltas, all positive"):
            contraction_sweep(params, data, deltas, schedule)

    def test_sweep_failure_names_the_member(self):
        params, initial, schedule, _ = run_scenario("contraction_base")
        data = self.make_data(params, initial)
        with pytest.raises(LadderMemberError) as err:
            contraction_sweep(params, data, [0.01, 1e9], schedule)
        assert err.value.value == 1e9
        assert isinstance(err.value.cause, BlowUpError)

    @pytest.mark.parametrize("row, blamed", [(None, 0.01), (0, 0.01), (2, 0.005)])
    def test_sweep_failure_attribution(self, monkeypatch, row, blamed):
        # row 0 is the base; rows 1.. follow the deltas in decreasing order
        params, initial, schedule, _ = run_scenario("contraction_base")
        data = self.make_data(params, initial)

        def fails(p, init, sched):
            raise BlowUpError(0.1, 1e9, "phi", row)

        monkeypatch.setattr(estimates, "solve", fails)
        with pytest.raises(LadderMemberError) as err:
            contraction_sweep(params, data, [0.0025, 0.01, 0.005], schedule)
        assert err.value.value == blamed


class TestLadders:
    def test_linear_dynamics_inside_coarse_span(self):
        # heat decay lives in the first two modes: refining changes nothing
        cfg = get_scenario("heat_decay")

        def factory(n):
            p, i, _ = build_problem(with_overrides(cfg, modes=n, quadrature=None))
            return p, i

        _, _, schedule = build_problem(cfg)
        rep = galerkin_convergence(factory, [4, 8], schedule)
        # zero up to projection roundoff on the two quadrature grids
        assert np.all(rep.consecutive_total <= 1e-13)

    def test_tanh_front_ladder_decreases(self):
        cfg = get_scenario("tanh_front")

        def factory(n):
            p, i, _ = build_problem(with_overrides(cfg, modes=n, quadrature=None))
            return p, i

        _, _, schedule = build_problem(cfg)
        rep = galerkin_convergence(factory, [8, 16, 32], schedule)
        assert rep.decreasing
        assert rep.rate < 0

    def test_eps_independent_when_graphs_inactive(self):
        # obstacle convex part is flat inside |phi| < 1 and the perturbation
        # graph is zero: trajectories cannot depend on eps
        cfg = with_overrides(get_scenario("obstacle_sign"), graph="zero",
                             phi0="cosine 0.3 1", eta0="cosine 0.2 1",
                             gamma=0.1, t_final=0.1)

        def factory(eps):
            p, i, _ = build_problem(with_overrides(cfg, eps=eps))
            return p, i

        _, _, schedule = build_problem(cfg)
        rep = yosida_convergence(factory, [1e-1, 1e-2, 1e-3], schedule)
        assert np.all(rep.consecutive_total == 0.0)

    def test_obstacle_overshoot_decreases(self):
        cfg = get_scenario("obstacle_sign")

        def factory(eps):
            dt = min(cfg.dt, 0.25 * eps)
            p, i, _ = build_problem(with_overrides(cfg, eps=eps, dt=dt))
            return p, i

        _, _, schedule = build_problem(cfg)
        rep = yosida_convergence(factory, [1e-1, 1e-2, 1e-3], schedule)
        over = rep.overshoot
        assert np.all(np.diff(over) < 0)
        assert rep.decreasing

    def test_sign_selection_uniformly_bounded_in_eps(self):
        # |A_eps| <= |A^0| <= 1 for the pointwise sign perturbation
        cfg = get_scenario("regular_sign")
        for eps in (1e-1, 1e-2, 1e-3):
            params, initial, schedule = build_problem(with_overrides(
                cfg, eps=eps, dt=min(cfg.dt, 0.25 * eps)))
            traj = solve(params, initial, schedule)
            rep = energy_monitor(traj, params)
            # L = 1, so the H-norm of a pointwise-bounded selection is <= 1
            assert np.max(rep.zeta_norms) <= 1.0 + 1e-9

    @pytest.mark.parametrize("ladder, values", [
        (galerkin_convergence, [8]), (galerkin_convergence, [8, 8]),
        (galerkin_convergence, [8, 8, 16]), (yosida_convergence, [0.1, 0.01, 0.1]),
        (galerkin_convergence, [0, 8]), (yosida_convergence, [0.1]),
        (yosida_convergence, [0.1, -0.1])])
    def test_inadmissible_ladder_refused_before_any_member(self, ladder, values):
        def forbidden(value):
            raise AssertionError("factory called")

        with pytest.raises(ValueError, match="at least two distinct"):
            ladder(forbidden, values, Schedule(method="imex", dt=1e-3))

    def test_overshoot_helper(self):
        params, _, _, traj = run_scenario("obstacle_sign")
        assert constraint_overshoot(traj, params.basis) > 0.0
