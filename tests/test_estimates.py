"""Energy monitor, Gronwall certificate, contraction and ladder tests."""

import dataclasses
import math

import numpy as np
import pytest

from phasemono import spectral
from phasemono.config import build_problem
from phasemono import estimates
from phasemono.dynamics import (
    BlowUpError,
    FieldCoeffs,
    InitialData,
    Schedule,
    envelope_integral,
    solve,
)
from phasemono.estimates import (
    ContractionSweepReport,
    LadderMemberError,
    constraint_overshoot,
    contraction_sweep,
    energy_monitor,
    first_estimate_constants,
    galerkin_convergence,
    gronwall_bound,
    stability_constants,
    yosida_convergence,
)
from phasemono.monotone import NonlocalSign, ResolventError
from phasemono.scenarios import get_scenario, scenario_names


def stack_of(initial, deltas=()):
    """The base initial data and one member per delta, the base with delta
    added to the mode-1 coefficient of phi0, as one stack."""
    phi0 = np.tile(initial.phi0.coeffs, (len(deltas) + 1, 1))
    phi0[1:, 1] += deltas
    return InitialData(eta0=FieldCoeffs(np.tile(initial.eta0.coeffs, (len(phi0), 1))),
                       phi0=FieldCoeffs(phi0), q_eps=np.full(len(phi0), initial.q_eps))


def run_scenario(name, **overrides):
    cfg = get_scenario(name)
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
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
        traj = solve(params, stack_of(initial, [0.0, 0.0]), schedule)

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

    def test_failures_name_each_broken_invariant_in_order(self):
        params, _, _, traj = run_scenario("zero")
        rep = energy_monitor(traj, params)
        assert rep.failures == ()
        # a dissipation integral or budget excess at the tolerance holds
        edge = dataclasses.replace(rep, dissipation_min=-1e-9,
                                   envelope_initial=rep.q_eps + 1e-9)
        assert edge.failures == ()
        broken = dataclasses.replace(rep, gronwall_ok=False, selection_ok=False,
                                     dissipation_min=-2e-9,
                                     envelope_initial=rep.q_eps + 2e-9)
        assert [f.split(" (")[0] for f in broken.failures] == [
            "energy exceeded the Gronwall bound",
            "selection norm violated the linear-growth bound",
            "graph dissipation integral went negative",
            "initial envelope exceeded its budget"]

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
    def test_requires_matched_coefficients(self, monkeypatch):
        cfg = get_scenario("regular_sign")

        def forbidden(*args):
            raise AssertionError("solve called")

        monkeypatch.setattr(estimates, "solve", forbidden)
        with pytest.raises(ValueError, match="alpha = ell"):
            contraction_sweep(cfg, [0.01, 0.005])

    def test_requires_two_modes(self, monkeypatch):
        # the perturbation shifts basis mode 1, which a one-mode basis lacks
        cfg = dataclasses.replace(get_scenario("contraction_base"), modes=1, quadrature=None,
                                  eta0="constant 0.1", phi0="constant 0.3", eta_star="zero")

        def forbidden(*args):
            raise AssertionError("solve called")

        monkeypatch.setattr(estimates, "solve", forbidden)
        monkeypatch.setattr(estimates, "prepare_initial", forbidden)
        with pytest.raises(ValueError, match="at least 2 modes"):
            contraction_sweep(cfg, [0.01, 0.005])

    def test_identical_data_zero_differences(self):
        # a member with the base's data follows the base row exactly, and
        # without a data difference there is no observed constant
        params, initial, schedule, _ = run_scenario("contraction_base")
        stack = stack_of(initial, [0.0])
        traj = solve(params, stack, schedule)
        columns = estimates._contraction_reports(params, stack, traj)
        assert [c.shape for c in columns] == [(4, 1), (4, 1), (2, 1)]
        rep = ContractionSweepReport(np.array([0.01]), *columns)
        assert rep.data_totals.tolist() == [0.0]
        assert rep.sol_totals.tolist() == [0.0]
        assert np.isnan(rep.c_observed).tolist() == [True]

    def test_members_are_the_base_plus_delta_e1(self, monkeypatch):
        # row 0 is the base exactly; row j adds the j-th delta, in decreasing
        # order, to the mode-1 coefficient of phi0 and leaves the rest alone
        cfg = get_scenario("contraction_base")
        _, initial, _ = build_problem(cfg)
        deltas = [0.0025, 0.01, 0.005]
        stacks = []

        def counted(p, init, sched):
            stacks.append(init)
            return solve(p, init, sched)

        monkeypatch.setattr(estimates, "solve", counted)
        contraction_sweep(cfg, deltas)
        [stack] = stacks
        phi0, eta0 = initial.phi0.coeffs, initial.eta0.coeffs
        assert stack.phi0.coeffs.tobytes() == np.stack(
            [phi0] + [phi0 + np.eye(len(phi0))[1] * d for d in (0.01, 0.005, 0.0025)]
        ).tobytes()
        assert stack.eta0.coeffs.tobytes() == np.stack([eta0] * 4).tobytes()

    def test_data_differences_are_the_mode1_shift(self):
        # f, eta* and eta0 are the base's in every row: their differences
        # are exactly 0, and phi0's is the shift of its mode-1 coefficient
        cfg = get_scenario("contraction_base")
        _, initial, _ = build_problem(cfg)
        deltas = [0.01, 0.005]
        rep = contraction_sweep(cfg, deltas)
        c1 = float(initial.phi0.coeffs[1])
        assert rep.data_diffs[0:3].tolist() == [[0.0, 0.0]] * 3
        assert rep.data_diffs[3].tolist() == [abs((c1 + d) - c1) for d in deltas]

    @pytest.mark.parametrize("deltas", [[1e-30, 1e-31], "same coefficient"])
    def test_ladder_that_rounds_away_refused_before_solving(self, monkeypatch, deltas):
        # a delta lost in the mode-1 coefficient leaves a member equal to the
        # base (or to another member), and NaN constants in the report
        cfg = get_scenario("contraction_base")
        _, initial, _ = build_problem(cfg)
        c1 = float(initial.phi0.coeffs[1])
        if deltas == "same coefficient":
            deltas = [0.01, float(np.nextafter(0.01, 1.0))]
            assert deltas[0] != deltas[1] and c1 + deltas[0] == c1 + deltas[1]

        def forbidden(*args):
            raise AssertionError("member built or solved")

        monkeypatch.setattr(estimates, "solve", forbidden)
        monkeypatch.setattr(estimates, "prepare_initial", forbidden)
        with pytest.raises(ValueError, match="own mode-1 coefficient"):
            contraction_sweep(cfg, deltas)

    def test_heat_decay_perturbation_linf_exact(self):
        # gamma = 0 decouples the order parameter: the perturbed flow starts
        # delta apart and contracts, so the sup-norm difference is delta
        cfg = get_scenario("heat_decay")
        deltas = [0.01, 0.005]
        rep = contraction_sweep(cfg, deltas)
        # data row 3 is phi0; solution row 2 is the sup-H norm of phi
        assert rep.data_diffs[3] == pytest.approx(deltas, abs=1e-12)
        assert rep.sol_diffs[2] == pytest.approx(deltas, abs=1e-12)

    def test_pair_dissipations_nonnegative(self):
        cfg = get_scenario("contraction_base")
        rep = contraction_sweep(cfg, [0.05, 0.025])
        eta_mins, phi_mins = rep.pair_dissipation_min
        assert np.all(eta_mins >= -1e-9)
        assert np.all(phi_mins >= -1e-9)

    def test_failures_name_each_negative_pair_dissipation(self):
        rep = ContractionSweepReport(
            deltas=np.array([0.02, 0.01]), data_diffs=np.ones((4, 2)),
            sol_diffs=np.ones((4, 2)),
            pair_dissipation_min=np.array([[-1e-9, -2e-9], [-3e-9, 0.0]]))
        assert rep.failures == (
            "pair dissipation of (zeta, eta) went negative (-2.000e-09) at delta 0.01",
            "pair dissipation of (xi, phi) went negative (-3.000e-09) at delta 0.02")

    def test_dyadic_sweep_linear_scaling(self):
        cfg = get_scenario("contraction_base")
        deltas = [0.02 * 2.0 ** -j for j in range(1, 7)]
        rep = contraction_sweep(cfg, deltas)
        assert rep.slope == pytest.approx(1.0, abs=0.15)
        assert rep.c_spread <= 2.0
        assert np.all(np.isfinite(rep.c_observed))

    def test_sweep_rows_match_pairwise_checks(self):
        # the stacked sweep solves the base once; each member's report equals
        # the comparison of two standalone solves, the base's and the
        # member's, the base with delta added to the mode-1 coefficient of phi0
        cfg = get_scenario("contraction_base")
        params, initial, schedule = build_problem(cfg)
        basis = params.basis
        deltas = [0.01, 0.0025]
        rep = contraction_sweep(cfg, deltas)
        base = solve(params, initial, schedule)
        for j, delta in enumerate(sorted(deltas, reverse=True)):
            phi0 = initial.phi0.coeffs.copy()
            phi0[1] += delta
            member = dataclasses.replace(initial, phi0=FieldCoeffs(phi0))
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
        cfg = get_scenario("contraction_base")
        params, _, _ = build_problem(cfg)
        shapes = []

        def counted(p, init, sched):
            shapes.append(np.shape(init.phi0.coeffs))
            return solve(p, init, sched)

        monkeypatch.setattr(estimates, "solve", counted)
        contraction_sweep(cfg, [0.01, 0.005, 0.0025])
        assert shapes == [(4, params.basis.total_modes)]

    @pytest.mark.parametrize("deltas", [[0.01, 0.0], [0.01, -0.01], [0.01], [0.01, 0.01],
                                        [0.01, 0.005, 0.01]])
    def test_inadmissible_ladder_refused_before_solving(self, monkeypatch, deltas):
        cfg = get_scenario("contraction_base")

        def forbidden(*args):
            raise AssertionError("solve called")

        monkeypatch.setattr(estimates, "solve", forbidden)
        with pytest.raises(ValueError, match="two distinct deltas, all positive"):
            contraction_sweep(cfg, deltas)

    def test_sweep_failure_names_the_member(self):
        cfg = get_scenario("contraction_base")
        with pytest.raises(LadderMemberError) as err:
            contraction_sweep(cfg, [0.01, 1e9])
        assert err.value.value == 1e9
        assert isinstance(err.value.cause, BlowUpError)

    @pytest.mark.parametrize("row, blamed", [(None, 0.01), (0, 0.01), (2, 0.005)])
    def test_sweep_failure_attribution(self, monkeypatch, row, blamed):
        # row 0 is the base; rows 1.. follow the deltas in decreasing order
        cfg = get_scenario("contraction_base")

        def fails(p, init, sched):
            raise BlowUpError(0.1, 1e9, "phi", row)

        monkeypatch.setattr(estimates, "solve", fails)
        with pytest.raises(LadderMemberError) as err:
            contraction_sweep(cfg, [0.0025, 0.01, 0.005])
        assert err.value.value == blamed


class TestLadders:
    def test_linear_dynamics_inside_coarse_span(self):
        # heat decay lives in the first two modes: refining changes nothing
        rep = galerkin_convergence(get_scenario("heat_decay"), [4, 8])
        # zero up to projection roundoff on the two quadrature grids
        assert np.all(rep.consecutive_total <= 1e-13)
        assert rep.failures == ()

    def test_tanh_front_ladder_decreases(self):
        rep = galerkin_convergence(get_scenario("tanh_front"), [8, 16, 32])
        assert rep.decreasing
        assert rep.rate < 0

    def test_eps_independent_when_graphs_inactive(self):
        # obstacle convex part is flat inside |phi| < 1 and the perturbation
        # graph is zero: trajectories cannot depend on eps
        cfg = dataclasses.replace(get_scenario("obstacle_sign"), graph="zero",
                                  phi0="cosine 0.3 1", eta0="cosine 0.2 1",
                                  gamma=0.1, t_final=0.1)
        rep = yosida_convergence(cfg, [1e-1, 1e-2, 1e-3])
        assert np.all(rep.consecutive_total == 0.0)

    def test_obstacle_overshoot_decreases(self):
        rep = yosida_convergence(get_scenario("obstacle_sign"), [1e-1, 1e-2, 1e-3])
        over = rep.overshoot
        assert np.all(np.diff(over) < 0)
        assert rep.decreasing

    def test_sign_selection_uniformly_bounded_in_eps(self):
        # |A_eps| <= |A^0| <= 1 for the pointwise sign perturbation
        cfg = get_scenario("regular_sign")
        for eps in (1e-1, 1e-2, 1e-3):
            params, initial, schedule = build_problem(dataclasses.replace(
                cfg, eps=eps, dt=min(cfg.dt, 0.25 * eps)))
            traj = solve(params, initial, schedule)
            rep = energy_monitor(traj, params)
            # L = 1, so the H-norm of a pointwise-bounded selection is <= 1
            assert np.max(rep.zeta_norms) <= 1.0 + 1e-9

    @pytest.mark.parametrize("case", ["obstacle_sign", "weighted_random"])
    def test_stacked_eps_ladder_matches_the_member_solves(self, tmp_path, case):
        # members with eps >= 4 dt: the stack's rows match the standalone
        # solves to rounding, and each row is reported as its member.  The
        # second config rebuilds a graph weight read from a file and seeded
        # random data for every member
        if case == "obstacle_sign":
            cfg = get_scenario("obstacle_sign")
        else:
            weight = tmp_path / "weight.csv"
            xs = np.linspace(0.0, 1.0, 11)
            np.savetxt(weight, np.column_stack([xs, 1.0 + 0.5 * xs]), delimiter=",")
            cfg = dataclasses.replace(get_scenario("regular_sign"), graph="weighted_power",
                                      graph_q=0.3, graph_weight=f"csv {weight}",
                                      eta0="random-smooth 0.5", phi0="random-smooth 0.4", seed=3)
        values = [1e-1, 1e-2, 4.0 * cfg.dt]
        rep = yosida_convergence(cfg, values)
        members = [build_problem(dataclasses.replace(cfg, eps=eps)) for eps in values]
        trajs = [solve(*member) for member in members]
        basis = members[0][0].basis
        overshoot = None
        if members[0][0].potential.variant == "obstacle":
            overshoot = np.array([constraint_overshoot(tr.phi, basis) for tr in trajs])
        ref = estimates._ladder_report(
            "eps", values, [basis] * 3, [(tr.phi, tr.eta) for tr in trajs], overshoot)
        assert (rep.overshoot is None) == (overshoot is None)
        for name in ("consecutive_phi", "consecutive_eta", "to_reference_total", "overshoot"):
            if getattr(ref, name) is not None:
                assert np.allclose(getattr(rep, name), getattr(ref, name),
                                   rtol=1e-12, atol=0.0), name
        assert rep.rate == pytest.approx(ref.rate, rel=1e-10)
        assert np.array_equal(rep.values, values)

    def test_eps_ladder_failure_not_of_a_row_names_the_first_eps(self, monkeypatch):
        def give_up(self, eps, v):
            raise ResolventError("gave up")

        monkeypatch.setattr(NonlocalSign, "_yosida", give_up)
        with pytest.raises(LadderMemberError) as err:
            yosida_convergence(get_scenario("obstacle_sign"), [1e-2, 1e-1])
        assert err.value.value == 0.1
        assert isinstance(err.value.cause, ResolventError)

    def test_n_ladder_names_a_failed_build_before_any_solve(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("solve called")

        def build(cfg):
            if cfg.modes == 16:
                raise MemoryError()
            return build_problem(cfg)

        monkeypatch.setattr(estimates, "solve", forbidden)
        monkeypatch.setattr(estimates, "build_problem", build)
        with pytest.raises(LadderMemberError) as err:
            galerkin_convergence(get_scenario("tanh_front"), [8, 16])
        assert err.value.value == 16
        assert isinstance(err.value.cause, MemoryError)

    @pytest.mark.parametrize("ladder, values", [
        (galerkin_convergence, [8]), (galerkin_convergence, [8, 8]),
        (galerkin_convergence, [8, 8, 16]), (yosida_convergence, [0.1, 0.01, 0.1]),
        (galerkin_convergence, [0, 8]), (yosida_convergence, [0.1]),
        (yosida_convergence, [0.1, -0.1])])
    def test_inadmissible_ladder_refused_before_any_member(self, monkeypatch, ladder, values):
        def forbidden(cfg):
            raise AssertionError("member built")

        monkeypatch.setattr(estimates, "build_problem", forbidden)
        with pytest.raises(ValueError, match="at least two distinct"):
            ladder(get_scenario("obstacle_sign"), values)

    def test_overshoot_helper(self):
        params, _, _, traj = run_scenario("obstacle_sign")
        assert constraint_overshoot(traj.phi, params.basis) > 0.0
