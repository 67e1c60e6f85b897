"""Galerkin assembly, integrator, and mollifier tests."""

import dataclasses
import math

import numpy as np
import pytest

from phasemono import spectral
from phasemono.config import build_problem, with_overrides
from phasemono.dynamics import (
    BlowUpError,
    FieldCoeffs,
    Forcing,
    GalerkinState,
    InitialData,
    ModelParams,
    Schedule,
    StepFailure,
    assemble_rhs,
    mollify_forcing,
    prepare_initial,
    solve,
)
from phasemono.monotone import ScalarSign, ZeroGraph
from phasemono.potentials import obstacle_potential, regular_potential
from phasemono.scenarios import get_scenario


def make_params(n=4, L=math.pi, gamma=0.0, graph=None, potential=None,
                nu=1.0, k=1.0, ell=1.0, alpha=1.0, t_final=1.0, eps=0.1,
                eta_star=None, forcing=None, m_quad=None):
    basis = spectral.build_basis(1, L, n, m_quad=m_quad)
    m = basis.total_modes
    return ModelParams(
        ell=ell, alpha=alpha, k=k, nu=nu, gamma=gamma, t_final=t_final,
        basis=basis,
        eta_star=eta_star or FieldCoeffs(np.zeros(m), "eta_star"),
        forcing=forcing or Forcing.zero(m, t_final),
        graph=graph or ZeroGraph(),
        potential=potential or regular_potential(),
        eps=eps)


def one_step(p, a, b, dt, method):
    """(phi, theta) after solving from (a, b) at t = 0 to t = dt with one
    save interval: exactly one step for imex/rk4, the adaptive path for rk45."""
    dm = p.ell - p.alpha
    init = InitialData(eta0=FieldCoeffs(b - dm * a), phi0=FieldCoeffs(a),
                       phi0_grid=None, beta_hat_l1=0.0, q_eps=0.0)
    traj = solve(dataclasses.replace(p, t_final=dt), init,
                 Schedule(method=method, dt=dt, n_saves=2))
    return traj.phi[-1], traj.theta[-1]


def eta_form_rhs(p):
    """Right-hand side (d phi/dt, d eta/dt) of the Galerkin system in the
    original (phi, eta) variables for a pointwise graph, assembled
    independently of the solver's (phi, theta) form."""
    basis = p.basis
    lam = basis.eigenvalues
    dm = p.ell - p.alpha
    star = p.eta_star.coeffs
    beta = p.potential.beta_graph()

    def rhs(t, a, e):
        grid = spectral.to_grid(basis, a)
        xi = spectral.from_grid(basis, beta.yosida(p.eps, grid))
        piv = spectral.from_grid(basis, p.potential.pi(grid))
        zeta = spectral.from_grid(basis, p.graph.yosida(p.eps, spectral.to_grid(basis, e)))
        da = -p.nu * lam * a - xi - piv + p.gamma * (e - p.alpha * a + star)
        de = (-p.k * lam * e + p.k * p.alpha * lam * a - zeta + p.forcing.at(t)
              + p.k * lam * star - dm * da)
        return da, de

    return rhs


def rk4_samples(rhs, a, e, ts, dt):
    """Classical RK4 with the solver's substep rule, sampled at ts."""
    phis, etas = [a], [e]
    for t0, t1 in zip(ts[:-1], ts[1:]):
        nsub = max(1, math.ceil((t1 - t0) / dt - 1e-12))
        h = (t1 - t0) / nsub
        t = t0
        for _ in range(nsub):
            k1 = rhs(t, a, e)
            k2 = rhs(t + h / 2, a + h / 2 * k1[0], e + h / 2 * k1[1])
            k3 = rhs(t + h / 2, a + h / 2 * k2[0], e + h / 2 * k2[1])
            k4 = rhs(t + h, a + h * k3[0], e + h * k3[1])
            a = a + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            e = e + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            t += h
        phis.append(a)
        etas.append(e)
    return np.array(phis), np.array(etas)


class TestMollifier:
    def test_zero_stays_zero(self):
        ts = np.linspace(0, 1, 33)
        out = mollify_forcing(ts, np.zeros_like(ts), 0.1)
        assert np.all(out == 0.0)

    def test_constant_against_closed_form(self):
        # -eps g'' + g = 1, g(0) = g(1) = 0 has the explicit cosh solution
        ts = np.linspace(0, 1, 1001)
        eps = 0.01
        out = mollify_forcing(ts, np.ones_like(ts), eps)
        exact = 1.0 - np.cosh((ts - 0.5) / math.sqrt(eps)) / math.cosh(0.5 / math.sqrt(eps))
        assert np.max(np.abs(out - exact)) <= 1e-4

    def test_l2_error_decreases_with_eps(self):
        ts = np.linspace(0, 1, 801)
        f = np.ones_like(ts)
        errs = []
        for eps in (1e-1, 1e-2, 1e-3):
            g = mollify_forcing(ts, f, eps)
            errs.append(math.sqrt(float(np.trapezoid((g - f) ** 2, ts))))
        assert errs[0] > errs[1] > errs[2]

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            mollify_forcing(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 0.1)

    def test_matrix_valued_samples(self):
        ts = np.linspace(0, 2, 101)
        vals = np.stack([np.sin(math.pi * ts / 2), np.ones_like(ts)], axis=1)
        out = mollify_forcing(ts, vals, 0.05)
        assert out.shape == vals.shape
        assert np.all(out[0] == 0.0) and np.all(out[-1] == 0.0)

    def test_forcing_wrapper(self):
        f = Forcing.constant(np.array([1.0, 0.0]), 1.0)
        g = f.mollified(0.01, n_samples=501)
        assert np.all(g.coeffs[0] == 0.0) and np.all(g.coeffs[-1] == 0.0)
        mid = g.at(0.5)
        assert mid[0] == pytest.approx(1.0 - 1.0 / math.cosh(5.0), abs=1e-3)


class TestAssembly:
    def test_pure_heat_decay_form(self):
        # gamma = 0, zero graph, zero data in phi: each theta mode decays as
        # a scalar heat equation, and the phi equation is untouched
        p = make_params(gamma=0.0)
        b = np.array([0.0, 2.0, 0.0, 1.0])
        state = GalerkinState(0.0, np.zeros(4), b)
        da, db = assemble_rhs(p, state)
        assert np.allclose(db, -p.k * p.basis.eigenvalues * b, atol=1e-14)
        assert np.allclose(da, 0.0, atol=1e-14)

    def test_zero_state_is_equilibrium(self):
        p = make_params(gamma=0.7, graph=ScalarSign())
        state = GalerkinState(0.0, np.zeros(4), np.zeros(4))
        da, db = assemble_rhs(p, state)
        assert np.all(da == 0.0) and np.all(db == 0.0)

    def test_constant_state_stationarity(self):
        # phi = c constant, A = 0, f = 0, eta* = 0; choosing
        # theta = (beta_eps(c) + pi(c))/gamma + ell*c cancels the phi-equation
        gamma = 0.8
        p = make_params(gamma=gamma)
        c = 0.4
        beta = p.potential.beta_graph()
        d = (beta.yosida(p.eps, c) + p.potential.pi(c)) / gamma + p.ell * c
        sqrt_l = math.sqrt(p.basis.lengths[0])
        a = np.array([c * sqrt_l, 0, 0, 0])     # constant-mode coefficient
        b = np.array([d * sqrt_l, 0, 0, 0])
        da, db = assemble_rhs(p, GalerkinState(0.0, a, b))
        assert np.max(np.abs(da)) <= 1e-12
        assert np.max(np.abs(db)) <= 1e-12

    def test_equilibrium_fixed_by_all_integrators(self):
        p = make_params(gamma=0.8)
        sqrt_l = math.sqrt(p.basis.lengths[0])
        c = 0.4
        beta = p.potential.beta_graph()
        d = (beta.yosida(p.eps, c) + p.potential.pi(c)) / 0.8 + p.ell * c
        a = np.array([c * sqrt_l, 0, 0, 0])
        b = np.array([d * sqrt_l, 0, 0, 0])
        for method in ("imex", "rk4", "rk45"):
            a1, b1 = one_step(p, a, b, 1e-2, method)
            assert np.max(np.abs(a1 - a)) <= 1e-13
            assert np.max(np.abs(b1 - b)) <= 1e-13


class TestStep:
    def test_imex_heat_mode_formula(self):
        p = make_params(gamma=0.0)
        b = np.array([0.0, 1.0, 0.0, 0.0])
        dt = 0.05
        _, b1 = one_step(p, np.zeros(4), b, dt, "imex")
        lam1 = p.basis.eigenvalues[1]
        assert b1[1] == pytest.approx(1.0 / (1.0 + dt * p.k * lam1), abs=1e-15)

    def test_zero_state_stays_zero(self):
        p = make_params(gamma=0.5, graph=ScalarSign())
        for method in ("imex", "rk4", "rk45"):
            a1, b1 = one_step(p, np.zeros(4), np.zeros(4), 1e-2, method)
            assert np.all(a1 == 0.0) and np.all(b1 == 0.0)

    def test_rk4_local_error_scaling(self):
        # one fourth-order step has local error ~ dt^5: halving dt divides
        # the single-step error by about 2^5
        p = make_params(gamma=0.6, nu=0.3, k=0.4)
        a0 = np.array([0.3, -0.2, 0.1, 0.05])
        b0 = np.array([0.5, 0.1, -0.3, 0.2])

        def exact(dt):
            sched = Schedule(method="rk45", dt=dt, tol=1e-13, n_saves=2)
            init = prepare_initial(
                p.basis, spectral.to_grid(p.basis, b0 - (p.ell - p.alpha) * a0),
                spectral.to_grid(p.basis, a0), p.potential, p.eps)
            pp = dataclasses.replace(p, t_final=dt)
            tr = solve(pp, init, sched)
            return tr.phi[-1], tr.theta[-1]

        errs = []
        for dt in (0.2, 0.1):
            ea, eb = exact(dt)
            a1, b1 = one_step(p, a0, b0, dt, "rk4")
            errs.append(max(np.max(np.abs(a1 - ea)), np.max(np.abs(b1 - eb))))
        ratio = errs[0] / errs[1]
        assert 20 <= ratio <= 48


class TestSolve:
    def test_heat_decay_semigroup(self):
        p = make_params(gamma=0.0, t_final=1.0)
        init = prepare_initial(
            p.basis, spectral.to_grid(p.basis, np.array([0.0, 1.0, 0, 0])),
            np.zeros(p.basis.m_quad), p.potential, p.eps)
        traj = solve(p, init, Schedule(method="rk45", tol=1e-8, n_saves=51))
        ratio = traj.eta[-1][1] / traj.eta[0][1]
        assert abs(ratio - math.exp(-1.0)) <= 1e-4

    def test_imex_first_order(self):
        p = make_params(gamma=0.0, t_final=1.0)
        init = prepare_initial(
            p.basis, spectral.to_grid(p.basis, np.array([0.0, 1.0, 0, 0])),
            np.zeros(p.basis.m_quad), p.potential, p.eps)
        errs, dts = [], (2e-2, 1e-2, 5e-3)
        for dt in dts:
            traj = solve(p, init, Schedule(method="imex", dt=dt, n_saves=11))
            errs.append(abs(traj.eta[-1][1] / traj.eta[0][1] - math.exp(-1.0)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.2)

    def test_rk4_fourth_order_on_smooth_nonlinear_run(self):
        cfg = with_overrides(
            get_scenario("regular_sign"), graph="zero", modes=8,
            t_final=0.1, method="rk4")
        params, init, _ = build_problem(cfg)
        ref = solve(params, init, Schedule(method="rk45", tol=1e-12, n_saves=11))
        errs, dts = [], (2e-3, 1e-3, 5e-4)
        for dt in dts:
            tr = solve(params, init, Schedule(method="rk4", dt=dt, n_saves=11))
            errs.append(np.max(np.abs(tr.phi[-1] - ref.phi[-1]))
                        + np.max(np.abs(tr.theta[-1] - ref.theta[-1])))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.2)

    def test_zero_data_zero_trajectory(self):
        params, init, sched = build_problem(get_scenario("zero"))
        traj = solve(params, init, sched)
        assert np.all(traj.phi == 0.0) and np.all(traj.theta == 0.0)
        assert np.all(traj.zeta == 0.0) and np.all(traj.xi == 0.0)

    def test_bitwise_determinism(self):
        params, init, sched = build_problem(get_scenario("regular_sign"))
        t1 = solve(params, init, sched)
        t2 = solve(params, init, sched)
        assert np.array_equal(t1.phi, t2.phi)
        assert np.array_equal(t1.theta, t2.theta)
        assert np.array_equal(t1.zeta, t2.zeta)

    def test_sample_times_cover_interval(self):
        params, init, sched = build_problem(get_scenario("regular_sign"))
        traj = solve(params, init, sched)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == params.t_final
        assert np.all(np.diff(traj.times) > 0)

    def test_change_of_variable_consistency(self):
        cfg = with_overrides(get_scenario("regular_sign"), method="rk4")
        params, init, sched = build_problem(cfg)
        traj = solve(params, init, sched)
        phi, eta = rk4_samples(eta_form_rhs(params), init.phi0.coeffs,
                               init.eta0.coeffs, traj.times, sched.dt)
        assert np.max(np.abs(traj.eta - eta)) <= 1e-9
        assert np.max(np.abs(traj.phi - phi)) <= 1e-9

    def test_normalization_invariance(self):
        cfg = get_scenario("regular_sign")
        ph, ih, sched = build_problem(cfg)
        pv, iv, _ = build_problem(with_overrides(cfg, normalization="v"))
        th = solve(ph, ih, sched)
        tv = solve(pv, iv, sched)
        for j in (0, 50, 100):
            gh = spectral.to_grid(ph.basis, th.phi[j])
            gv = spectral.to_grid(pv.basis, tv.phi[j])
            assert np.max(np.abs(gh - gv)) <= 1e-9

    def test_blowup_detected(self):
        # explicit RK4 far beyond its stability limit must be reported,
        # not silently clipped
        cfg = with_overrides(get_scenario("tanh_front"), method="rk4", dt=0.05)
        params, init, sched = build_problem(cfg)
        with pytest.raises(BlowUpError) as err:
            solve(params, init, sched)
        assert 0 < err.value.time <= params.t_final

    def test_rejection_cascade_reported(self):
        p = make_params(gamma=0.0, t_final=1.0)
        bad = Forcing(np.array([0.0, 1.0]),
                      np.full((2, p.basis.total_modes), np.nan))
        p = p.with_data(forcing=bad)
        init = prepare_initial(p.basis, np.zeros(p.basis.m_quad),
                               np.zeros(p.basis.m_quad), p.potential, p.eps)
        with pytest.raises(StepFailure):
            solve(p, init, Schedule(method="rk45", tol=1e-8, n_saves=5))


class TestTwoDimensional:
    def test_heat_decay_on_rectangle(self):
        # mode (1, 0) on the square of side pi decays at rate k*lambda = 1
        basis = spectral.build_basis(2, (math.pi, math.pi), 3)
        m = basis.total_modes
        p = ModelParams(
            ell=1.0, alpha=1.0, k=1.0, nu=1.0, gamma=0.0, t_final=1.0,
            basis=basis, eta_star=FieldCoeffs(np.zeros(m)),
            forcing=Forcing.zero(m, 1.0), graph=ZeroGraph(),
            potential=regular_potential(), eps=0.1)
        eta0 = np.zeros(m)
        eta0[1 * 3 + 0] = 1.0
        init = prepare_initial(basis, spectral.to_grid(basis, eta0),
                               np.zeros(basis.grid_shape), p.potential, p.eps)
        traj = solve(p, init, Schedule(method="rk45", tol=1e-8, n_saves=21))
        ratio = traj.eta[-1][3] / traj.eta[0][3]
        assert abs(ratio - math.exp(-1.0)) <= 1e-4

    def test_2d_nonlinear_run_from_config(self):
        cfg = with_overrides(
            get_scenario("regular_sign"), dims=2, lengths=(1.0, 1.0),
            modes=6, quadrature=None, phi0="cosine 0.5 1 1",
            eta0="cosine 0.3 1 0", eta_star="zero", t_final=0.05, saves=21)
        params, init, sched = build_problem(cfg)
        traj = solve(params, init, sched)
        assert np.all(np.isfinite(traj.phi))
        assert traj.phi.shape == (21, 36)


class TestWeightedPowerGraph:
    def test_negative_weight_profile_rejected(self):
        from phasemono.config import ConfigError
        cfg = with_overrides(
            get_scenario("regular_sign"), graph="weighted_power",
            graph_q=0.5, graph_weight="cosine 0.5 1", t_final=0.1)
        with pytest.raises(ConfigError):
            build_problem(cfg)

    def test_spatially_varying_weight_run(self, tmp_path):
        path = tmp_path / "weight.csv"
        xs = np.linspace(0, 1, 11)
        np.savetxt(path, np.column_stack([xs, 1.0 + xs]), delimiter=",")
        cfg = with_overrides(
            get_scenario("regular_sign"), graph="weighted_power",
            graph_q=0.5, graph_weight=f"csv {path}", t_final=0.2)
        params, init, sched = build_problem(cfg)
        assert params.graph.growth_constant == pytest.approx(2.0, abs=0.05)
        traj = solve(params, init, sched)
        assert np.all(np.isfinite(traj.theta))

    def test_constant_weight_run(self):
        cfg = with_overrides(
            get_scenario("regular_sign"), graph="weighted_power",
            graph_q=0.5, graph_weight="constant 1.5", t_final=0.2)
        params, init, sched = build_problem(cfg)
        assert params.graph.growth_constant == pytest.approx(1.5)
        traj = solve(params, init, sched)
        assert np.all(np.isfinite(traj.theta))


class TestMollifyFlag:
    def test_config_mollifies_forcing(self):
        cfg = with_overrides(get_scenario("regular_sign"), mollify_forcing=True)
        params, _, _ = build_problem(cfg)
        assert np.all(params.forcing.coeffs[0] == 0.0)
        assert np.all(params.forcing.coeffs[-1] == 0.0)
        mid = params.forcing.at(params.t_final / 2)
        assert np.max(np.abs(mid)) > 0.0


class TestInitialData:
    def test_envelope_budget_dominates(self):
        # Gibbs overshoot of the projection is absorbed by the eps-scaled term
        cfg = get_scenario("obstacle_sign")
        params, init, _ = build_problem(cfg)
        from phasemono.dynamics import envelope_integral
        assert envelope_integral(params, init.phi0.coeffs) <= init.q_eps + 1e-12

    def test_domain_validation(self):
        basis = spectral.build_basis(1, 1.0, 8)
        with pytest.raises(ValueError):
            prepare_initial(basis, np.zeros(16), 1.2 * np.ones(16),
                            obstacle_potential(1.0), 0.1)

    def test_rejects_nonpositive_coefficients(self):
        with pytest.raises(ValueError):
            make_params(k=-1.0)
        with pytest.raises(ValueError):
            make_params(t_final=0.0)


class TestForcing:
    def test_linear_interpolation(self):
        f = Forcing(np.array([0.0, 1.0, 2.0]),
                    np.array([[0.0], [2.0], [0.0]]))
        assert f.at(0.5)[0] == pytest.approx(1.0)
        assert f.at(1.5)[0] == pytest.approx(1.0)
        assert f.at(-1.0)[0] == 0.0
        assert f.at(3.0)[0] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Forcing(np.array([0.0]), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            Forcing(np.array([0.0, 0.0]), np.zeros((2, 2)))
