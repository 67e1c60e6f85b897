"""Galerkin assembly, forcing, integrator and blow-up tests."""

import dataclasses
import math

import numpy as np
import pytest

from phasemono import dynamics, spectral
from phasemono.config import _GRAPHS, ScenarioConfig, build_problem
from phasemono.dynamics import (
    METHODS,
    BlowUpError,
    FieldCoeffs,
    Forcing,
    InitialData,
    ModelParams,
    Schedule,
    StepFailure,
    _check_state,
    _Rhs,
    prepare_initial,
    solve,
)
from phasemono.monotone import ScalarSign, Stefan, SubdiffBetaHat, WeightedPower, ZeroGraph
from phasemono.potentials import PotentialSpec, envelope
from phasemono.scenarios import get_scenario, scenario_names


def make_params(n=4, L=math.pi, gamma=0.0, graph=None, potential=None,
                nu=1.0, k=1.0, ell=1.0, alpha=1.0, t_final=1.0, eps=0.1,
                eta_star=None, forcing=None, m_quad=None):
    basis = spectral.build_basis(1, L, n, m_quad=m_quad)
    m = basis.total_modes
    return ModelParams(
        ell=ell, alpha=alpha, k=k, nu=nu, gamma=gamma, t_final=t_final,
        basis=basis,
        eta_star=eta_star or FieldCoeffs(np.zeros(m)),
        forcing=forcing or Forcing.constant(np.zeros(m), t_final),
        graph=graph or ZeroGraph(),
        potential=potential or PotentialSpec("regular"),
        eps=eps)


def one_step(p, a, b, dt, method):
    """(phi, theta) after solving from (a, b) at t = 0 to t = dt with one
    save interval: exactly one step for imex/rk4, the adaptive path for rk45."""
    dm = p.ell - p.alpha
    init = InitialData(eta0=FieldCoeffs(b - dm * a), phi0=FieldCoeffs(a),
                       q_eps=0.0)
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


class TestAssembly:
    def test_pure_heat_decay_form(self):
        # gamma = 0, zero graph, zero data in phi: each theta mode decays as
        # a scalar heat equation, and the phi equation is untouched
        p = make_params(gamma=0.0)
        b = np.array([0.0, 2.0, 0.0, 1.0])
        da, db = _Rhs(p).full(0.0, np.stack((np.zeros(4), b)))
        assert np.allclose(db, -p.k * p.basis.eigenvalues * b, atol=1e-14)
        assert np.allclose(da, 0.0, atol=1e-14)

    def test_zero_state_is_equilibrium(self):
        p = make_params(gamma=0.7, graph=ScalarSign())
        da, db = _Rhs(p).full(0.0, np.zeros((2, 4)))
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
        da, db = _Rhs(p).full(0.0, np.stack((a, b)))
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
        cfg = dataclasses.replace(
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

    @pytest.mark.parametrize("method", METHODS)
    def test_on_save_sees_each_stored_save(self, method):
        params, init, _ = build_problem(
            dataclasses.replace(get_scenario("regular_sign"), t_final=0.05))
        sched = Schedule(method=method, dt=1e-4, tol=1e-6, n_saves=6)
        seen = []

        def on_save(j, times, states):
            # rows up to j are final when save j is handed out
            seen.append((j, times.copy(), states[:j + 1].copy()))

        traj = solve(params, init, sched, on_save=on_save)
        plain = solve(params, init, sched)
        assert [j for j, _, _ in seen] == list(range(sched.n_saves))
        for j, times, states in seen:
            assert np.array_equal(times, traj.times)
            assert np.array_equal(states[:, 0], traj.phi[:j + 1])
            assert np.array_equal(states[:, 1], traj.theta[:j + 1])
        for name in ("phi", "theta", "zeta", "xi", "dphi", "dtheta"):
            assert np.array_equal(getattr(traj, name), getattr(plain, name)), name
        assert traj.stats == plain.stats

    def test_sample_times_cover_interval(self):
        params, init, sched = build_problem(get_scenario("regular_sign"))
        traj = solve(params, init, sched)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == params.t_final
        assert np.all(np.diff(traj.times) > 0)

    def test_change_of_variable_consistency(self):
        cfg = dataclasses.replace(get_scenario("regular_sign"), method="rk4")
        params, init, sched = build_problem(cfg)
        traj = solve(params, init, sched)
        phi, eta = rk4_samples(eta_form_rhs(params), init.phi0.coeffs,
                               init.eta0.coeffs, traj.times, sched.dt)
        assert np.max(np.abs(traj.eta - eta)) <= 1e-9
        assert np.max(np.abs(traj.phi - phi)) <= 1e-9

    def test_blowup_detected(self):
        # explicit RK4 far beyond its stability limit must be reported,
        # not silently clipped
        cfg = dataclasses.replace(get_scenario("tanh_front"), method="rk4", dt=0.05)
        params, init, sched = build_problem(cfg)
        with pytest.raises(BlowUpError) as err:
            solve(params, init, sched)
        assert 0 < err.value.time <= params.t_final

    def test_rejection_cascade_reported(self):
        p = make_params(gamma=0.0, t_final=1.0)
        bad = Forcing(np.array([0.0, 1.0]),
                      np.full((2, p.basis.total_modes), np.nan))
        p = dataclasses.replace(p, forcing=bad)
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
            forcing=Forcing.constant(np.zeros(m), 1.0), graph=ZeroGraph(),
            potential=PotentialSpec("regular"), eps=0.1)
        eta0 = np.zeros(m)
        eta0[1 * 3 + 0] = 1.0
        init = prepare_initial(basis, spectral.to_grid(basis, eta0),
                               np.zeros(basis.grid_shape), p.potential, p.eps)
        traj = solve(p, init, Schedule(method="rk45", tol=1e-8, n_saves=21))
        ratio = traj.eta[-1][3] / traj.eta[0][3]
        assert abs(ratio - math.exp(-1.0)) <= 1e-4

    def test_2d_nonlinear_run_from_config(self):
        cfg = dataclasses.replace(
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
        cfg = dataclasses.replace(
            get_scenario("regular_sign"), graph="weighted_power",
            graph_q=0.5, graph_weight="cosine 0.5 1", t_final=0.1)
        with pytest.raises(ConfigError):
            build_problem(cfg)

    def test_spatially_varying_weight_run(self, tmp_path):
        path = tmp_path / "weight.csv"
        xs = np.linspace(0, 1, 11)
        np.savetxt(path, np.column_stack([xs, 1.0 + xs]), delimiter=",")
        cfg = dataclasses.replace(
            get_scenario("regular_sign"), graph="weighted_power",
            graph_q=0.5, graph_weight=f"csv {path}", t_final=0.2)
        params, init, sched = build_problem(cfg)
        assert params.graph.growth_constant == pytest.approx(2.0, abs=0.05)
        traj = solve(params, init, sched)
        assert np.all(np.isfinite(traj.theta))

    def test_constant_weight_run(self):
        cfg = dataclasses.replace(
            get_scenario("regular_sign"), graph="weighted_power",
            graph_q=0.5, graph_weight="constant 1.5", t_final=0.2)
        params, init, sched = build_problem(cfg)
        assert params.graph.growth_constant == pytest.approx(1.5)
        traj = solve(params, init, sched)
        assert np.all(np.isfinite(traj.theta))


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
                            PotentialSpec("obstacle", 1.0), 0.1)

    def test_rejects_nonpositive_coefficients(self):
        with pytest.raises(ValueError):
            make_params(k=-1.0)
        with pytest.raises(ValueError):
            make_params(t_final=0.0)

    def test_rejects_a_blowup_ceiling_that_is_not_positive(self):
        # at or below 0 no state is ever checked; at NaN every state reads
        # as a blow-up
        p = make_params()
        for ceiling in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="blowup_ceiling"):
                dataclasses.replace(p, blowup_ceiling=ceiling)
        assert dataclasses.replace(p, blowup_ceiling=math.inf).blowup_ceiling == math.inf


class TestEnvelopeIntegral:
    """The envelope quadrature of a stack of fields, in blocks of at most
    ``ENVELOPE_BLOCK_POINTS`` grid points."""

    @staticmethod
    def field(dims, n, rows, variant, c0=0.0):
        params = dataclasses.replace(
            make_params(), basis=spectral.build_basis(dims, 1.0, n),
            potential=PotentialSpec(variant, c0), eps=0.05)
        m = params.basis.total_modes
        coeffs = 0.4 * np.random.default_rng(3).standard_normal((rows, m)) / math.sqrt(m)
        return params, coeffs

    @staticmethod
    def rows_per_block(params):
        return max(1, dynamics.ENVELOPE_BLOCK_POINTS // math.prod(params.basis.grid_shape))

    # 1500 rows of a 128-point grid, and 9 saves of field_2d's 128 x 128
    # grid, each three blocks
    @pytest.mark.parametrize("dims, n, rows", [(1, 64, 1500), (2, 64, 9)])
    @pytest.mark.parametrize("variant, c0", [("regular", 0.0), ("logarithmic", 2.0)])
    def test_a_stack_of_blocks_matches_the_rows(self, dims, n, rows, variant, c0):
        params, coeffs = self.field(dims, n, rows, variant, c0)
        assert math.ceil(rows / self.rows_per_block(params)) == 3
        got = dynamics.envelope_integral(params, coeffs)
        assert got.shape == (rows,)
        alone = np.array([dynamics.envelope_integral(params, row) for row in coeffs])
        if dims == 2:
            assert np.array_equal(got, alone)
        else:
            # a 1D block is one matrix product, which may round each grid
            # value differently from the product of a single row; the
            # envelope is positive, so the sum keeps that within a few ulps
            assert np.all(np.abs(got - alone) <= 16.0 * np.spacing(alone))
        # leading axes are carried through
        again = dynamics.envelope_integral(params, coeffs[:8].reshape(2, 4, -1))
        flat = dynamics.envelope_integral(params, coeffs[:8])
        assert np.array_equal(again, flat.reshape(2, 4))

    def test_a_vector_gives_a_float(self):
        params, coeffs = self.field(1, 8, 1, "logarithmic", 2.0)
        assert type(dynamics.envelope_integral(params, coeffs[0])) is float

    def test_an_eps_per_row_is_refused(self):
        # two rows and two eps would broadcast against the grid's rows, or
        # against its points, without a word
        params, coeffs = self.field(1, 8, 2, "regular")
        with pytest.raises(ValueError, match="float eps"):
            dynamics.envelope_integral(dataclasses.replace(params, eps=[0.05, 0.02]), coeffs)

    @pytest.mark.parametrize("dims, n", [(1, 64), (2, 64)])
    def test_one_envelope_call_per_block(self, monkeypatch, dims, n):
        params, coeffs = self.field(dims, n, 101, "regular")
        calls = []

        def counting(*args):
            calls.append(args[2].shape)
            return envelope(*args)

        monkeypatch.setattr(dynamics, "envelope", counting)
        dynamics.envelope_integral(params, coeffs)
        per_block = self.rows_per_block(params)
        assert len(calls) == math.ceil(101 / per_block) == (1 if dims == 1 else 26)
        assert all(math.prod(shape) <= max(dynamics.ENVELOPE_BLOCK_POINTS,
                                           math.prod(params.basis.grid_shape))
                   for shape in calls)


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

    @pytest.mark.parametrize("times", [[0.0, np.nan], [np.nan, 1.0], [0.0, 1.0, np.nan]])
    def test_a_nan_time_is_refused(self, times):
        with pytest.raises(ValueError, match="strictly increasing times"):
            Forcing(np.array(times), np.zeros((len(times), 2)))

    @pytest.mark.parametrize("samples", [
        [[1.0], [np.inf]],
        [[1.0], [np.inf], [2.0]],
        [[-np.inf, 3.0], [2.0, np.inf], [np.inf, -1.0]],
    ], ids=["rise_to_inf", "inf_between_finite", "mixed"])
    def test_each_sample_is_exact_at_its_own_time(self, samples):
        # at a sample no 0 * inf is formed, and after an infinite sample no
        # inf - inf: the forcing is the sample, and NaN nowhere
        times = np.arange(float(len(samples)))
        f = Forcing(times, np.array(samples))
        for t, c in zip(times, samples):
            assert np.array_equal(f.at(t), c)
        assert np.array_equal(f.at(times), samples)
        assert np.array_equal(f.at(times[-1] + 1.0), samples[-1])
        assert not np.any(np.isnan(f.at(np.linspace(-1.0, len(samples), 41))))

    def test_constant_forcing_takes_a_stack(self):
        stack = np.arange(12.0).reshape(3, 4)
        f = Forcing.constant(stack, 2.0)
        for t in (0.0, 0.7, 2.0):
            assert np.array_equal(f.at(t), stack)
        assert np.array_equal(f.at(np.array([0.1, 1.5])), np.stack((stack, stack)))
        # a vector gives the samples it always gave
        row = stack[1]
        assert np.array_equal(Forcing.constant(row, 2.0).coeffs, np.vstack([row, row]))

    def test_array_times_give_the_rows_of_scalar_times(self):
        rng = np.random.default_rng(5)
        times = np.array([0.0, 0.3, 0.5, 1.2])
        for shape in ((4, 3), (4, 2, 3)):
            f = Forcing(times, rng.standard_normal(shape))
            ts = np.concatenate([np.linspace(-0.5, 1.5, 41), times])
            rows = f.at(ts)
            assert rows.shape == (len(ts),) + shape[1:]
            for t, got in zip(ts, rows):
                assert np.array_equal(got, f.at(t))
            flat = f.coeffs.reshape(len(times), -1)
            ref = np.stack([np.interp(ts, times, col) for col in flat.T], axis=-1)
            assert np.max(np.abs(rows.reshape(len(ts), -1) - ref)) <= 1e-15 * np.max(np.abs(ref))
            # the samples themselves are hit exactly, the last one included
            assert np.array_equal(f.at(times), f.coeffs)

    def test_nan_samples_stay_nan(self):
        f = Forcing(np.array([0.0, 1.0]), np.full((2, 3), np.nan))
        assert np.all(np.isnan(f.at(0.5)))
        assert np.all(np.isnan(f.at(np.array([0.0, 0.5, 2.0]))))

    def test_equal_infinite_samples_are_held_exactly(self):
        # the slope between two equal samples is 0, not inf - inf; building
        # the forcing warns of no invalid value
        f = Forcing.constant([np.inf, 1.0], 1.0)
        assert np.array_equal(f.at(0.5), [np.inf, 1.0])
        assert np.array_equal(f.at(np.array([0.0, 0.5, 2.0])), [[np.inf, 1.0]] * 3)

    @pytest.mark.parametrize("name", scenario_names())
    def test_a_config_forcing_is_constant_in_time(self, name):
        # a config names one profile for f, so its forcing spans [0, T] with
        # equal end samples
        params, _, _ = build_problem(get_scenario(name))
        f = params.forcing
        assert np.array_equal(f.times, [0.0, params.t_final])
        assert np.array_equal(f.coeffs[0], f.coeffs[-1])
        assert f.coeffs.shape == (2, params.basis.total_modes)
        assert f.is_constant

    @pytest.mark.parametrize("name", scenario_names())
    def test_a_scenario_solve_looks_up_no_forcing_time(self, name, monkeypatch):
        # the right-hand side binds a constant forcing's source once, so no
        # evaluation of the solve interpolates it
        params, init, sched = build_problem(get_scenario(name))

        def forbidden(*args, **kwargs):
            raise AssertionError("the solve looked up a forcing time")

        monkeypatch.setattr(np, "searchsorted", forbidden)
        traj = solve(params, init, sched)
        assert traj.stats["rhs_evals"] > sched.n_saves


def coeff_data(eta0, phi0):
    """InitialData from coefficients alone, which is all solve reads."""
    return InitialData(eta0=FieldCoeffs(eta0), phi0=FieldCoeffs(phi0),
                       q_eps=0.0)


def stacked(initials):
    """One InitialData holding the members' coefficients as (B, m) stacks."""
    return coeff_data(np.stack([i.eta0.coeffs for i in initials]),
                      np.stack([i.phi0.coeffs for i in initials]))


def perturbed_members(init, count, seed=11):
    """The datum plus count - 1 seeded perturbations of it, of different
    sizes so that the members' norms differ."""
    rng = np.random.default_rng(seed)
    eta0, phi0 = init.eta0.coeffs, init.phi0.coeffs
    return [init] + [
        coeff_data(eta0 + 0.02 * r * rng.standard_normal(eta0.shape),
                   phi0 + 0.02 * r * rng.standard_normal(phi0.shape))
        for r in range(1, count)]


SERIES = ("phi", "theta", "zeta", "xi", "dphi", "dtheta")


class TestStackedSolve:
    CASES = {
        "contraction_base": ("contraction_base", {}),
        "obstacle_nonlocal_sign": ("obstacle_sign", {}),
        # a pointwise graph with ell != alpha, so the 1D analysis shifts
        "tanh_front": ("tanh_front", {}),
        "2d_regular_sign": ("regular_sign", {
            "dims": 2, "lengths": (1.0, 1.0), "modes": 5, "quadrature": None,
            "phi0": "cosine 0.5 1 1", "eta0": "cosine 0.3 1 0",
            "eta_star": "zero", "t_final": 0.05, "saves": 11}),
    }

    @pytest.mark.parametrize("method", ["imex", "rk4"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_match_standalone_solves(self, case, method):
        scenario, kw = self.CASES[case]
        params, init, sched = build_problem(
            dataclasses.replace(get_scenario(scenario), method=method, **kw))
        members = perturbed_members(init, 4)
        stack = solve(params, stacked(members), sched)
        m = params.basis.total_modes
        assert stack.phi.shape == (sched.n_saves, 4, m)
        for r, member in enumerate(members):
            alone = solve(params, member, sched)
            for name in SERIES:
                row, ref = getattr(stack, name)[:, r], getattr(alone, name)
                scale = max(1.0, float(np.max(np.abs(ref))))
                assert np.max(np.abs(row - ref)) <= 1e-12 * scale, (name, r)
        assert stack.stats["steps"] == alone.stats["steps"]
        assert stack.stats["rhs_evals"] == alone.stats["rhs_evals"]

    def test_members_follow_their_own_eta_star_and_forcing(self):
        # eta* as a (3, m) stack and forcing samples of shape (n_t, 3, m):
        # row r of the stack is member r's standalone solve with row r of each
        params, init, sched = build_problem(get_scenario("contraction_base"))
        m = params.basis.total_modes
        rng = np.random.default_rng(23)
        stars = params.eta_star.coeffs + 0.05 * rng.standard_normal((3, m))
        times = np.linspace(0.0, params.t_final, 5)
        samples = params.forcing.at(times)[:, None, :] + 0.1 * rng.standard_normal((5, 3, m))
        members = perturbed_members(init, 3)
        stack = solve(dataclasses.replace(params, eta_star=FieldCoeffs(stars),
                                          forcing=Forcing(times, samples)),
                      stacked(members), sched)
        for r, member in enumerate(members):
            alone = solve(dataclasses.replace(params, eta_star=FieldCoeffs(stars[r]),
                                              forcing=Forcing(times, samples[:, r])),
                          member, sched)
            for name in SERIES:
                row, ref = getattr(stack, name)[:, r], getattr(alone, name)
                scale = float(np.max(np.abs(ref)))
                assert np.max(np.abs(row - ref)) <= 1e-12 * scale, (name, r)

    def test_one_member_rk45_is_the_unstacked_solve(self):
        params, init, sched = build_problem(
            dataclasses.replace(get_scenario("contraction_base"), method="rk45"))
        alone = solve(params, init, sched)
        # step counts of the unstacked DP45 path on this scenario
        assert (alone.stats["steps"], alone.stats["rejected"]) == (217, 15)
        one = solve(params, stacked([init]), sched)
        for name in SERIES:
            assert np.array_equal(getattr(one, name)[:, 0], getattr(alone, name))
        assert one.stats == alone.stats

    @pytest.mark.parametrize("method", ["imex", "rk4"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_member_is_the_unstacked_solve(self, case, method):
        # a vector state and a one-row stack take the same product shapes
        scenario, kw = self.CASES[case]
        params, init, sched = build_problem(
            dataclasses.replace(get_scenario(scenario), method=method, **kw))
        alone = solve(params, init, sched)
        one = solve(params, stacked([init]), sched)
        for name in SERIES:
            assert np.array_equal(getattr(one, name)[:, 0], getattr(alone, name)), name
        assert one.stats == alone.stats

    def test_rk45_steps_by_the_largest_member_error(self):
        # next to a member at rest, whose error estimate is 0, the stack
        # takes exactly the steps of the moving member alone; few saves and
        # a tight tol leave the step sizes to the error control
        params, init, sched = build_problem(get_scenario("heat_decay"))
        sched = dataclasses.replace(sched, n_saves=3, tol=1e-10)
        rest = coeff_data(0.0 * init.eta0.coeffs, 0.0 * init.phi0.coeffs)
        alone = solve(params, init, sched)
        stack = solve(params, stacked([init, rest]), sched)
        assert np.all(stack.phi[:, 1] == 0.0) and np.all(stack.theta[:, 1] == 0.0)
        assert stack.stats["steps"] == alone.stats["steps"]
        assert stack.stats["rejected"] == alone.stats["rejected"]
        assert np.max(np.abs(stack.theta[:, 0] - alone.theta)) <= 1e-12

    def test_blowup_names_first_member_over_the_ceiling(self):
        params, init, sched = build_problem(get_scenario("contraction_base"))
        huge = coeff_data(init.eta0.coeffs, 1e9 * init.phi0.coeffs)
        with pytest.raises(BlowUpError) as err:
            solve(params, stacked([init, init, huge, huge]), sched)
        assert err.value.member == 2
        assert err.value.field == "phi"
        assert "blow-up detected in phi of stack row 2" in str(err.value)
        with pytest.raises(BlowUpError) as err:
            solve(params, huge, sched)
        assert err.value.member is None
        assert err.value.field == "phi"
        # alpha = ell here, so theta = eta: a huge eta0 blows up theta alone
        hot = coeff_data(1e9 * init.eta0.coeffs, init.phi0.coeffs)
        with pytest.raises(BlowUpError) as err:
            solve(params, stacked([init, hot, huge]), sched)
        assert err.value.member == 1
        assert err.value.field == "theta"
        assert "blow-up detected in theta of stack row 1" in str(err.value)


class TestStoredSaves:
    # the IMEX update runs in place on the stage that a save returns, so a
    # stored derivative must still be the right-hand side at its stored state
    @pytest.mark.parametrize("cfg", [
        get_scenario("log_sign"),
        dataclasses.replace(get_scenario("regular_sign"), dims=2, lengths=(1.0, 1.0),
                            modes=6, quadrature=None, phi0="cosine 0.5 1 1",
                            eta0="cosine 0.3 1 0", eta_star="cosine 0.2 1 1", t_final=0.05,
                            saves=21),
    ], ids=["1d_log_sign", "2d_regular_sign"])
    def test_each_save_derivative_is_the_rhs_at_its_state(self, cfg):
        params, init, sched = build_problem(cfg)
        assert sched.method == "imex"
        traj = solve(params, init, sched)
        rhs = _Rhs(params)
        for j, t in enumerate(traj.times):
            y = np.stack((traj.phi[j], traj.theta[j]))
            ex = rhs.explicit_parts(float(t), y, record=True)[0]
            assert np.array_equal(rhs.neg_diff * y + ex,
                                  np.stack((traj.dphi[j], traj.dtheta[j]))), j


class TestRhsReuse:
    # each step takes its first stage from the save or the FSAL evaluation
    # that already assembled the right-hand side at the same (t, a, b)
    def test_dp45_needs_six_evaluations_per_attempt(self):
        params, init, sched = build_problem(get_scenario("heat_decay"))
        traj = solve(params, init, sched)
        st = traj.stats
        assert sched.method == "rk45"
        assert st["rhs_evals"] == 6 * (st["steps"] + st["rejected"]) + sched.n_saves

    @pytest.mark.parametrize("method, stages", [("imex", 1), ("rk4", 4)])
    def test_fixed_step_reuses_the_save(self, method, stages):
        params, init, sched = build_problem(
            dataclasses.replace(get_scenario("contraction_base"), method=method))
        st = solve(params, init, sched).stats
        assert st["rhs_evals"] == stages * st["steps"] - (sched.n_saves - 1) + sched.n_saves


class TestRunCounters:
    # the evaluations at the saves are counted apart, and h_min and h_max
    # bound the accepted steps
    def test_rk45_counters_on_heat_decay(self):
        params, init, sched = build_problem(get_scenario("heat_decay"))
        assert sched.method == "rk45"
        st = solve(params, init, sched).stats
        assert st["rhs_evals_saves"] == sched.n_saves
        interval = params.t_final / (sched.n_saves - 1)
        # the first step tries an eighth of a save interval and is accepted;
        # the linear decay then grows the steps to whole intervals
        assert st["rejected"] == 0
        assert st["h_min"] == pytest.approx(interval / 8, rel=1e-12)
        assert st["h_max"] == pytest.approx(interval, rel=1e-12)
        assert st["h_min"] * st["steps"] <= params.t_final <= st["h_max"] * st["steps"]

    def test_imex_counters_on_tanh_front(self):
        params, init, sched = build_problem(get_scenario("tanh_front"))
        assert sched.method == "imex"
        st = solve(params, init, sched).stats
        assert st["rhs_evals_saves"] == sched.n_saves
        assert st["rhs_evals"] == st["steps"] + 1
        # the substep divides each save interval, up to its rounding
        assert st["h_min"] <= st["h_max"]
        assert st["h_min"] == pytest.approx(sched.dt, rel=1e-12)
        assert st["h_max"] == pytest.approx(sched.dt, rel=1e-12)
        assert st["steps"] == round(params.t_final / sched.dt)


NAN = float("nan")

# every positivity check is written so that NaN fails it, as a nonpositive
# value does
NAN_INPUTS = {
    "stefan_alpha1": lambda: Stefan(NAN, 1.0),
    "stefan_alpha2": lambda: Stefan(1.0, NAN),
    "weighted_power_weight": lambda: WeightedPower(0.5, NAN),
    "logarithmic_c0": lambda: PotentialSpec("logarithmic", NAN),
    "obstacle_c0": lambda: PotentialSpec("obstacle", NAN),
    "basis_length": lambda: spectral.build_basis(1, NAN, 8),
    "schedule_dt": lambda: Schedule(dt=NAN),
    "schedule_tol": lambda: Schedule(tol=NAN),
    "params_ell": lambda: make_params(ell=NAN),
    "params_gamma": lambda: make_params(gamma=NAN),
    "params_eps": lambda: make_params(eps=NAN),
    "params_eps_vector": lambda: make_params(eps=[0.1, NAN]),
    "yosida_eps": lambda: ScalarSign().yosida(NAN, np.ones(3)),
    "yosida_eps_array": lambda: ScalarSign().yosida(np.array([0.1, NAN, 0.1]), np.ones(3)),
    "envelope_eps": lambda: envelope(PotentialSpec("regular"), NAN, np.ones(3)),
}


@pytest.mark.parametrize("build", NAN_INPUTS.values(), ids=NAN_INPUTS.keys())
def test_positivity_checks_refuse_nan(build):
    with pytest.raises(ValueError):
        build()


# every graph builder of the config format, with the parameters below
RHS_GRAPH_CFG = {"graph_alpha1": 1.3, "graph_alpha2": 0.7, "graph_q": 0.3,
                 "graph_weight": "constant 1.5"}


def rhs_params(graph, variant, dims):
    cfg = dataclasses.replace(
        ScenarioConfig(), dims=dims, lengths=(1.0,) * dims, modes=8 if dims == 1 else 4,
        ell=1.2, alpha=0.7, k=0.8, nu=0.6, gamma=0.5, eps=0.05,
        potential=variant, c0=2.0, graph=graph, **RHS_GRAPH_CFG,
        eta_star="cosine 0.2 1" if dims == 1 else "cosine 0.2 1 0",
        forcing="cosine 0.3 2" if dims == 1 else "cosine 0.3 0 1")
    return build_problem(cfg)[0]


def public_rhs(p, t, a, b):
    """(d phi/dt, d theta/dt, zeta, xi) composed from the public maps, one
    transform per field, in the order the system's equations are written."""
    basis, lam = p.basis, p.basis.eigenvalues
    star = p.eta_star.coeffs
    eta = b - (p.ell - p.alpha) * a
    grid = spectral.to_grid(basis, a)
    xi = spectral.from_grid(basis, p.potential.beta_graph().yosida(p.eps, grid))
    piv = spectral.from_grid(basis, p.potential.pi(grid))
    if p.graph.is_nonlocal:
        zeta = p.graph.yosida(p.eps, eta)
    else:
        zeta = spectral.from_grid(
            basis, p.graph.yosida(p.eps, spectral.to_grid(basis, eta)))
    da = -p.nu * lam * a - xi - piv + p.gamma * (b - p.ell * a + star)
    db = -p.k * lam * b + p.k * p.ell * lam * a - zeta + p.forcing.at(t) + p.k * lam * star
    return da, db, zeta, xi


class TestRhsEquivalence:
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["vector", "stack"])
    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("variant", SubdiffBetaHat.VARIANTS)
    @pytest.mark.parametrize("graph", sorted(_GRAPHS))
    def test_matches_the_public_maps(self, graph, variant, dims, lead):
        p = rhs_params(graph, variant, dims)
        m = p.basis.total_modes
        rng = np.random.default_rng([dims, len(lead)])
        decay = 1.0 / (1.0 + np.arange(m))
        a = 0.6 * decay * rng.standard_normal(lead + (m,))
        b = 0.6 * decay * rng.standard_normal(lead + (m,))
        rhs = _Rhs(p)
        y = np.stack((a, b), axis=-2)
        ex, zeta, xi = rhs.explicit_parts(0.37, y, record=True)
        dy = rhs.full(0.37, y)
        got = (dy[..., 0, :], dy[..., 1, :], zeta, xi)
        for name, g, ref in zip(("dphi", "dtheta", "zeta", "xi"), got,
                                public_rhs(p, 0.37, a, b)):
            assert g.shape == ref.shape, name
            assert np.all(np.abs(g - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref))), name
        # a recording evaluation gives the explicit part of the stage's
        # state derivative, and a stage projects neither zeta nor xi
        assert np.array_equal(rhs.neg_diff * y + ex, dy)
        _, zeta_stage, xi_stage = rhs.explicit_parts(0.37, y)
        assert zeta_stage is None and xi_stage is None


class TestEpsPerRow:
    """``ModelParams.eps`` as a vector of one eps per stack row."""

    @staticmethod
    def data(p, lead=()):
        m = p.basis.total_modes
        rng = np.random.default_rng(m)
        decay = 1.0 / (1.0 + np.arange(m))
        eta0, phi0 = 0.6 * decay * rng.standard_normal((2,) + lead + (m,))
        return coeff_data(eta0, phi0)

    @pytest.mark.parametrize("method", ["imex", "rk4"])
    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("variant", ["regular", "obstacle"])
    @pytest.mark.parametrize("graph", sorted(_GRAPHS))
    def test_one_row_is_the_float_eps_solve(self, graph, variant, dims, method):
        # the logarithmic well is left out: its Newton start differs between
        # a float eps and an eps per row
        p = dataclasses.replace(rhs_params(graph, variant, dims), t_final=0.05)
        sched = Schedule(method=method, dt=0.01, n_saves=3)
        init = self.data(p)
        alone = solve(p, init, sched)
        one = solve(dataclasses.replace(p, eps=[p.eps]), stacked([init]), sched)
        for name in SERIES:
            assert np.array_equal(getattr(one, name)[:, 0], getattr(alone, name)), name
        assert one.stats == alone.stats

    # members with eps >= 4 dt, so that rounding is not amplified
    @pytest.mark.parametrize("scenario, kw", [
        ("obstacle_sign", {}),
        ("log_sign", {}),
        ("regular_sign", {"dims": 2, "lengths": (1.0, 1.0), "modes": 5, "quadrature": None,
                          "phi0": "cosine 0.5 1 1", "eta0": "cosine 0.3 1 0",
                          "eta_star": "zero", "t_final": 0.05, "saves": 11}),
    ], ids=["obstacle_sign", "log_sign", "2d_regular_sign"])
    def test_rows_match_their_float_eps_solves(self, scenario, kw):
        cfg = dataclasses.replace(get_scenario(scenario), **kw)
        eps = [0.1, 0.02, 4.0 * cfg.dt]
        built = [build_problem(dataclasses.replace(cfg, eps=e)) for e in eps]
        params, _, sched = built[0]
        stack = solve(dataclasses.replace(params, eps=eps),
                      stacked([init for _, init, _ in built]), sched)
        for r, (p, init, _) in enumerate(built):
            alone = solve(p, init, sched)
            for name in SERIES:
                row, ref = getattr(stack, name)[:, r], getattr(alone, name)
                scale = max(1.0, float(np.max(np.abs(ref))))
                assert np.max(np.abs(row - ref)) <= 1e-12 * scale, (name, r)

    def test_an_eps_vector_needs_one_eps_per_row(self):
        p = make_params(eps=[0.1, 0.05])
        sched = Schedule(dt=0.1, n_saves=2)
        for lead in [(), (1,), (3,), (2, 2)]:
            with pytest.raises(ValueError, match="one eps per stack row"):
                solve(p, self.data(p, lead), sched)
        assert solve(p, self.data(p, (2,)), sched).phi.shape == (2, 2, 4)

    @pytest.mark.parametrize("eps", [[0.1, 0.0], [0.1, -0.1], [0.1, math.nan], [],
                                     [[0.1, 0.1]]], ids=["zero", "negative", "nan", "empty",
                                                         "matrix"])
    def test_every_entry_must_be_positive(self, eps):
        with pytest.raises(ValueError, match="eps"):
            make_params(eps=eps)

    def test_a_vector_is_kept_as_a_read_only_array(self):
        eps = [0.1, 0.05]
        p = make_params(eps=eps)
        assert p.eps.dtype == float and np.array_equal(p.eps, eps)
        assert not p.eps.flags.writeable
        assert make_params(eps=0.1).eps == 0.1


class TestCheckState:
    CEILING = 1e8
    FIELDS = ("a", "b")         # row 0 (phi) and row 1 (theta) of a member

    def stack(self):
        """Four members of five modes: phi = 0.5 and theta = -0.5."""
        return np.stack((np.full((4, 5), 0.5), np.full((4, 5), -0.5)), axis=-2)

    def test_state_under_the_ceiling_passes(self):
        y = self.stack()
        y[1, 0, 2] = y[3, 1, 0] = -self.CEILING
        _check_state(0.1, y, self.CEILING)
        _check_state(0.1, np.stack((y[1, 0], y[3, 1])), self.CEILING)
        _check_state(0.1, y, math.inf)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2e8])
    @pytest.mark.parametrize("cells, member, field", [
        ({"a": [(2, 1)]}, 2, "phi"),
        ({"b": [(1, 4)]}, 1, "theta"),
        ({"a": [(3, 0)], "b": [(3, 1), (2, 2)]}, 2, "theta"),
        ({"a": [(3, 0)], "b": [(3, 1)]}, 3, "phi"),
    ])
    def test_names_the_first_member_and_its_field(self, bad, cells, member, field):
        y = self.stack()
        for name, where in cells.items():
            for row, mode in where:
                y[row, self.FIELDS.index(name), mode] = bad
        with pytest.raises(BlowUpError) as err:
            _check_state(0.25, y, self.CEILING)
        assert (err.value.member, err.value.field, err.value.time) == (member, field, 0.25)
        with pytest.raises(BlowUpError) as err:
            _check_state(0.25, y[member], self.CEILING)
        assert (err.value.member, err.value.field) == (None, field)
        if math.isnan(bad):
            assert math.isnan(err.value.norm)
        else:
            assert err.value.norm == abs(bad)

    # the dot-product pre-check must neither miss a blow-up nor invent one,
    # also where its bound (ceiling/2)^2 overflows or underflows
    CEILINGS = (1e8, 1e200, 1e-170, math.ldexp(1.0, -511))

    @pytest.mark.parametrize("ceiling", CEILINGS)
    def test_norm_over_the_ceiling_with_every_coefficient_under_it_passes(self, ceiling):
        y = np.full((4, 2, 5), math.nextafter(ceiling, 0.0))
        y[..., 1, :] *= -1.0
        assert math.hypot(*y.ravel()) > ceiling
        _check_state(0.1, y, ceiling)
        _check_state(0.1, y[2], ceiling)

    @pytest.mark.parametrize("ceiling", CEILINGS + (np.finfo(float).max,))
    @pytest.mark.parametrize("member, field", [(0, "phi"), (2, "theta"), (3, "phi")])
    def test_one_coefficient_just_over_the_ceiling_fails(self, ceiling, member, field):
        over = math.nextafter(ceiling, math.inf)
        y = self.stack() * (ceiling * 1e-3)
        y[member, ("phi", "theta").index(field), 3] = -over
        with pytest.raises(BlowUpError) as err:
            _check_state(0.25, y, ceiling)
        assert (err.value.member, err.value.field, err.value.norm) == (member, field, over)
        with pytest.raises(BlowUpError) as err:
            _check_state(0.25, y[member], ceiling)
        assert (err.value.member, err.value.field, err.value.norm) == (None, field, over)

    def test_nan_fails_under_an_infinite_ceiling(self):
        y = self.stack()
        y[1, 1, 2] = np.nan
        with pytest.raises(BlowUpError) as err:
            _check_state(0.25, y, math.inf)
        assert (err.value.member, err.value.field) == (1, "theta")
        assert math.isnan(err.value.norm)
        # finite coefficients whose squares overflow the sum still pass
        _check_state(0.25, np.full((2, 3), 1e300), math.inf)


class TestTransformCount:
    # one analysis of the state and one explicit product per evaluation,
    # each a call of a map bound by _grid_maps.  In 1D each is one product
    # with a bound matrix and spectral is not called, not even at a save;
    # in 2D the analysis is one to_grid of the pair, and the explicit map
    # projects each grid field by one from_grid, which a save reuses
    MAPS = ("analyse", "explicit")

    def counted_solve(self, monkeypatch, params, init, sched):
        calls = dict.fromkeys(self.MAPS + ("to_grid", "from_grid"), 0)

        def count(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        for name in ("to_grid", "from_grid"):
            monkeypatch.setattr(spectral, name, count(name, getattr(spectral, name)))
        bind = dynamics._grid_maps
        monkeypatch.setattr(dynamics, "_grid_maps", lambda *args: tuple(
            count(name, fn) for name, fn in zip(self.MAPS, bind(*args), strict=True)))
        st = solve(params, init, sched).stats
        assert calls["analyse"] == calls["explicit"] == st["rhs_evals"]
        assert st["rhs_evals_saves"] == sched.n_saves
        return calls, st

    @pytest.mark.parametrize("scenario, method", [("tanh_front", "imex"),
                                                  ("heat_decay", "rk45")])
    def test_transforms_per_evaluation(self, monkeypatch, scenario, method):
        params, init, sched = build_problem(get_scenario(scenario))
        assert sched.method == method
        calls, _ = self.counted_solve(monkeypatch, params, init, sched)
        assert calls["to_grid"] == calls["from_grid"] == 0

    @pytest.mark.parametrize("graph, projections", [("scalar_sign", 2), ("nonlocal_sign", 1)])
    def test_2d_transforms_per_evaluation(self, monkeypatch, graph, projections):
        _, kw = TestStackedSolve.CASES["2d_regular_sign"]
        params, init, sched = build_problem(
            dataclasses.replace(get_scenario("regular_sign"), graph=graph, **kw))
        calls, st = self.counted_solve(monkeypatch, params, init, sched)
        assert calls["to_grid"] == st["rhs_evals"]
        assert calls["from_grid"] == projections * st["rhs_evals"]
