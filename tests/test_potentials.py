"""Potential splitting and Moreau envelope tests."""

import math

import numpy as np
import pytest

from phasemono import spectral
from phasemono.monotone import resolvent_oracle
from phasemono.potentials import PotentialSpec, envelope
from phasemono.selftest import builtin_potentials


class TestSplit:
    def test_regular_stationary_at_one(self):
        spec = PotentialSpec("regular")
        # derivative bookkeeping: F'(1) = beta(1) + pi(1) = 1 - 1 = 0
        assert spec.beta_graph().minimal_section(1.0) == pytest.approx(1.0)
        assert spec.pi(1.0) == pytest.approx(-1.0)
        assert spec.beta_hat(1.0) == pytest.approx(0.25)

    @pytest.mark.parametrize("spec", [
        PotentialSpec("regular"), PotentialSpec("logarithmic", 1.5), PotentialSpec("obstacle", 0.7)])
    def test_convex_part_vanishes_at_zero(self, spec):
        assert spec.beta_hat(0.0) == 0.0

    def test_obstacle_interior_point(self):
        spec = PotentialSpec("obstacle", 1.0)
        # 0.5 is interior to [-1, 1]: the selection is 0, pi(0.5) = -1
        assert spec.beta_graph().minimal_section(0.5) == 0.0
        assert spec.pi(0.5) == pytest.approx(-1.0)

    def test_lipschitz_constants(self):
        assert PotentialSpec("regular").lipschitz_pi == 1.0
        assert PotentialSpec("logarithmic", 2.0).lipschitz_pi == 4.0
        assert PotentialSpec("obstacle", 0.5).lipschitz_pi == 1.0

    @pytest.mark.parametrize("spec", [
        PotentialSpec("regular"), PotentialSpec("logarithmic", 1.5), PotentialSpec("obstacle", 0.7)])
    @pytest.mark.parametrize("dims", [1, 2])
    def test_projected_pi_is_its_slope_times_the_field(self, spec, dims):
        # the right-hand side folds P pi(phi_n) into pi_slope * phi_n; the
        # quadrature grid integrates every mode product exactly
        basis = spectral.build_basis(dims, (1.0, 1.3)[:dims], 16 if dims == 1 else 6)
        m = basis.total_modes
        c = np.random.default_rng(dims).standard_normal((3, m)) / (1.0 + np.arange(m))
        got = spectral.from_grid(basis, spec.pi(spectral.to_grid(basis, c)))
        assert np.max(np.abs(got - spec.pi_slope * c)) <= 1e-14
        assert spec.lipschitz_pi == abs(spec.pi_slope)

    def test_logarithmic_needs_double_well(self):
        with pytest.raises(ValueError):
            PotentialSpec("logarithmic", 1.0)
        with pytest.raises(ValueError):
            PotentialSpec("logarithmic", 0.3)

    def test_obstacle_needs_positive_c0(self):
        with pytest.raises(ValueError):
            PotentialSpec("obstacle", 0.0)

    def test_logarithmic_boundary_convention(self):
        # 0*log(0) = 0 at the endpoints, +inf outside
        spec = PotentialSpec("logarithmic", 2.0)
        assert spec.beta_hat(1.0) == pytest.approx(2.0 * math.log(2.0))
        assert spec.beta_hat(-1.0) == pytest.approx(2.0 * math.log(2.0))
        assert spec.beta_hat(1.0001) == math.inf

    def test_convex_parts_nonnegative(self):
        r = np.linspace(-0.999, 0.999, 201)
        for spec in builtin_potentials().values():
            assert np.all(np.asarray(spec.beta_hat(r)) >= 0.0)

    def test_quartic_convex_part_within_two_ulps_of_power(self):
        # r^4/4 is formed by products; the power form is the reference
        rng = np.random.default_rng(19)
        big = np.geomspace(1e-60, 1e60, 241)
        r = np.concatenate([rng.uniform(-3.0, 3.0, 4000), -big, big, [0.0, -0.0]])
        spec = PotentialSpec("regular")
        ref = 0.25 * r ** 4
        assert np.all(np.abs(spec.beta_hat(r) - ref) <= 2.0 * np.spacing(ref))
        assert spec.beta_hat(-1.5) == 0.25 * 1.5 ** 4
        assert type(spec.beta_hat(np.float64(-1.5))) is float


class TestEnvelope:
    def test_obstacle_value(self):
        # the resolvent clamps 1.5 to 1, leaving (0.5)^2 / (2*0.1)
        spec = PotentialSpec("obstacle", 1.0)
        assert envelope(spec, 0.1, 1.5) == pytest.approx(1.25, abs=1e-14)

    def test_zero_for_all(self):
        for spec in builtin_potentials().values():
            for eps in (0.01, 0.5, 2.0):
                assert envelope(spec, eps, 0.0) == 0.0

    def test_regular_value(self):
        spec = PotentialSpec("regular")
        # resolvent of the cubic at x = 2, eps = 1 is exactly 1
        prox = resolvent_oracle(spec.beta_graph(), 1.0, 2.0)
        assert prox == pytest.approx(1.0, abs=1e-10)
        assert envelope(spec, 1.0, 2.0) == pytest.approx(0.75, abs=1e-10)

    @pytest.mark.parametrize("name", sorted(builtin_potentials()))
    def test_property_suite(self, name, selftest_run):
        # every graph-selftest row of this potential passed
        rows = selftest_run.rows("potential", name)
        assert rows
        bad = [f"{p}: {r['worst']:.3e}" for p, r in rows.items() if not r["passed"]]
        assert not bad, bad

    def test_derivative_is_yosida(self):
        h = 1e-6
        for spec in builtin_potentials().values():
            graph = spec.beta_graph()
            for eps in (0.1, 0.5):
                for r in (-2.3, -0.4, 0.9, 1.7):
                    fd = (envelope(spec, eps, r + h) - envelope(spec, eps, r - h)) / (2 * h)
                    assert fd == pytest.approx(graph.yosida(eps, r), abs=1e-6)

    def test_monotone_convergence_to_convex_part(self):
        r = np.linspace(-0.95, 0.95, 41)
        for spec in builtin_potentials().values():
            prev = None
            target = np.asarray(spec.beta_hat(r))
            for eps in (1.0, 0.1, 0.01, 0.001):
                env = envelope(spec, eps, r)
                assert np.all(env <= target + 1e-12)
                if prev is not None:
                    assert np.all(env >= prev - 1e-12)
                prev = env
            assert np.max(np.abs(prev - target)) <= 2e-2

    def test_globally_finite(self):
        for spec in builtin_potentials().values():
            vals = envelope(spec, 0.05, np.array([-40.0, -1.2, 3.0, 55.0]))
            assert np.all(np.isfinite(vals))

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            envelope(PotentialSpec("regular"), 0.0, 1.0)
