"""Potential splitting and Moreau envelope tests."""

import math

import numpy as np
import pytest

from phasemono.monotone import resolvent_oracle
from phasemono.potentials import (
    PotentialSpec,
    envelope,
    logarithmic_potential,
    obstacle_potential,
    regular_potential,
)
from phasemono.selftest import builtin_potentials, potential_checks


class TestSplit:
    def test_regular_stationary_at_one(self):
        spec = regular_potential()
        # derivative bookkeeping: F'(1) = beta(1) + pi(1) = 1 - 1 = 0
        assert spec.beta_graph().minimal_section(1.0) == pytest.approx(1.0)
        assert spec.pi(1.0) == pytest.approx(-1.0)
        assert spec.beta_hat(1.0) == pytest.approx(0.25)

    @pytest.mark.parametrize("spec", [
        regular_potential(), logarithmic_potential(1.5), obstacle_potential(0.7)])
    def test_convex_part_vanishes_at_zero(self, spec):
        assert spec.beta_hat(0.0) == 0.0

    def test_obstacle_interior_point(self):
        spec = obstacle_potential(1.0)
        # 0.5 is interior to [-1, 1]: the selection is 0, pi(0.5) = -1
        assert spec.beta_graph().minimal_section(0.5) == 0.0
        assert spec.pi(0.5) == pytest.approx(-1.0)

    def test_lipschitz_constants(self):
        assert regular_potential().lipschitz_pi == 1.0
        assert logarithmic_potential(2.0).lipschitz_pi == 4.0
        assert obstacle_potential(0.5).lipschitz_pi == 1.0

    def test_logarithmic_needs_double_well(self):
        with pytest.raises(ValueError):
            logarithmic_potential(1.0)
        with pytest.raises(ValueError):
            PotentialSpec("logarithmic", 0.3)

    def test_obstacle_needs_positive_c0(self):
        with pytest.raises(ValueError):
            obstacle_potential(0.0)

    def test_logarithmic_boundary_convention(self):
        # 0*log(0) = 0 at the endpoints, +inf outside
        spec = logarithmic_potential(2.0)
        assert spec.beta_hat(1.0) == pytest.approx(2.0 * math.log(2.0))
        assert spec.beta_hat(-1.0) == pytest.approx(2.0 * math.log(2.0))
        assert spec.beta_hat(1.0001) == math.inf

    def test_convex_parts_nonnegative(self):
        r = np.linspace(-0.999, 0.999, 201)
        for spec in builtin_potentials().values():
            assert np.all(np.asarray(spec.beta_hat(r)) >= 0.0)


class TestEnvelope:
    def test_obstacle_value(self):
        # the resolvent clamps 1.5 to 1, leaving (0.5)^2 / (2*0.1)
        spec = obstacle_potential(1.0)
        assert envelope(spec, 0.1, 1.5) == pytest.approx(1.25, abs=1e-14)

    def test_zero_for_all(self):
        for spec in builtin_potentials().values():
            for eps in (0.01, 0.5, 2.0):
                assert envelope(spec, eps, 0.0) == 0.0

    def test_regular_value(self):
        spec = regular_potential()
        # resolvent of the cubic at x = 2, eps = 1 is exactly 1
        prox = resolvent_oracle(spec.beta_graph(), 1.0, 2.0)
        assert prox == pytest.approx(1.0, abs=1e-10)
        assert envelope(spec, 1.0, 2.0) == pytest.approx(0.75, abs=1e-10)

    @pytest.mark.parametrize("name", sorted(builtin_potentials()))
    def test_property_suite(self, name):
        spec = builtin_potentials()[name]
        rows = potential_checks(name, spec, np.random.default_rng(5), n_points=200)
        bad = [r for r in rows if not r.passed]
        assert not bad, [f"{r.prop}: {r.worst:.3e}" for r in bad]

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
            envelope(regular_potential(), 0.0, 1.0)
