"""Graph-level tests: closed-form values cross-checked against the
set-valued bisection oracle, plus the regularization identities."""

import math

import numpy as np
import pytest

from phasemono.monotone import (
    DomainError,
    NonlocalSign,
    ResolventError,
    ScalarSign,
    Stefan,
    SubdiffBetaHat,
    WeightedPower,
    YosidaGraph,
    ZeroGraph,
    resolvent_oracle,
    solve_increasing,
)
from phasemono.selftest import builtin_graphs, graph_checks


def oracle(graph, eps, x):
    return resolvent_oracle(graph, eps, x)


class TestResolventExamples:
    def test_sign_inside_dead_band(self):
        # |x| <= eps, so u = 0 solves x in u + eps*sign(u)
        g = ScalarSign()
        assert oracle(g, 0.5, 0.25) == pytest.approx(0.0, abs=1e-12)
        assert g.resolvent(0.5, 0.25) == 0.0

    def test_sign_at_zero(self):
        g = ScalarSign()
        for eps in (1e-3, 0.5, 10.0):
            assert g.resolvent(eps, 0.0) == 0.0

    def test_stefan_upper_ray(self):
        # on the branch u > 1: x = u + eps*a2*u = 2u for eps = a2 = 1
        g = Stefan(1.0, 1.0)
        assert g.resolvent(1.0, 3.0) == pytest.approx(1.5, abs=1e-14)
        assert oracle(g, 1.0, 3.0) == pytest.approx(1.5, abs=1e-10)

    def test_cubic(self):
        # u + u^3 = 2 has the root u = 1
        g = SubdiffBetaHat("regular")
        assert g.resolvent(1.0, 2.0) == pytest.approx(1.0, abs=1e-12)
        assert oracle(g, 1.0, 2.0) == pytest.approx(1.0, abs=1e-10)

    def test_resolvent_fixes_zero_for_all_variants(self):
        for name, g in builtin_graphs().items():
            if g.is_nonlocal:
                out = g.resolvent(0.3, np.zeros(5))
                assert np.all(out == 0.0), name
            else:
                assert g.resolvent(0.3, 0.0) == pytest.approx(0.0, abs=1e-14), name


class TestYosidaExamples:
    def test_sign_values(self):
        g = ScalarSign()
        assert g.yosida(0.5, 0.25) == pytest.approx(0.5, abs=1e-14)
        # saturates at the sign once |x| > eps: (2 - 1.5)/0.5
        assert g.yosida(0.5, 2.0) == pytest.approx(1.0, abs=1e-14)

    def test_obstacle_values(self):
        g = SubdiffBetaHat("obstacle")
        assert g.yosida(0.1, 1.5) == pytest.approx(5.0, abs=1e-12)
        assert g.yosida(0.1, 0.5) == 0.0

    def test_yosida_lies_in_graph_at_resolvent(self):
        rng = np.random.default_rng(7)
        for name, g in builtin_graphs().items():
            if g.is_nonlocal:
                continue
            x = rng.uniform(-4, 4, 50)
            for eps in (0.1, 1.0):
                j = np.asarray(g.resolvent(eps, x))
                a = np.asarray(g.yosida(eps, x))
                # near the ends of a bounded domain the graph value is too
                # steep to evaluate at the quantized resolvent point
                ok = np.abs(j) <= 1.0 - 1e-3 if g.open_domain[0] else np.ones_like(j, bool)
                assert g.contains(j[ok], a[ok], tol=1e-8), name


class TestNonlocalSign:
    def test_norm_two(self):
        v = np.array([0.0, 2.0, 0.0])
        out = NonlocalSign().yosida(1.0, v)
        assert np.allclose(out, v / 2.0, atol=1e-15)

    def test_zero(self):
        assert np.all(NonlocalSign().yosida(0.7, np.zeros(4)) == 0.0)

    def test_small_norm_branch(self):
        v = np.array([0.3, 0.4])  # norm 0.5 <= eps = 1
        out = NonlocalSign().yosida(1.0, v)
        assert np.allclose(out, v, atol=1e-15)

    def test_matches_generic_graph(self):
        g = NonlocalSign()
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.standard_normal(6) * rng.uniform(0.01, 5)
            for eps in (0.05, 0.5):
                o = resolvent_oracle(g, eps, v)
                assert np.allclose(g.yosida(eps, v), (v - o) / eps)
                assert np.allclose(g.resolvent(eps, v), o, atol=1e-10)

    def test_resolvent_norm_shrink(self):
        g = NonlocalSign()
        v = np.array([3.0, 4.0])  # norm 5
        out = g.resolvent(1.0, v)
        assert np.allclose(out, v * (4.0 / 5.0), atol=1e-14)

    def test_parseval_mass(self):
        g = NonlocalSign()
        mass = np.array([4.0, 1.0])
        v = np.array([1.0, 0.0])  # weighted norm 2
        out = g.yosida(1.0, v, mass=mass)
        assert np.allclose(out, v / 2.0)


class TestMinimalSection:
    def test_sign_at_zero(self):
        assert ScalarSign().minimal_section(0.0) == 0.0

    def test_stefan_at_jump(self):
        # the value set at r = 1 is [0, alpha2]; least norm element is 0
        assert Stefan(1.0, 2.0).minimal_section(1.0) == 0.0

    def test_weighted_power(self):
        # |4|^{-0.5} * 4 = 2
        assert WeightedPower(0.5, 1.0).minimal_section(4.0) == pytest.approx(2.0, abs=1e-14)

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            SubdiffBetaHat("obstacle").minimal_section(1.5)
        with pytest.raises(DomainError):
            SubdiffBetaHat("logarithmic").minimal_section(1.0)


class TestOracleEquivalence:
    @pytest.mark.parametrize("name", sorted(builtin_graphs()))
    def test_oracle_matches_production(self, name):
        g = builtin_graphs()[name]
        rng = np.random.default_rng(11)
        if g.is_nonlocal:
            for _ in range(50):
                v = rng.standard_normal(8) * rng.uniform(0.01, 5)
                eps = 10 ** rng.uniform(-3, 0)
                assert np.allclose(g.resolvent(eps, v),
                                   resolvent_oracle(g, eps, v), atol=1e-10)
            return
        x = rng.uniform(-5, 5, 200)
        for eps in (0.003, 0.05, 0.4, 1.0):
            j = np.asarray(g.resolvent(eps, x))
            o = np.asarray(resolvent_oracle(g, eps, x))
            assert np.max(np.abs(j - o)) <= 1e-10
            # the returned point solves the inclusion (where the graph value
            # is representable at the quantized resolvent point)
            v_req = (x - j) / eps
            ok = np.abs(j) <= 1.0 - 1e-3 if g.open_domain[0] else np.ones_like(j, bool)
            assert g.contains(j[ok], v_req[ok], tol=1e-8)


class TestRegularityProperties:
    @pytest.mark.parametrize("name", sorted(builtin_graphs()))
    def test_property_suite(self, name):
        g = builtin_graphs()[name]
        rng = np.random.default_rng(23)
        rows = graph_checks(name, g, rng, n_points=300)
        bad = [r for r in rows if not r.passed]
        assert not bad, [f"{r.prop}: {r.worst:.3e}" for r in bad]

    def test_semigroup_identity_spec_points(self):
        for g in (ScalarSign(), Stefan(1.3, 0.7), SubdiffBetaHat("regular")):
            inner = YosidaGraph(g, 0.25)
            for x in (-2.0, -0.3, 0.0, 0.7, 3.0):
                lhs = inner.yosida(0.15, x)
                rhs = g.yosida(0.4, x)
                assert abs(lhs - rhs) <= 1e-9

    def test_stefan_growth_constant(self):
        # |v| <= max(alpha1, alpha2) (1 + |r|) on a dense grid
        a1, a2 = 1.3, 0.7
        g = Stefan(a1, a2)
        c = max(a1, a2)
        r = np.linspace(-50, 50, 20001)
        lo, hi = g.value_interval(r)
        worst = max(np.max(np.abs(lo) - c * (1 + np.abs(r))),
                    np.max(np.abs(hi) - c * (1 + np.abs(r))))
        assert worst <= 1e-12

    def test_negative_control_detects_broken_graph(self):
        class Broken(ScalarSign):
            # decreasing selection: violates monotonicity of the graph
            def value_interval(self, u):
                u = np.asarray(u, dtype=float)
                return -u, -u

            def minimal_section(self, x):
                return -np.asarray(x, dtype=float)

        rows = graph_checks("broken", Broken(), np.random.default_rng(1), n_points=100)
        failed = {r.prop for r in rows if not r.passed}
        assert "graph_monotone_pairs" in failed


class TestSolver:
    def test_iteration_cap_raises(self):
        with pytest.raises(ResolventError):
            solve_increasing(lambda u: u, 0.5, -1e6, 1e6, tol=1e-14, max_iter=3)

    def test_weighted_power_generic_exponent(self):
        g = WeightedPower(0.3, 2.0)
        x = np.linspace(-6, 6, 101)
        for eps in (0.05, 0.7):
            u = np.asarray(g.resolvent(eps, x))
            residual = u + eps * 2.0 * np.sign(u) * np.abs(u) ** 0.3 - x
            assert np.max(np.abs(residual)) <= 1e-11

    def test_logarithmic_resolvent_stays_inside(self):
        g = SubdiffBetaHat("logarithmic")
        x = np.array([-1e6, -5.0, -1.0, 0.0, 2.0, 1e9])
        for eps in (1e-4, 0.1, 2.0):
            u = np.asarray(g.resolvent(eps, x))
            assert np.all(np.abs(u) < 1.0)
            inner = np.abs(x) <= 1.0 + eps  # away from float saturation
            resid = u + eps * (np.log1p(u) - np.log1p(-u)) - x
            assert np.max(np.abs(resid[inner])) <= 1e-10


class TestZeroGraph:
    def test_identity_resolvent(self):
        g = ZeroGraph()
        x = np.linspace(-3, 3, 7)
        assert np.all(np.asarray(g.resolvent(0.5, x)) == x)
        assert np.all(np.asarray(g.yosida(0.5, x)) == 0.0)
        assert g.growth_constant == 0.0


def test_monotone_approximation_ladder():
    # A_eps converges to the least-norm selection with decreasing error
    g = Stefan(1.0, 1.0)
    pts = np.array([-3.0, -0.5, 0.5, 2.0])
    m0 = np.asarray(g.minimal_section(pts))
    errs = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        errs.append(float(np.max(np.abs(np.asarray(g.yosida(eps, pts)) - m0))))
    assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-4


def test_math_isfinite_guard():
    # graphs with unbounded value sets report no growth constant
    assert SubdiffBetaHat("regular").growth_constant is None
    assert SubdiffBetaHat("obstacle").growth_constant is None
    assert math.isfinite(Stefan(2.0, 3.0).growth_constant)
