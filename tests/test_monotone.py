"""Graph-level tests: closed-form values cross-checked against the
set-valued bisection oracle, plus the regularization identities."""

import math

import numpy as np
import pytest

from phasemono import monotone
from phasemono.monotone import (
    DomainError,
    NonlocalSign,
    ResolventError,
    ScalarSign,
    Stefan,
    SubdiffBetaHat,
    WeightedPower,
    ZeroGraph,
    resolvent_oracle,
    solve_increasing,
)
from phasemono.selftest import builtin_graphs, builtin_potentials, graph_checks


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
        # A_eps(x) and (x - J_eps x)/eps both lie in A(J_eps x)
        rng = np.random.default_rng(11)
        for name, g in builtin_graphs().items():
            if g.is_nonlocal:
                continue
            x = rng.uniform(-5, 5, 200)
            for eps in (0.003, 0.05, 0.1, 0.4, 1.0):
                j = np.asarray(g.resolvent(eps, x))
                # near the ends of a bounded domain the graph value is too
                # steep to evaluate at the quantized resolvent point
                ok = np.abs(j) <= 1.0 - 1e-3 if g.open_domain[0] else np.ones_like(j, bool)
                lo, hi = g.value_interval(j[ok])
                for v in (np.asarray(g.yosida(eps, x)), (x - j) / eps):
                    assert np.all((v[ok] >= lo - 1e-8) & (v[ok] <= hi + 1e-8)), (name, eps)


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

    def test_stack_maps_row_by_row(self):
        # a (B, m) stack with per-row eps of shape (B, 1) equals per-row
        # calls; the zero row and the rows inside and outside the dead ball
        # take their own branch.  The oracle's bisection stops on a 1e-12
        # residual, entry by entry in a batch, hence the 1e-12 there.
        g = NonlocalSign()
        rng = np.random.default_rng(5)
        scale = np.array([[0.0], [0.05], [0.2], [1.0], [3.0], [9.0]])
        vs = rng.standard_normal((6, 4)) * scale
        eps = np.array([[0.3], [0.1], [0.5], [0.3], [1.0], [0.2]])
        for r, (v, e) in enumerate(zip(vs, eps[:, 0])):
            assert np.array_equal(g.resolvent(eps, vs)[r], g.resolvent(e, v))
            assert np.array_equal(g.yosida(eps, vs)[r], g.yosida(e, v))
            assert np.array_equal(g.minimal_section(vs)[r], g.minimal_section(v))
            assert np.allclose(resolvent_oracle(g, eps, vs)[r],
                               resolvent_oracle(g, e, v), rtol=0, atol=1e-12)


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
            lo, hi = g.value_interval(j[ok])
            assert np.all((v_req[ok] >= lo - 1e-8) & (v_req[ok] <= hi + 1e-8))


class TestRegularityProperties:
    @pytest.mark.parametrize("name", sorted(builtin_graphs()))
    def test_property_suite(self, name, selftest_run):
        # every graph-selftest row of this graph passed
        rows = selftest_run.rows("graph", name)
        assert rows
        bad = [f"{p}: {r['worst']:.3e}" for p, r in rows.items() if not r["passed"]]
        assert not bad, bad

    def test_semigroup_identity_spec_points(self):
        # (A_0.25)_0.15 = A_0.4: u = x - 0.15*A_0.4(x) solves
        # u + 0.15*A_0.25(u) = x, the residual form of the selftest row
        for g in (ScalarSign(), Stefan(1.3, 0.7), SubdiffBetaHat("regular")):
            for x in (-2.0, -0.3, 0.0, 0.7, 3.0):
                u = x - 0.15 * g.yosida(0.4, x)
                assert abs(u + 0.15 * g.yosida(0.25, u) - x) <= 0.15 * 1e-9

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

        rows = graph_checks("broken", Broken(), np.random.default_rng(1))
        failed = {r.prop for r in rows if not r.passed}
        assert "graph_monotone_pairs" in failed

    def test_negative_control_detects_stack_wide_norm(self):
        class WholeStackNorm(NonlocalSign):
            # shrinks every row by the norm of the whole stack, not its own
            def resolvent(self, eps, v):
                v = np.asarray(v, dtype=float)
                s = np.linalg.norm(v, axis=None)
                return v * (np.maximum(s - eps, 0.0) / np.where(s == 0.0, 1.0, s))

        rows = graph_checks("stack_norm", WholeStackNorm(), np.random.default_rng(1))
        failed = {r.prop for r in rows if not r.passed}
        assert "resolvent_vs_oracle" in failed

    def test_negative_control_detects_broken_semigroup(self):
        class SlowSign(ScalarSign):
            # the Yosida map of level 1.1*eps: (A_e)_d = A_{1.1e+d} differs
            # from A_{e+d} = A_{1.1(e+d)}
            def _yosida(self, eps, x):
                return np.clip(x / (1.1 * eps), -1.0, 1.0)

        def semigroup(graph):
            rows = graph_checks("sign", graph, np.random.default_rng(1))
            (row,) = [r for r in rows if r.prop == "semigroup_identity"]
            return row.passed

        assert semigroup(ScalarSign())
        assert not semigroup(SlowSign())


def _reference_bisection(fun, target, lo, hi, tol=monotone.RESOLVENT_TOL,
                         max_iter=monotone.RESOLVENT_MAX_ITER):
    """The bisection of :func:`solve_increasing` on fresh arrays, with both
    stopping tests built at every step."""
    t = np.asarray(target, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), t.shape).astype(float)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), t.shape).astype(float)
    finite = np.isfinite(t) & np.isfinite(lo) & np.isfinite(hi)
    if not np.all(finite):
        out = _reference_bisection(fun, np.where(finite, t, 0.0), np.where(finite, lo, 0.0),
                                   np.where(finite, hi, 0.0), tol, max_iter)
        return np.where(finite, out, np.nan)
    res_tol = np.maximum(tol, 4.0 * np.spacing(np.abs(t)))
    u = 0.5 * (lo + hi)
    for _ in range(max_iter):
        r = fun(u) - t
        hi = np.where(r >= 0.0, u, hi)
        lo = np.where(r <= 0.0, u, lo)
        small_res = np.abs(r) <= res_tol
        small_gap = (hi - lo) <= 4.0 * np.spacing(np.abs(u))
        if np.all(small_res | small_gap):
            return np.where(small_res, u, 0.5 * (lo + hi))
        u = 0.5 * (lo + hi)
    raise ResolventError("iteration cap")


def _counted(fun):
    def wrapped(u):
        wrapped.calls += 1
        return fun(u)

    wrapped.calls = 0
    return wrapped


def _steep(u):
    return u + np.exp(40.0 * u)


class TestSolver:
    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(monotone, "RESOLVENT_MAX_ITER", 20)
        with pytest.raises(ResolventError):
            solve_increasing(_steep, np.exp(40.0 * np.linspace(0.6, 1.4, 9)), 0.0, 2.0)
        monkeypatch.setattr(monotone, "RESOLVENT_TOL", 1e-14)
        monkeypatch.setattr(monotone, "RESOLVENT_MAX_ITER", 3)
        with pytest.raises(ResolventError):
            solve_increasing(lambda u: u, 0.5, -1e6, 1e6)

    def test_the_module_cap_holds_in_the_oracle(self, monkeypatch):
        # one setting caps the bisection too, as it caps both Newton loops,
        # non-finite points and all
        monkeypatch.setattr(monotone, "RESOLVENT_MAX_ITER", 1)
        x = np.array([-2.0, 0.3, np.nan, 1.7])
        with pytest.raises(ResolventError, match="hit the 1-iteration cap"):
            resolvent_oracle(ScalarSign(), 0.1, x)

    @pytest.mark.parametrize("case", ["steep", "non_finite_stack", "zero_d"])
    def test_bits_and_evaluations_match_reference(self, case):
        rng = np.random.default_rng(23)
        if case == "steep":
            fun, target, lo, hi = _steep, np.exp(40.0 * np.linspace(0.6, 1.4, 9)), 0.0, 2.0
        elif case == "non_finite_stack":
            target = rng.uniform(-30.0, 30.0, (3, 16))
            target[0, 3], target[1, 7], target[2, 0] = np.nan, np.inf, -np.inf
            fun, lo, hi = (lambda u: u + u * u * u), -4.0, 4.0
        else:
            # a point that stops by bracket width
            fun, target, lo, hi = _steep, np.exp(40.0 * 0.6), 0.0, 2.0
        ref_fun, new_fun = _counted(fun), _counted(fun)
        ref = _reference_bisection(ref_fun, target, lo, hi)
        out = solve_increasing(new_fun, target, lo, hi)
        assert np.shape(out) == np.shape(target)
        assert np.array_equal(out, ref, equal_nan=True)
        assert new_fun.calls == ref_fun.calls
        if case == "steep":
            # two points stop by bracket width, the others by residual
            res_tol = np.maximum(monotone.RESOLVENT_TOL, 4.0 * np.spacing(target))
            assert np.sum(np.abs(_steep(out) - target) > res_tol) == 2

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

    def test_logarithmic_resolvent_odd_and_saturating(self):
        g = SubdiffBetaHat("logarithmic")
        x = np.geomspace(1e-12, 1e12, 601)
        for eps in (1e-6, 0.05, 3.0):
            assert np.array_equal(np.asarray(g.resolvent(eps, -x)),
                                  -np.asarray(g.resolvent(eps, x)))
        out = np.asarray(g.resolvent(0.1, np.array([np.nan, np.inf, -np.inf])))
        assert math.isnan(out[0])
        assert out[1] == -out[2] == np.nextafter(1.0, 0.0)


class _CountingNumpy:
    """Stands in for numpy inside ``monotone`` and counts np.tanh calls: the
    logarithmic Newton iteration makes one per step and one more for the
    root it returns."""

    def __init__(self):
        self.tanh_calls = 0

    def tanh(self, x):
        self.tanh_calls += 1
        return np.tanh(x)

    def __getattr__(self, name):
        return getattr(np, name)


class TestLogarithmicNewton:
    """The Newton iteration for tanh(s) + 2 eps s = y behind the logarithmic
    well's resolvent."""

    # down to 1e-12, where 2 eps is small enough that the rounding of the
    # slope's 1 - tanh(s)^2 (up to about 2e-16 where tanh(s) is near 1)
    # shows in the Newton step
    EPS = np.geomspace(1e-12, 10.0, 105)

    @staticmethod
    def kernel_inputs(eps):
        """x on [-20, 20], at and beyond the saturation value, and beyond
        the image of the table's last node."""
        top = np.nextafter(1.0, 0.0)
        sat = top + 2.0 * eps * np.arctanh(top)
        last = monotone._log_nodes()[-1]
        beyond = np.array([sat, np.nextafter(sat, np.inf), 2.0 * sat + 1.0, 1e6,
                           np.nextafter(np.tanh(last) + 2.0 * eps * last, np.inf)])
        return np.concatenate([np.linspace(-20.0, 20.0, 4001), beyond, -beyond])

    def test_kernel_agrees_with_the_public_map(self):
        g = SubdiffBetaHat("logarithmic")
        odd = np.array([np.nan, np.inf, -np.inf])
        for eps in self.EPS:
            x = np.concatenate([self.kernel_inputs(eps), odd])
            assert np.array_equal(g.yosida_kernel(eps)(x), g.yosida(eps, x), equal_nan=True), eps

    def test_kernel_steps_from_its_table(self, monkeypatch):
        counter = _CountingNumpy()
        monkeypatch.setattr(monotone, "np", counter)

        def steps(eps, x):
            kernel = SubdiffBetaHat("logarithmic").yosida_kernel(eps)
            before = counter.tanh_calls
            kernel(x)
            return counter.tanh_calls - before - 1

        def public_steps(eps, x):
            # one more np.tanh call than the kernel's: the one building the table
            before = counter.tanh_calls
            SubdiffBetaHat("logarithmic").resolvent(eps, x)
            return counter.tanh_calls - before - 2

        # one step from the table leaves a residual under the tolerance, and
        # the next confirms it.  The public map at a scalar eps starts from
        # the same table, so also at |x| = 1, where the per-point start
        # y/(1 + 2 eps) lies far below the root for small eps
        for eps in self.EPS:
            assert steps(eps, self.kernel_inputs(eps)) <= 2, eps
            assert public_steps(eps, 1.0) <= 2 and public_steps(eps, -1.0) <= 2, eps
        # the grid and eps values of the public pins above
        grid = np.linspace(-3.0, 3.0, 48)
        assert (steps(0.05, grid), steps(1e-3, grid)) == (2, 2)

    @pytest.mark.parametrize("case", ["scalar_eps", "eps_per_point", "kernel"])
    def test_iteration_cap_raises(self, monkeypatch, case):
        # from its table, from y/(1 + 2 eps), and bound in a kernel; the
        # loop it shares with the power root names the map
        monkeypatch.setattr(monotone, "RESOLVENT_MAX_ITER", 1)
        g, x = SubdiffBetaHat("logarithmic"), np.linspace(-3.0, 3.0, 48)
        call = {"scalar_eps": lambda: g.resolvent(0.05, x),
                "eps_per_point": lambda: g.resolvent(np.full(48, 0.05), x),
                "kernel": lambda: g.yosida_kernel(0.05)(x)}[case]
        with pytest.raises(ResolventError, match="^logarithmic resolvent hit the 1-iteration cap"):
            call()

    def test_an_eps_array_gives_each_points_scalar_root(self):
        # a per-point eps, as the self-test passes, starts from y/(1 + 2 eps)
        # rather than a table.  Each root stops with a residual under the
        # tolerance, and x -> u + eps*beta(u) has slope at least 1, so each
        # lies within that residual of the root: every eps of EPS meets the
        # inputs where the starts differ most, |x| = 1 among them
        g = SubdiffBetaHat("logarithmic")
        special = np.array([1.0, -1.0, 0.999, 1.001, 0.5, 3.0, 1e6])
        x = np.concatenate([np.linspace(-20.0, 20.0, 4001), np.repeat(special, len(self.EPS))])
        eps = np.concatenate([np.resize(self.EPS, 4001), np.tile(self.EPS, len(special))])
        bound = 2.0 * monotone.RESOLVENT_TOL * np.maximum(1.0, np.abs(x))
        got = np.asarray(g.resolvent(eps, x))
        ref = np.array([g.resolvent(e, xi) for e, xi in zip(eps, x)], dtype=float)
        assert np.all(np.abs(got - ref) <= bound)
        # eps times the map is x - u up to the rounding of x - u
        got = np.asarray(g.yosida(eps, x))
        ref = np.array([g.yosida(e, xi) for e, xi in zip(eps, x)], dtype=float)
        ulps = np.spacing(np.maximum(1.0, np.abs(x)))
        assert np.all(eps * np.abs(got - ref) <= bound + 4.0 * ulps)


class TestScaleAwareStopping:
    def test_yosida_of_stefan_at_large_x(self, monkeypatch):
        # the bracket closes to a few ulp of 848, above an absolute 1e-13
        monkeypatch.setattr(monotone, "RESOLVENT_TOL", 1e-13)
        g = Stefan(1.3, 0.7)
        u = solve_increasing(lambda u: u + g.yosida(0.2, u), 1370.0, 0.0, 1370.0)
        assert abs(u + g.yosida(0.2, u) - 1370.0) <= 1e-12 * 1370.0

    def test_yosida_of_quartic_at_large_x(self, monkeypatch):
        monkeypatch.setattr(monotone, "RESOLVENT_TOL", 1e-13)
        g = SubdiffBetaHat("regular")
        x = np.array([1e7, -3e9, 1e12])
        u = solve_increasing(lambda u: u + g.yosida(0.2, u), x,
                             np.minimum(x, 0.0), np.maximum(x, 0.0))
        resid = u + np.asarray(g.yosida(0.2, u)) - x
        assert np.all(np.abs(resid) <= 1e-12 * np.abs(x))

    def test_large_root_of_generic_map(self):
        u = solve_increasing(lambda u: u + u ** 3, 1e12, 0.0, 1e12)
        assert abs(u + u ** 3 - 1e12) <= 1e-12 * 1e12


class TestQuarticClosedForm:
    """The real root of u + eps*u^3 = x, used by SubdiffBetaHat('regular')."""

    g = SubdiffBetaHat("regular")
    x = np.geomspace(1e-12, 1e12, 2401)

    def test_scaled_residual(self):
        for eps in np.geomspace(1e-6, 100.0, 25):
            for x in (self.x, -self.x):
                u = np.asarray(self.g.resolvent(eps, x))
                assert np.max(np.abs(u + eps * u ** 3 - x) / np.abs(x)) <= 1e-14

    def test_exactly_odd_and_fixes_zero(self):
        for eps in (1e-6, 0.05, 1.0, 100.0):
            assert np.array_equal(np.asarray(self.g.resolvent(eps, -self.x)),
                                  -np.asarray(self.g.resolvent(eps, self.x)))
            assert self.g.resolvent(eps, 0.0) == 0.0

    def test_monotone_on_dense_grid(self):
        grid = np.concatenate([np.linspace(-50.0, 50.0, 200001),
                               np.linspace(-1e-9, 1e-9, 20001)])
        grid.sort()
        for eps in (1e-6, 1e-3, 0.3, 7.0, 100.0):
            assert np.all(np.diff(np.asarray(self.g.resolvent(eps, grid))) >= 0.0)

    def test_non_finite_inputs_give_nan(self):
        out = np.asarray(self.g.resolvent(0.3, np.array([np.inf, -np.inf, np.nan, 2.0])))
        assert np.all(np.isnan(out[:3]))
        assert np.isfinite(out[3])
        for bad in (np.inf, -np.inf, np.nan):
            assert math.isnan(self.g.resolvent(0.3, bad))

    def test_huge_inputs_stay_finite(self):
        u = self.g.resolvent(0.05, 1e300)
        assert math.isfinite(u)
        assert abs(u + 0.05 * u ** 3 - 1e300) <= 1e-13 * 1e300
        # 1.5*sqrt(3*eps)*x overflows here; the root is taken in logs
        with np.errstate(over="ignore"):
            u = np.asarray(self.g.resolvent(100.0, np.array([1e308, -1e308, 1.0])))
        assert np.all(np.isfinite(u))
        assert u[1] == -u[0]
        assert abs(u[0] + 100.0 * u[0] ** 3 - 1e308) <= 1e-12 * 1e308

    def test_does_not_root_find(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("solve_increasing called")

        monkeypatch.setattr(monotone, "solve_increasing", forbidden)
        assert self.g.resolvent(1.0, 2.0) == pytest.approx(1.0, abs=1e-15)


class TestPowerNewton:
    """The Newton root of t + ew*t^q = s behind the weighted power's
    resolvent for q != 1/2, reached through the public graph with w = 1, so
    that eps = ew."""

    EW = np.geomspace(1e-6, 1e3, 37)
    S = np.concatenate([[0.0, 5e-324], np.geomspace(1e-12, 1e12, 241), [1e300]])

    @pytest.mark.parametrize("q", (0.1, 0.3, 0.7, 0.95))
    def test_scaled_residual(self, q):
        g = WeightedPower(q, 1.0)
        for ew in self.EW:
            t = np.asarray(g.resolvent(ew, self.S))
            assert np.all(t >= 0.0)
            resid = np.abs(t + ew * t ** q - self.S) / np.maximum(1.0, self.S)
            assert np.max(resid) <= 1e-13, ew

    def test_exactly_odd_and_fixes_zero(self):
        x = np.geomspace(1e-12, 1e12, 241)
        for q in (0.1, 0.3, 0.95):
            g = WeightedPower(q, 2.0)
            for eps in (1e-6, 0.05, 1.0, 100.0):
                assert np.array_equal(np.asarray(g.resolvent(eps, -x)),
                                      -np.asarray(g.resolvent(eps, x)))
                assert g.resolvent(eps, 0.0) == 0.0

    def test_non_finite_inputs_give_nan(self):
        g = WeightedPower(0.3, 2.0)
        # and raise no floating-point warning on the way
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            out = np.asarray(g.resolvent(0.3, np.array([np.inf, -np.inf, np.nan, 2.0])))
            for bad in (np.inf, -np.inf, np.nan):
                assert math.isnan(g.resolvent(0.3, bad))
                assert math.isnan(g.yosida(0.3, bad))
        assert np.all(np.isnan(out[:3]))
        assert np.isfinite(out[3])

    @pytest.mark.parametrize("q", (0.3, 0.5))
    def test_zero_weight_is_the_identity(self, q):
        # eps*w = 0 where the weight vanishes, including at x = 0
        g = WeightedPower(q, np.array([0.0, 0.0, 0.0, 1.0]))
        x = np.array([0.0, 5e-324, -2.5, 0.0])
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            j = np.asarray(g.resolvent(0.5, x))
            assert np.array_equal(np.asarray(g.yosida(0.5, x)), np.zeros(4))
        assert np.all(np.abs(j - x) <= 4.0 * np.spacing(np.abs(x)))

    def test_does_not_root_find(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("solve_increasing called")

        monkeypatch.setattr(monotone, "solve_increasing", forbidden)
        g = WeightedPower(0.3, 2.0)
        u = g.resolvent(0.5, 3.0)
        assert abs(u + 0.5 * 2.0 * u ** 0.3 - 3.0) <= 1e-13 * 3.0
        g.yosida(0.5, np.linspace(-3.0, 3.0, 48))

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(monotone, "RESOLVENT_MAX_ITER", 1)
        with pytest.raises(ResolventError):
            WeightedPower(0.3, 2.0).resolvent(0.5, np.linspace(-3.0, 3.0, 48))

    @pytest.mark.parametrize("name", ("weighted_power(q=0.5)", "weighted_power(q=0.3,w=2)"))
    def test_yosida_is_the_graph_at_the_resolvent(self, name):
        # A_eps(x) = A(J_eps x), and J_eps x + eps*A_eps(x) = x to the
        # resolvent's own tolerance, with no 1/eps amplification
        g = builtin_graphs()[name]
        eps = 1e-4
        x = np.concatenate([np.linspace(-5.0, 5.0, 2001), np.geomspace(1e-12, 1e6, 400)])
        j = np.asarray(g.resolvent(eps, x))
        a = np.asarray(g.yosida(eps, x))
        assert np.array_equal(a, g.weight * np.sign(j) * np.abs(j) ** g.q)
        assert np.all(np.abs(x - j - eps * a) <= 1e-12 * np.maximum(1.0, np.abs(x)))


class TestArrayEps:
    # the graphs whose resolvent is an inner root-find rather than a closed form
    ROOT_FINDS = ("weighted_power(q=0.3,w=2)", "beta_logarithmic")

    @pytest.mark.parametrize("name", sorted(
        n for n, g in builtin_graphs().items() if not g.is_nonlocal))
    def test_matches_pointwise_loop(self, name):
        g = builtin_graphs()[name]
        rng = np.random.default_rng(5)
        x = rng.uniform(-5.0, 5.0, 400)
        eps = 10.0 ** rng.uniform(-3.0, 0.0, 400)
        j = np.asarray(g.resolvent(eps, x))
        a = np.asarray(g.yosida(eps, x))
        j_loop = np.array([g.resolvent(e, v) for e, v in zip(eps, x)])
        a_loop = np.array([g.yosida(e, v) for e, v in zip(eps, x)])
        if name in self.ROOT_FINDS:
            assert np.all(np.abs(j - j_loop) <= 1e-12)
            # the power's Yosida map is A(J), which carries no 1/eps factor;
            # the logarithmic well's is (x - J)/eps
            scale = eps if name == "beta_logarithmic" else 1.0
            assert np.all(scale * np.abs(a - a_loop) <= 1e-12)
        else:
            assert np.array_equal(j, j_loop)
            assert np.array_equal(a, a_loop)

    @pytest.mark.parametrize("name", sorted(builtin_graphs()))
    def test_resolvent_rejects_nonpositive_eps(self, name):
        g = builtin_graphs()[name]
        if g.is_nonlocal:
            x, bad_entry = np.ones((2, 3)), np.array([[0.1], [0.0]])
        else:
            x, bad_entry = np.array([1.0, 2.0]), np.array([0.1, 0.0])
        for eps in (0.0, -1.0, np.nan, bad_entry):
            with pytest.raises(ValueError):
                g.resolvent(eps, x)

    def test_nonpositive_entry_rejected(self):
        with pytest.raises(ValueError):
            ScalarSign().yosida(np.array([0.1, 0.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            resolvent_oracle(Stefan(1.0, 1.0), np.array([0.1, -1.0]), np.array([1.0, 2.0]))


def _kernel_graphs():
    graphs = dict(builtin_graphs())
    graphs.update({f"potential {name}": spec.beta_graph()
                   for name, spec in builtin_potentials().items()})
    return graphs


class TestKernelsLeaveInput:
    """A kernel may work in place only on an array of its own: the input
    stays unchanged and shares no memory with the result."""

    @pytest.mark.parametrize("shape", [(1, 48), (3, 48), (128, 128)])
    @pytest.mark.parametrize("name", sorted(_kernel_graphs()))
    def test_no_write_no_alias(self, name, shape):
        g = _kernel_graphs()[name]
        x = np.random.default_rng(7).uniform(-3.0, 3.0, shape)
        kept = x.copy()
        out = g.yosida_kernel(0.05)(x)
        assert np.array_equal(x, kept)
        assert out.shape == shape
        assert not np.shares_memory(out, x)

    @pytest.mark.parametrize("name", sorted(
        n for n, g in _kernel_graphs().items() if not g.is_nonlocal))
    def test_zero_d_input_gives_float(self, name):
        g = _kernel_graphs()[name]
        for x in (0.25, np.float64(-0.25), np.array(0.25)):
            assert type(g.yosida(0.5, x)) is float
            assert type(g.resolvent(0.5, x)) is float


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
