"""Property suites for the monotone graphs and the potential envelopes.

Each check samples random points with a seeded generator and returns a
machine-readable row (suite, variant, property, passed, worst, detail).
These suites back the ``graph-selftest`` command and the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .monotone import (
    NonlocalSign,
    ScalarSign,
    Stefan,
    SubdiffBetaHat,
    WeightedPower,
    YosidaGraph,
    ZeroGraph,
    resolvent_oracle,
)
from .potentials import (
    envelope,
    logarithmic_potential,
    obstacle_potential,
    regular_potential,
)

__all__ = ["CheckResult", "builtin_graphs", "builtin_potentials",
           "graph_checks", "potential_checks", "run_selftest"]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    variant: str
    prop: str
    passed: bool
    worst: float
    detail: str = ""

    def row(self):
        return [self.suite, self.variant, self.prop,
                "pass" if self.passed else "FAIL", f"{self.worst:.3e}", self.detail]


def builtin_graphs():
    """The graph variants exercised by the self-test, keyed by display name."""
    return {
        "zero": ZeroGraph(),
        "scalar_sign": ScalarSign(),
        "nonlocal_sign": NonlocalSign(),
        "stefan(1,1)": Stefan(1.0, 1.0),
        "stefan(1.3,0.7)": Stefan(1.3, 0.7),
        "weighted_power(q=0.5)": WeightedPower(0.5, 1.0),
        "weighted_power(q=0.3,w=2)": WeightedPower(0.3, 2.0),
        "beta_regular": SubdiffBetaHat("regular"),
        "beta_logarithmic": SubdiffBetaHat("logarithmic"),
        "beta_obstacle": SubdiffBetaHat("obstacle"),
    }


def builtin_potentials():
    return {
        "regular": regular_potential(),
        "logarithmic(c0=2)": logarithmic_potential(2.0),
        "obstacle(c0=1)": obstacle_potential(1.0),
    }


def _sample_points(graph, rng, count):
    return rng.uniform(-5.0, 5.0, size=count)


def _domain_points(graph, rng, count):
    lo, hi = graph.domain
    lo = max(lo, -5.0)
    hi = min(hi, 5.0)
    pad = 1e-3 * (hi - lo)
    if graph.open_domain[0]:
        lo += pad
    if graph.open_domain[1]:
        hi -= pad
    return rng.uniform(lo, hi, size=count)


def _core_points(graph, rng, count):
    """Domain samples restricted to where the graph slope stays moderate:
    away from unbounded-derivative boundaries and from the origin of the
    power graphs."""
    lo, hi = graph.domain
    lo = max(lo, -2.0)
    hi = min(hi, 2.0)
    span = hi - lo
    if graph.open_domain[0]:
        lo += 0.1 * span
    if graph.open_domain[1]:
        hi -= 0.1 * span
    pts = rng.uniform(lo, hi, size=count)
    return np.where(np.abs(pts) < 0.01, 0.01, pts)


def graph_checks(name, graph, rng, n_points=1000):
    """Run the full property suite on one scalar or nonlocal graph."""
    results = []
    eps_pool = 10.0 ** rng.uniform(-3, 0, size=n_points)

    if graph.is_nonlocal:
        return _nonlocal_checks(name, graph, rng, n_points)

    x = _sample_points(graph, rng, n_points)
    y = _sample_points(graph, rng, n_points)

    # production resolvent against the set-valued bisection oracle
    worst = 0.0
    for eps in (0.05, 0.3, 1.0):
        j = np.asarray(graph.resolvent(eps, x))
        o = np.asarray(resolvent_oracle(graph, eps, x))
        worst = max(worst, float(np.max(np.abs(j - o))))
    results.append(CheckResult("graph", name, "resolvent_vs_oracle",
                               worst <= 1e-10, worst))

    # pointwise-random eps: contraction of the resolvent
    jx = np.asarray(graph.resolvent(eps_pool, x))
    jy = np.asarray(graph.resolvent(eps_pool, y))
    worst = float(np.max(np.abs(jx - jy) - np.abs(x - y)))
    results.append(CheckResult("graph", name, "resolvent_contraction",
                               worst <= 1e-12, worst))

    # Lipschitz bound of the Yosida map
    ax = np.asarray(graph.yosida(eps_pool, x))
    ay = np.asarray(graph.yosida(eps_pool, y))
    worst = float(np.max(np.abs(ax - ay) - np.abs(x - y) / eps_pool))
    results.append(CheckResult("graph", name, "yosida_lipschitz",
                               worst <= 1e-9, worst))

    # monotone slope of the Yosida map within [0, 1/eps]
    results.append(_slope_check(name, graph, eps=0.5))

    # zero is a fixed point: 0 in A(0) and J_eps(0) = 0
    worst = max(abs(float(np.asarray(graph.resolvent(0.5, 0.0)))),
                0.0 if graph.contains(0.0, 0.0, tol=0.0) else 1.0)
    results.append(CheckResult("graph", name, "zero_fixed_point",
                               worst <= 1e-15, worst))

    # semigroup identity of iterated regularizations
    xs = _sample_points(graph, rng, 64)
    worst = 0.0
    for eps, delta in ((0.2, 0.3), (0.5, 0.25), (0.1, 0.05)):
        inner = YosidaGraph(graph, eps)
        lhs = np.asarray(inner.yosida(delta, xs))
        rhs = np.asarray(graph.yosida(eps + delta, xs))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    results.append(CheckResult("graph", name, "semigroup_identity",
                               worst <= 1e-9, worst))

    # |A_eps x| never exceeds the least-norm selection on D(A)
    xd = _domain_points(graph, rng, n_points)
    m0 = np.abs(np.asarray(graph.minimal_section(xd)))
    worst = 0.0
    for eps in (0.05, 0.3, 1.0):
        a = np.abs(np.asarray(graph.yosida(eps, xd)))
        worst = max(worst, float(np.max(a - m0)))
    results.append(CheckResult("graph", name, "yosida_below_minimal_section",
                               worst <= 1e-9, worst))

    # convergence of A_eps to the least-norm selection as eps drops
    xc = _core_points(graph, rng, n_points)
    mc = np.asarray(graph.minimal_section(xc))
    errs = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        a = np.asarray(graph.yosida(eps, xc))
        errs.append(float(np.max(np.abs(a - mc))))
    dec = all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))
    results.append(CheckResult("graph", name, "yosida_to_minimal_section",
                               dec and errs[-1] <= 1e-4, errs[-1],
                               "errors " + " ".join(f"{e:.1e}" for e in errs)))

    # linear growth certificate where a constant is configured
    if graph.growth_constant is not None:
        c = graph.growth_constant
        worst = 0.0
        for eps in (0.05, 0.3, 1.0):
            a = np.abs(np.asarray(graph.yosida(eps, x)))
            worst = max(worst, float(np.max(a - c * (1.0 + np.abs(x)))))
        results.append(CheckResult("graph", name, "linear_growth",
                                   worst <= 1e-9, worst, f"C={c:g}"))

    # monotonicity of sampled graph pairs
    v1 = np.asarray(graph.minimal_section(xd))
    perm = rng.permutation(len(xd))
    v2 = v1[perm]
    worst = float(np.min((v1 - v2) * (xd - xd[perm])))
    results.append(CheckResult("graph", name, "graph_monotone_pairs",
                               worst >= -1e-12, worst))
    return results


def _slope_check(name, graph, eps, extreme=False):
    """Finite-difference slopes of A_eps lie in [0, 1/eps] up to float noise.

    The upper tolerance scales with 1/eps because the exact slope equals
    1/eps on the dead band and the difference quotient picks up rounding of
    order ulp/h there.  The Yosida map is globally defined, so the grid is
    not restricted to the graph domain.
    """
    grid = np.linspace(-4.0, 4.0, 4001)
    if eps < 1e-2:
        grid = np.unique(np.concatenate([grid, np.linspace(-4 * eps, 4 * eps, 2001)]))
    vals = np.asarray(graph.yosida(eps, grid))
    slopes = np.diff(vals) / np.diff(grid)
    tol_hi = 1e-9 + 1e-12 / eps
    worst_hi = float(np.max(slopes - 1.0 / eps))
    worst_lo = float(np.min(slopes))
    ok = worst_hi <= tol_hi and worst_lo >= -1e-9
    label = "yosida_slope_extreme" if extreme else "yosida_slope"
    return CheckResult("graph", name, label, ok,
                       max(worst_hi, -worst_lo), f"eps={eps:g}")


def _nonlocal_checks(name, graph, rng, n_points):
    """Vector-level suite for the nonlocal Sign graph."""
    results = []
    dim = 12
    vs = rng.standard_normal((n_points, dim)) * 10.0 ** rng.uniform(-2, 1, (n_points, 1))

    worst = 0.0
    for eps in (0.05, 0.3, 1.0):
        for v in vs[:200]:
            j = graph.resolvent(eps, v)
            o = resolvent_oracle(graph, eps, v)
            worst = max(worst, float(np.max(np.abs(j - o))))
    results.append(CheckResult("graph", name, "resolvent_vs_oracle",
                               worst <= 1e-10, worst))

    worst = -math.inf
    wlip = -math.inf
    for eps in (0.1, 0.5):
        for v, w in zip(vs[:300], vs[1:301]):
            jv, jw = graph.resolvent(eps, v), graph.resolvent(eps, w)
            av, aw = graph.yosida(eps, v), graph.yosida(eps, w)
            dvw = float(np.linalg.norm(v - w))
            worst = max(worst, float(np.linalg.norm(jv - jw)) - dvw)
            wlip = max(wlip, float(np.linalg.norm(av - aw)) - dvw / eps)
    results.append(CheckResult("graph", name, "resolvent_contraction",
                               worst <= 1e-12, worst))
    results.append(CheckResult("graph", name, "yosida_lipschitz",
                               wlip <= 1e-9, wlip))

    worst = 0.0
    for eps, delta in ((0.2, 0.3), (0.5, 0.25)):
        inner = YosidaGraph(graph, eps)
        for v in vs[:100]:
            lhs = inner.yosida(delta, v)
            rhs = graph.yosida(eps + delta, v)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    results.append(CheckResult("graph", name, "semigroup_identity",
                               worst <= 1e-9, worst))

    worst = 0.0
    for eps in (0.05, 0.3, 1.0):
        for v in vs[:300]:
            a = float(np.linalg.norm(graph.yosida(eps, v)))
            m0 = float(np.linalg.norm(graph.minimal_section(v)))
            worst = max(worst, a - m0)
    results.append(CheckResult("graph", name, "yosida_below_minimal_section",
                               worst <= 1e-9, worst))

    c = graph.growth_constant
    worst = 0.0
    for eps in (0.05, 1.0):
        for v in vs[:300]:
            a = float(np.linalg.norm(graph.yosida(eps, v)))
            worst = max(worst, a - c * (1.0 + float(np.linalg.norm(v))))
    results.append(CheckResult("graph", name, "linear_growth",
                               worst <= 1e-9, worst, f"C={c:g}"))

    z = graph.yosida(0.5, np.zeros(dim))
    worst = float(np.max(np.abs(z)))
    results.append(CheckResult("graph", name, "zero_fixed_point",
                               worst == 0.0, worst))
    return results


def potential_checks(name, spec, rng, n_points=400):
    """Envelope and splitting properties of one potential."""
    results = []
    graph = spec.beta_graph()
    lo, hi = spec.domain
    lo, hi = max(lo, -3.0), min(hi, 3.0)
    interior = rng.uniform(lo + 1e-6, hi - 1e-6, size=n_points)
    anywhere = rng.uniform(-4.0, 4.0, size=n_points)

    # 0 <= envelope <= beta_hat on the domain, envelope(0) = 0
    worst = 0.0
    for eps in (0.05, 0.3, 1.0):
        env = envelope(spec, eps, interior)
        bh = spec.beta_hat(interior)
        worst = max(worst, float(np.max(env - bh)), float(-np.min(env)))
        worst = max(worst, abs(envelope(spec, eps, 0.0)))
    results.append(CheckResult("potential", name, "envelope_squeeze",
                               worst <= 1e-12, worst))

    # derivative of the envelope is the Yosida map (central differences)
    worst = 0.0
    h = 1e-6
    for eps in (0.1, 0.5):
        fd = (envelope(spec, eps, anywhere + h)
              - envelope(spec, eps, anywhere - h)) / (2.0 * h)
        yo = np.asarray(graph.yosida(eps, anywhere))
        worst = max(worst, float(np.max(np.abs(fd - yo))))
    results.append(CheckResult("potential", name, "envelope_derivative",
                               worst <= 1e-6, worst))

    # fundamental-theorem identity: env(b) - env(a) = int_a^b yosida.
    # Composite Gauss rule split at the derivative kinks of the obstacle
    # Yosida map (r = +-1) and fine enough for the logarithmic layers there.
    nodes, weights = np.polynomial.legendre.leggauss(32)

    def integral(eps, a, b):
        cuts = np.unique(np.concatenate(
            [np.linspace(a, b, 25), np.clip([-1.0, 1.0], a, b)]))
        total = 0.0
        for left, right in zip(cuts[:-1], cuts[1:]):
            mid, half = 0.5 * (left + right), 0.5 * (right - left)
            total += half * float(np.sum(weights * np.asarray(
                graph.yosida(eps, mid + half * nodes))))
        return total

    worst = 0.0
    for eps in (0.1, 0.5):
        for _ in range(40):
            a, b = sorted(rng.uniform(-3.0, 3.0, size=2))
            diff = envelope(spec, eps, b) - envelope(spec, eps, a)
            worst = max(worst, abs(diff - integral(eps, a, b)))
    results.append(CheckResult("potential", name, "envelope_integral_identity",
                               worst <= 1e-8, worst))

    # envelopes increase monotonically to beta_hat as eps drops
    worst = 0.0
    prev = None
    for eps in (1.0, 0.3, 0.1, 0.03, 0.01):
        env = envelope(spec, eps, interior)
        if prev is not None:
            worst = max(worst, float(np.max(prev - env)))
        prev = env
    results.append(CheckResult("potential", name, "envelope_monotone_in_eps",
                               worst <= 1e-12, worst))

    # Lipschitz bound of the perturbation derivative
    x = rng.uniform(-10, 10, n_points)
    y = rng.uniform(-10, 10, n_points)
    gap = np.abs(np.asarray(spec.pi(x)) - np.asarray(spec.pi(y))) \
        - spec.lipschitz_pi * np.abs(x - y)
    worst = float(np.max(gap))
    results.append(CheckResult("potential", name, "pi_lipschitz",
                               worst <= 1e-9, worst, f"C_pi={spec.lipschitz_pi:g}"))
    return results


def run_selftest(seed=20240801, n_points=1000, extreme_eps=1e-6):
    """Full property table over every built-in graph and potential."""
    rng = np.random.default_rng(seed)
    rows = []
    for name, graph in builtin_graphs().items():
        rows.extend(graph_checks(name, graph, rng, n_points=n_points))
    # Lipschitz certificate at an extreme regularization level
    rows.append(_slope_check("scalar_sign", ScalarSign(), eps=extreme_eps, extreme=True))
    for name, spec in builtin_potentials().items():
        rows.extend(potential_checks(name, spec, rng))
    return rows
