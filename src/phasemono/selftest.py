"""Property suites for the monotone graphs and the potential envelopes.

Each check samples random points with a seeded generator and returns a
machine-readable row (suite, variant, property, passed, worst, detail).
These suites are the one place each property is checked: they back the
``graph-selftest`` command, whose ``selftest.json`` rows the acceptance and
unit tests assert on.

:func:`graph_checks` has one body for every graph.  Samples are stacks of
shape (N, dim), dim 1 for the scalar graphs and ``NONLOCAL_DIM`` for the
nonlocal Sign graph, whose vector is the last axis; magnitudes are row
norms and a random ``eps`` is given per row as (N, 1).  Each property is
then a single vectorised expression, and the independent bisection oracle
is called once per graph, on the four regularization levels stacked as
(L, N, dim).  The semigroup row checks (A_eps)_delta = A_{eps+delta} with
no root-find: it bounds max |u + delta*A_eps(u) - x|/delta by 1e-9, a row
norm for the nonlocal graph, where u = x - delta*A_{eps+delta}(x).  Since
I + delta*A_eps is strongly monotone with modulus 1, this residual bounds
|(A_eps)_delta(x) - A_{eps+delta}(x)|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .monotone import (
    NonlocalSign,
    ScalarSign,
    Stefan,
    SubdiffBetaHat,
    WeightedPower,
    ZeroGraph,
    resolvent_oracle,
)
from .potentials import PotentialSpec, envelope

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
        "regular": PotentialSpec("regular"),
        "logarithmic(c0=2)": PotentialSpec("logarithmic", 2.0),
        "obstacle(c0=1)": PotentialSpec("obstacle", 1.0),
    }


# samples per graph property, and the points of each potential check
N_POINTS = 1000
POTENTIAL_POINTS = 400
# regularization level of the extra Lipschitz certificate of the sign graph
EXTREME_EPS = 1e-6
# vector length of the nonlocal graph's samples
NONLOCAL_DIM = 12
FIXED_EPS = (0.05, 0.3, 1.0)
SEMIGROUP_PAIRS = ((0.2, 0.3), (0.5, 0.25), (0.1, 0.05), (0.5, 0.1))


def _dim(graph):
    return NONLOCAL_DIM if graph.is_nonlocal else 1


def _mag(a):
    """Row norms of a sample stack, keeping the reduced axis: |x| for the
    scalar graphs' (N, 1) stacks."""
    return np.linalg.norm(a, axis=-1, keepdims=True)


def _max(a):
    return float(np.max(a))


def _sample_points(graph, rng, count):
    """Uniform on [-5, 5] for scalar graphs; for the nonlocal graph, Gaussian
    vectors with norms over three decades, inside and outside the dead ball."""
    if graph.is_nonlocal:
        scale = 10.0 ** rng.uniform(-2, 1, size=(count, 1))
        return rng.standard_normal((count, NONLOCAL_DIM)) * scale
    return rng.uniform(-5.0, 5.0, size=(count, 1))


def _domain_points(graph, rng, count):
    """Samples of D(A): the general samples where D(A) is the whole space,
    else uniform on D(A) within [-5, 5], 1e-3 away from excluded ends."""
    lo, hi = graph.domain
    if np.isinf(lo) and np.isinf(hi):
        return _sample_points(graph, rng, count)
    lo = max(lo, -5.0)
    hi = min(hi, 5.0)
    if graph.open_domain[0]:
        lo += 1e-3
    if graph.open_domain[1]:
        hi -= 1e-3
    return rng.uniform(lo, hi, size=(count, _dim(graph)))


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
    pts = rng.uniform(lo, hi, size=(count, _dim(graph)))
    return np.where(np.abs(pts) < 0.01, 0.01, pts)


def _oracle_gap(graph, eps_levels, x):
    """max |J_eps x - oracle| over the levels: one bisection on the levels
    stacked as (L, N, dim), compared one level at a time.  The stack is
    freed on return, before the other checks."""
    levels = np.stack([np.broadcast_to(e, (len(x), 1)) for e in eps_levels])
    stack = resolvent_oracle(graph, levels, np.broadcast_to(x, (len(levels),) + x.shape))
    return max(_max(np.abs(graph.resolvent(e, x) - ref)) for e, ref in zip(eps_levels, stack))


def graph_checks(name, graph, rng):
    """Run the full property suite on one scalar or nonlocal graph, on
    (N, dim) sample stacks with a per-row ``eps`` of shape (N, 1)."""
    results = []

    def add(prop, passed, worst, detail=""):
        results.append(CheckResult("graph", name, prop, bool(passed), worst, detail))

    eps_pool = 10.0 ** rng.uniform(-3, 0, size=(N_POINTS, 1))
    eps_levels = FIXED_EPS + (eps_pool,)
    x = _sample_points(graph, rng, N_POINTS)
    y = _sample_points(graph, rng, N_POINTS)

    # production resolvent against the set-valued bisection oracle, at fixed
    # levels and at a random level per point
    worst = _oracle_gap(graph, eps_levels, x)
    add("resolvent_vs_oracle", worst <= 1e-10, worst)

    # contraction of the resolvent
    worst = _max(_mag(graph.resolvent(eps_pool, x) - graph.resolvent(eps_pool, y))
                 - _mag(x - y))
    add("resolvent_contraction", worst <= 1e-12, worst)

    # Lipschitz bound of the Yosida map
    worst = _max(_mag(graph.yosida(eps_pool, x) - graph.yosida(eps_pool, y))
                 - _mag(x - y) / eps_pool)
    add("yosida_lipschitz", worst <= 1e-9, worst)

    # monotone slope of the Yosida map within [0, 1/eps]
    results.append(_slope_check(name, graph, eps=0.5))

    # zero is a fixed point: J_eps(0) = A_eps(0) = 0 and 0 in A(0)
    z = np.zeros((1, _dim(graph)))
    worst = max(_max(np.abs(graph.resolvent(0.5, z))), _max(np.abs(graph.yosida(0.5, z))),
                _max(np.abs(graph.minimal_section(z))))
    add("zero_fixed_point", worst == 0.0, worst)

    # semigroup identity (A_e)_d = A_{e+d} by its residual (see the module
    # docstring), also at a random inner level per point in [1e-3, 1], the
    # range of eps_pool
    inner_eps = 10.0 ** rng.uniform(-3, 0, size=(N_POINTS, 1))

    def semigroup_residual(e, d):
        u = x - d * graph.yosida(e + d, x)
        return _max(_mag(u + d * graph.yosida(e, u) - x)) / d

    worst = max(semigroup_residual(e, d) for e, d in SEMIGROUP_PAIRS + ((inner_eps, 0.2),))
    add("semigroup_identity", worst <= 1e-9, worst)

    # |A_eps x| never exceeds the least-norm selection on D(A)
    xd = _domain_points(graph, rng, N_POINTS)
    m0 = graph.minimal_section(xd)
    worst = max(_max(_mag(graph.yosida(e, xd)) - _mag(m0)) for e in eps_levels)
    add("yosida_below_minimal_section", worst <= 1e-9, worst)

    # convergence of A_eps to the least-norm selection as eps drops
    xc = _core_points(graph, rng, N_POINTS)
    mc = graph.minimal_section(xc)
    errs = [_max(_mag(graph.yosida(e, xc) - mc))
            for e in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
    dec = all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))
    add("yosida_to_minimal_section", dec and errs[-1] <= 1e-4, errs[-1],
        "errors " + " ".join(f"{e:.1e}" for e in errs))

    # linear growth certificate where a constant is configured
    c = graph.growth_constant
    if c is not None:
        worst = max(_max(_mag(graph.yosida(e, x)) - c * (1.0 + _mag(x)))
                    for e in eps_levels)
        add("linear_growth", worst <= 1e-9, worst, f"C={c:g}")

    # monotonicity of sampled graph pairs
    perm = rng.permutation(N_POINTS)
    worst = float(np.min(np.sum((m0 - m0[perm]) * (xd - xd[perm]), axis=-1)))
    add("graph_monotone_pairs", worst >= -1e-12, worst)
    return results


def _slope_check(name, graph, eps):
    """Finite-difference slopes of A_eps along a line through the origin lie
    in [0, 1/eps] up to float noise.

    The line is t*d for a unit vector d (d = 1 for scalar graphs), and the
    slope is that of t -> <A_eps(t d), d>.  The upper tolerance scales with
    1/eps because the exact slope equals 1/eps on the dead band and the
    difference quotient picks up rounding of order ulp/h there.  The Yosida
    map is globally defined, so the grid is not restricted to the graph
    domain.  An eps below 1e-2 is an extreme level: the grid is refined on
    [-4 eps, 4 eps] and the row is labelled ``yosida_slope_extreme``.
    """
    grid = np.linspace(-4.0, 4.0, 4001)
    extreme = eps < 1e-2
    if extreme:
        grid = np.unique(np.concatenate([grid, np.linspace(-4 * eps, 4 * eps, 2001)]))
    d = np.full(_dim(graph), _dim(graph) ** -0.5)
    vals = np.sum(graph.yosida(eps, grid[:, None] * d) * d, axis=-1)
    slopes = np.diff(vals) / np.diff(grid)
    tol_hi = 1e-9 + 1e-12 / eps
    worst_hi = float(np.max(slopes - 1.0 / eps))
    worst_lo = float(np.min(slopes))
    ok = worst_hi <= tol_hi and worst_lo >= -1e-9
    label = "yosida_slope_extreme" if extreme else "yosida_slope"
    return CheckResult("graph", name, label, ok,
                       max(worst_hi, -worst_lo), f"eps={eps:g}")


def potential_checks(name, spec, rng):
    """Envelope and splitting properties of one potential."""
    results = []
    graph = spec.beta_graph()
    lo, hi = spec.domain
    lo, hi = max(lo, -3.0), min(hi, 3.0)
    interior = rng.uniform(lo + 1e-6, hi - 1e-6, size=POTENTIAL_POINTS)
    anywhere = rng.uniform(-4.0, 4.0, size=POTENTIAL_POINTS)

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
    # All 40 intervals of one eps go through in one call per map: cuts are
    # sorted, not made unique, and a repeated cut makes a zero-width
    # segment, which adds an exact zero to the running sum.
    nodes, weights = np.polynomial.legendre.leggauss(32)
    worst = 0.0
    for eps in (0.1, 0.5):
        ab = np.sort(rng.uniform(-3.0, 3.0, size=(40, 2)), axis=1)
        a, b = ab[:, 0], ab[:, 1]
        cuts = np.sort(np.concatenate(
            [np.linspace(a, b, 25, axis=1), np.clip([-1.0, 1.0], a[:, None], b[:, None])],
            axis=1), axis=1)
        mid = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
        half = 0.5 * (cuts[:, 1:] - cuts[:, :-1])
        vals = graph.yosida(eps, mid[..., None] + half[..., None] * nodes)
        # the segments of each interval are added left to right
        integral = np.cumsum(half * np.sum(weights * vals, axis=-1), axis=1)[:, -1]
        env = envelope(spec, eps, ab)
        worst = max(worst, float(np.max(np.abs(env[:, 1] - env[:, 0] - integral))))
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
    x = rng.uniform(-10, 10, POTENTIAL_POINTS)
    y = rng.uniform(-10, 10, POTENTIAL_POINTS)
    gap = np.abs(np.asarray(spec.pi(x)) - np.asarray(spec.pi(y))) \
        - spec.lipschitz_pi * np.abs(x - y)
    worst = float(np.max(gap))
    results.append(CheckResult("potential", name, "pi_lipschitz",
                               worst <= 1e-9, worst, f"C_pi={spec.lipschitz_pi:g}"))
    return results


def run_selftest(seed=20240801):
    """Full property table over every built-in graph and potential."""
    rng = np.random.default_rng(seed)
    rows = []
    for name, graph in builtin_graphs().items():
        rows.extend(graph_checks(name, graph, rng))
    # Lipschitz certificate at an extreme regularization level
    rows.append(_slope_check("scalar_sign", ScalarSign(), eps=EXTREME_EPS))
    for name, spec in builtin_potentials().items():
        rows.extend(potential_checks(name, spec, rng))
    return rows
