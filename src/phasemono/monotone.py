"""Maximal monotone graphs with exact resolvents and Yosida regularizations.

Scalar graphs act elementwise on floats or numpy arrays; the nonlocal Sign
graph acts on a whole coefficient vector through its L2 norm.  Every graph
exposes

* ``resolvent(eps, x)``   -- J_eps = (I + eps*A)^{-1}, a contraction with
  J_eps(0) = 0,
* ``yosida(eps, x)``      -- A_eps = (I - J_eps)/eps, single-valued and
  1/eps-Lipschitz, with A_eps(x) in A(J_eps(x)),
* ``minimal_section(x)``  -- the least-norm element of A(x),

together with a set-valued description ``value_interval`` from which the
independent bisection oracle :func:`resolvent_oracle` solves the inclusion
x in u + eps*A(u) without touching any closed form.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "MonotoneGraph",
    "ZeroGraph",
    "ScalarSign",
    "NonlocalSign",
    "Stefan",
    "WeightedPower",
    "SubdiffBetaHat",
    "YosidaGraph",
    "ResolventError",
    "DomainError",
    "solve_increasing",
    "resolvent_oracle",
]

RESOLVENT_TOL = 1e-12
RESOLVENT_MAX_ITER = 200


class ResolventError(RuntimeError):
    """The inner root-find of a resolvent did not converge."""


class DomainError(ValueError):
    """Point outside the effective domain of the graph."""


def _restore(x, out):
    """Return a python float when the input was scalar."""
    if np.ndim(x) == 0:
        return float(out)
    return out


def solve_increasing(fun, target, lo, hi, deriv=None,
                     tol=RESOLVENT_TOL, max_iter=RESOLVENT_MAX_ITER):
    """Solve fun(u) = target for an increasing map with slope >= 1.

    Safeguarded bisection, optionally accelerated by Newton steps that are
    accepted only while they stay strictly inside the current bracket.  The
    maps solved here all have the form u + eps*A(u) with A monotone, so the
    residual |fun(u) - target| bounds the error |u - u*| directly and serves
    as a second convergence criterion next to the bracket width.
    """
    t = np.asarray(target, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), t.shape).astype(float).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), t.shape).astype(float).copy()
    finite = np.isfinite(t) & np.isfinite(lo) & np.isfinite(hi)
    if not np.all(finite):
        # propagate non-finite inputs instead of stalling the bracket
        t = np.where(finite, t, 0.0)
        lo = np.where(finite, lo, 0.0)
        hi = np.where(finite, hi, 0.0)
        out = solve_increasing(fun, t, lo, hi, deriv=deriv, tol=tol, max_iter=max_iter)
        return np.where(finite, out, np.nan)
    u = 0.5 * (lo + hi)
    for _ in range(max_iter):
        r = fun(u) - t
        hi = np.where(r >= 0.0, u, hi)
        lo = np.where(r <= 0.0, u, lo)
        small_res = np.abs(r) <= tol
        small_gap = (hi - lo) <= tol
        if np.all(small_res | small_gap):
            return np.where(small_res, u, 0.5 * (lo + hi))
        if deriv is not None:
            d = deriv(u)
            cand = u - r / d
            ok = np.isfinite(cand) & (cand > lo) & (cand < hi)
            u = np.where(ok, cand, 0.5 * (lo + hi))
        else:
            u = 0.5 * (lo + hi)
    width = float(np.max(hi - lo))
    res = float(np.max(np.abs(fun(0.5 * (lo + hi)) - t)))
    raise ResolventError(
        f"resolvent root-find hit the {max_iter}-iteration cap "
        f"(bracket width {width:.3e}, residual {res:.3e})")


class MonotoneGraph:
    """Base class for maximal monotone graphs.

    ``domain`` is the closure of the effective domain D(A); ``open_domain``
    marks which endpoints are excluded from D(A).  ``growth_constant`` is the
    constant C in the linear-growth bound |v| <= C(1 + |x|), or None when the
    graph admits no such bound.
    """

    is_nonlocal = False
    growth_constant: float | None = None
    domain = (-math.inf, math.inf)
    open_domain = (False, False)

    def value_interval(self, u):
        """The set A(u) as a closed interval (lo, hi), elementwise."""
        raise NotImplementedError

    def resolvent(self, eps, x):
        raise NotImplementedError

    def yosida(self, eps, x):
        if eps <= 0:
            raise ValueError("eps must be positive")
        arr = np.asarray(x, dtype=float)
        j = np.asarray(self.resolvent(eps, x), dtype=float)
        return _restore(x, (arr - j) / eps)

    def minimal_section(self, x):
        self._check_domain(x)
        lo, hi = self.value_interval(x)
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        out = np.where(lo > 0.0, lo, np.where(hi < 0.0, hi, 0.0))
        return _restore(x, out)

    def contains(self, u, v, tol=1e-9):
        """Whether v lies in A(u) up to tol, for all sampled points."""
        lo, hi = self.value_interval(u)
        v = np.asarray(v, dtype=float)
        return bool(np.all((v >= np.asarray(lo) - tol) & (v <= np.asarray(hi) + tol)))

    def _check_domain(self, x):
        arr = np.asarray(x, dtype=float)
        lo, hi = self.domain
        bad = (arr < lo) | (arr > hi)
        if self.open_domain[0]:
            bad |= arr == lo
        if self.open_domain[1]:
            bad |= arr == hi
        if np.any(bad):
            raise DomainError(
                f"point outside the effective domain [{lo}, {hi}] of {type(self).__name__}")


class ZeroGraph(MonotoneGraph):
    """The trivial graph A = 0 (the unperturbed system)."""

    growth_constant = 0.0

    def value_interval(self, u):
        z = np.zeros_like(np.asarray(u, dtype=float))
        return z, z

    def resolvent(self, eps, x):
        arr = np.asarray(x, dtype=float)
        return _restore(x, arr.copy())

    def yosida(self, eps, x):
        if eps <= 0:
            raise ValueError("eps must be positive")
        return _restore(x, np.zeros_like(np.asarray(x, dtype=float)))


class ScalarSign(MonotoneGraph):
    """sign(r) = r/|r| for r != 0, the interval [-1, 1] at r = 0."""

    growth_constant = 1.0

    def value_interval(self, u):
        u = np.asarray(u, dtype=float)
        lo = np.where(u < 0, -1.0, np.where(u > 0, 1.0, -1.0))
        hi = np.where(u < 0, -1.0, np.where(u > 0, 1.0, 1.0))
        return lo, hi

    def resolvent(self, eps, x):
        # soft threshold: shrink |x| by eps, zero inside the dead band
        arr = np.asarray(x, dtype=float)
        out = np.sign(arr) * np.maximum(np.abs(arr) - eps, 0.0)
        return _restore(x, out)

    def yosida(self, eps, x):
        if eps <= 0:
            raise ValueError("eps must be positive")
        arr = np.asarray(x, dtype=float)
        return _restore(x, np.clip(arr / eps, -1.0, 1.0))


class Stefan(MonotoneGraph):
    """Enthalpy-temperature graph: two rays of slopes a1, a2 joined by a
    plateau on [0, 1], with the jump at r = 1 filled by [0, a2] (the unique
    maximal monotone extension)."""

    def __init__(self, alpha1, alpha2):
        if alpha1 <= 0 or alpha2 <= 0:
            raise ValueError("Stefan slopes must be positive")
        self.alpha1 = float(alpha1)
        self.alpha2 = float(alpha2)
        self.growth_constant = max(self.alpha1, self.alpha2)

    def value_interval(self, u):
        u = np.asarray(u, dtype=float)
        lo = np.where(u < 0, self.alpha1 * u, np.where(u <= 1.0, 0.0, self.alpha2 * u))
        hi = np.where(u < 0, self.alpha1 * u, np.where(u < 1.0, 0.0, self.alpha2 * u))
        return lo, hi

    def resolvent(self, eps, x):
        arr = np.asarray(x, dtype=float)
        out = np.where(
            arr < 0, arr / (1.0 + eps * self.alpha1),
            np.where(arr <= 1.0, arr,
                     np.where(arr <= 1.0 + eps * self.alpha2, 1.0,
                              arr / (1.0 + eps * self.alpha2))))
        return _restore(x, out)


class WeightedPower(MonotoneGraph):
    """A(v) = w(x) |v|^{q-1} v with 0 < q < 1 and nonnegative weight w,
    applied pointwise on the quadrature grid."""

    def __init__(self, q, weight=1.0):
        if not 0.0 < q < 1.0:
            raise ValueError("power exponent q must lie in (0, 1)")
        w = np.asarray(weight, dtype=float)
        if np.any(w < 0):
            raise ValueError("weight must be nonnegative")
        self.q = float(q)
        self.weight = weight if np.ndim(weight) else float(weight)
        self.growth_constant = float(np.max(w))

    def value_interval(self, u):
        u = np.asarray(u, dtype=float)
        v = np.asarray(self.weight) * np.sign(u) * np.abs(u) ** self.q
        return v, v

    def resolvent(self, eps, x):
        arr = np.asarray(x, dtype=float)
        w = np.broadcast_to(np.asarray(self.weight, dtype=float), arr.shape)
        s = np.abs(arr)
        ew = eps * w
        if self.q == 0.5:
            # t + ew*sqrt(t) = s solved for sqrt(t), written cancellation-free
            root = 2.0 * s / (ew + np.sqrt(ew * ew + 4.0 * s + 0.0))
            t = root * root
        else:
            q = self.q
            t = solve_increasing(lambda t: t + ew * t ** q, s, 0.0, s)
        return _restore(x, np.sign(arr) * t)


class SubdiffBetaHat(MonotoneGraph):
    """Subdifferential of the convex part of a double-well potential.

    ``variant`` selects the branch: 'regular' gives r^3, 'logarithmic' gives
    log((1+r)/(1-r)) on (-1, 1), 'obstacle' gives the normal cone of [-1, 1].
    """

    VARIANTS = ("regular", "logarithmic", "obstacle")

    def __init__(self, variant):
        if variant not in self.VARIANTS:
            raise ValueError(f"unknown convex-part variant {variant!r}")
        self.variant = variant
        if variant == "logarithmic":
            self.domain = (-1.0, 1.0)
            self.open_domain = (True, True)
        elif variant == "obstacle":
            self.domain = (-1.0, 1.0)

    def value_interval(self, u):
        self._check_domain(u)
        u = np.asarray(u, dtype=float)
        if self.variant == "regular":
            v = u ** 3
            return v, v
        if self.variant == "logarithmic":
            v = np.log1p(u) - np.log1p(-u)
            return v, v
        lo = np.where(u == -1.0, -math.inf, 0.0)
        hi = np.where(u == 1.0, math.inf, 0.0)
        return lo, hi

    def resolvent(self, eps, x):
        arr = np.asarray(x, dtype=float)
        if self.variant == "obstacle":
            return _restore(x, np.clip(arr, -1.0, 1.0))
        if self.variant == "regular":
            out = solve_increasing(
                lambda u: u + eps * u ** 3, arr,
                np.minimum(arr, 0.0), np.maximum(arr, 0.0),
                deriv=lambda u: 1.0 + 3.0 * eps * u * u)
            return _restore(x, out)
        # logarithmic: increasing and surjective from (-1, 1) onto R, but the
        # largest representable image point sits at 1 - ulp; saturate beyond it
        lo0 = np.nextafter(-1.0, 0.0)
        hi0 = np.nextafter(1.0, 0.0)

        def g(u):
            return u + eps * (np.log1p(u) - np.log1p(-u))

        glo, ghi = g(lo0), g(hi0)
        clipped = np.clip(arr, glo, ghi)
        core = solve_increasing(
            g, clipped, lo0, hi0,
            deriv=lambda u: 1.0 + eps * (1.0 / (1.0 + u) + 1.0 / (1.0 - u)))
        out = np.where(arr >= ghi, hi0, np.where(arr <= glo, lo0, core))
        return _restore(x, out)


class NonlocalSign(MonotoneGraph):
    """Sign(v) = v/||v|| for v != 0 and the closed unit ball at v = 0,
    acting on coefficient vectors through the Parseval norm.

    The resolvent is the norm shrink J_eps(v) = v * max(0, ||v|| - eps)/||v||,
    obtained by reducing the inclusion to the scalar sign graph along the ray
    spanned by v (the graph is the subdifferential of the norm).
    """

    is_nonlocal = True
    growth_constant = 1.0
    radial = ScalarSign()

    @staticmethod
    def _norm(v, mass=None):
        v = np.asarray(v, dtype=float)
        if mass is None:
            return float(np.sqrt(np.sum(v * v)))
        return float(np.sqrt(np.sum(np.asarray(mass) * v * v)))

    def resolvent(self, eps, v, mass=None):
        if eps <= 0:
            raise ValueError("eps must be positive")
        v = np.asarray(v, dtype=float)
        s = self._norm(v, mass)
        if s == 0.0:
            return np.zeros_like(v)
        return v * (max(s - eps, 0.0) / s)

    def yosida(self, eps, v, mass=None):
        if eps <= 0:
            raise ValueError("eps must be positive")
        v = np.asarray(v, dtype=float)
        s = self._norm(v, mass)
        if s > eps:
            return v / s
        return v / eps

    def minimal_section(self, v, mass=None):
        v = np.asarray(v, dtype=float)
        s = self._norm(v, mass)
        if s == 0.0:
            return np.zeros_like(v)
        return v / s


class YosidaGraph(MonotoneGraph):
    """The Yosida regularization A_eps viewed as a graph of its own, used to
    verify the semigroup identity (A_eps)_delta = A_{eps+delta}."""

    def __init__(self, base, eps):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.base = base
        self.eps = float(eps)
        self.is_nonlocal = base.is_nonlocal
        self.growth_constant = base.growth_constant

    def value_interval(self, u):
        v = np.asarray(self.base.yosida(self.eps, u), dtype=float)
        return v, v

    def resolvent(self, delta, x):
        if self.is_nonlocal:
            v = np.asarray(x, dtype=float)
            s = float(np.sqrt(np.sum(v * v)))
            if s == 0.0:
                return np.zeros_like(v)
            radial = YosidaGraph(self.base.radial, self.eps)
            t = radial.resolvent(delta, s)
            return v * (t / s)
        arr = np.asarray(x, dtype=float)
        out = solve_increasing(
            lambda u: u + delta * np.asarray(self.base.yosida(self.eps, u)),
            arr, np.minimum(arr, 0.0), np.maximum(arr, 0.0), tol=1e-13)
        return _restore(x, out)


def resolvent_oracle(graph, eps, x, tol=RESOLVENT_TOL, max_iter=RESOLVENT_MAX_ITER):
    """Solve x in u + eps*A(u) by interval bisection on the raw graph data.

    Independent of every closed-form or Newton resolvent: only
    ``value_interval`` is consulted.  A midpoint u is moved right while
    u + eps*sup A(u) < x, left while u + eps*inf A(u) > x, and accepted as
    soon as the inclusion holds.  Nonlocal graphs are reduced to their radial
    scalar profile along the input direction.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if graph.is_nonlocal:
        v = np.asarray(x, dtype=float)
        s = float(np.sqrt(np.sum(v * v)))
        if s == 0.0:
            return np.zeros_like(v)
        t = resolvent_oracle(graph.radial, eps, s, tol=tol, max_iter=max_iter)
        return v * (t / s)

    arr = np.atleast_1d(np.asarray(x, dtype=float))
    dlo, dhi = graph.domain
    if graph.open_domain[0] and math.isfinite(dlo):
        dlo = np.nextafter(dlo, dhi)
    if graph.open_domain[1] and math.isfinite(dhi):
        dhi = np.nextafter(dhi, dlo)
    lo = np.maximum(np.full_like(arr, dlo), -(np.abs(arr) + 1.0))
    hi = np.minimum(np.full_like(arr, dhi), np.abs(arr) + 1.0)
    lo = np.minimum(lo, hi)

    # saturation at finite domain endpoints whose image stays bounded
    lo_lo, _ = graph.value_interval(np.full_like(arr, dlo) if math.isfinite(dlo) else lo)
    _, hi_hi = graph.value_interval(np.full_like(arr, dhi) if math.isfinite(dhi) else hi)
    sat_lo = math.isfinite(dlo) & (arr <= dlo + eps * lo_lo)
    sat_hi = math.isfinite(dhi) & (arr >= dhi + eps * hi_hi)

    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        vlo, vhi = graph.value_interval(mid)
        right = mid + eps * np.asarray(vhi) < arr
        left = mid + eps * np.asarray(vlo) > arr
        found = ~right & ~left
        lo = np.where(right | found, mid, lo)
        hi = np.where(left | found, mid, hi)
        if np.all(hi - lo <= tol):
            break
    out = 0.5 * (lo + hi)
    if math.isfinite(dlo):
        out = np.where(sat_lo, dlo, out)
    if math.isfinite(dhi):
        out = np.where(sat_hi, dhi, out)
    return _restore(x, out.reshape(np.shape(x)))
