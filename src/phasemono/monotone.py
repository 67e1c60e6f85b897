"""Maximal monotone graphs with exact resolvents and Yosida regularizations.

Scalar graphs act elementwise on floats or numpy arrays, and their ``eps``
may be a positive scalar or an array of positive values that broadcasts
against ``x`` (one regularization level per point, or per row of a stack of
grids); the nonlocal Sign graph acts on a
whole coefficient vector through its L2 norm, row by row on a stack of
vectors, with ``eps`` a scalar or one value per row.  Every graph exposes

* ``resolvent(eps, x)``   -- J_eps = (I + eps*A)^{-1}, a contraction with
  J_eps(0) = 0,
* ``yosida(eps, x)``      -- A_eps = (I - J_eps)/eps, single-valued and
  1/eps-Lipschitz, with A_eps(x) in A(J_eps(x)),
* ``yosida_kernel(eps)``  -- the same map at a fixed eps, checked once, as a
  function of a float array with no per-call checks and the constants of
  that eps bound (the Galerkin right-hand side binds it once per solve),
* ``minimal_section(x)``  -- the least-norm element of A(x),

together with a set-valued description ``value_interval`` from which the
independent bisection oracle :func:`resolvent_oracle` solves the inclusion
x in u + eps*A(u) without touching any closed form.  The oracle is the one
caller of the bisection :func:`solve_increasing`.

Most resolvents are closed forms, the quartic well's among them (the real
root of a depressed cubic).  The logarithmic well and the weighted power
with q != 1/2 solve their scalar equation by a Newton iteration that climbs
to the root from below without a bracket, in one loop that raises
:class:`ResolventError` when it does not converge.  At a scalar eps the
logarithmic well starts from a table bound for that eps, which may lie
above the root: the equation is concave, so the first step lands below it,
and only the residual decides convergence.  An eps per point starts below.

The semigroup identity (A_eps)_delta = A_{eps+delta} needs no root-find to
be checked: with u = x - delta*A_{eps+delta}(x), the map
F = I + delta*A_eps is strongly monotone with modulus 1, so
|u - F^{-1}(x)| <= |F(u) - x|, and |(A_eps)_delta(x) - A_{eps+delta}(x)|
is at most |u + delta*A_eps(u) - x|/delta.  The self-test bounds that
residual by 1e-9.
"""

from __future__ import annotations

import functools
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
    "ResolventError",
    "DomainError",
    "solve_increasing",
    "resolvent_oracle",
]

RESOLVENT_TOL = 1e-12
RESOLVENT_MAX_ITER = 200
# the least positive normal float: added to a denominator, it changes a
# quotient only where that denominator is itself below about 1e-292
_TINY = np.finfo(float).tiny


class ResolventError(RuntimeError):
    """The inner root-find of a resolvent did not converge."""


class DomainError(ValueError):
    """Point outside the effective domain of the graph."""


def _check_eps(eps):
    if not (np.asarray(eps) > 0).all():
        raise ValueError("eps must be positive")


def _restore(x, out):
    """Return a python float when the input was scalar."""
    if np.ndim(x) == 0:
        return float(out)
    return out


def solve_increasing(fun, target, lo, hi, tol=RESOLVENT_TOL, max_iter=RESOLVENT_MAX_ITER):
    """Solve fun(u) = target by bisection, for an increasing map whose
    difference quotients are at least 1.

    The map solved here is the clipped inclusion of :func:`resolvent_oracle`,
    so the residual |fun(u) - target| bounds the error |u - u*| directly and
    is the convergence criterion: it stops at tol, or at a few float spacings
    of |target| where those exceed tol.  Where rounding keeps the residual
    above that, the bracket closing to a few float spacings of u stops instead.

    The bracket ends are updated in place and each midpoint is formed as
    (lo + hi) * 0.5, the bits of 0.5 * (lo + hi).  The residual test comes
    first and returns u once every point passes it.  The bracket-width test
    needs a pass of ``np.spacing``, so it is built only when the first point
    still open by residual has closed its own bracket: while that point is
    open on both counts, the loop cannot stop.  Points, iterations and map
    evaluations are those of applying both tests at every step.
    """
    t = np.asarray(target, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), t.shape).astype(float)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), t.shape).astype(float)
    finite = np.isfinite(t) & np.isfinite(lo) & np.isfinite(hi)
    if not np.all(finite):
        # propagate non-finite inputs instead of stalling the bracket
        t = np.where(finite, t, 0.0)
        lo = np.where(finite, lo, 0.0)
        hi = np.where(finite, hi, 0.0)
        out = solve_increasing(fun, t, lo, hi, tol=tol, max_iter=max_iter)
        return np.where(finite, out, np.nan)
    res_tol = np.maximum(tol, 4.0 * np.spacing(np.abs(t)))
    u = lo + hi
    u *= 0.5
    for _ in range(max_iter):
        r = fun(u) - t
        np.copyto(hi, u, where=r >= 0.0)
        np.copyto(lo, u, where=r <= 0.0)
        small_res = np.abs(r) <= res_tol
        if small_res.all():
            return u
        k = small_res.argmin()
        if hi.flat[k] - lo.flat[k] <= 4.0 * np.spacing(abs(u.flat[k])):
            small_gap = (hi - lo) <= 4.0 * np.spacing(np.abs(u))
            if (small_res | small_gap).all():
                return np.where(small_res, u, 0.5 * (lo + hi))
        u = lo + hi
        u *= 0.5
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
        _check_eps(eps)
        return _restore(x, self._resolvent(eps, np.asarray(x, dtype=float)))

    def yosida(self, eps, x):
        _check_eps(eps)
        return _restore(x, self._yosida(eps, np.asarray(x, dtype=float)))

    def yosida_kernel(self, eps):
        """The Yosida map at this eps as a function of a float array: the
        body of :meth:`yosida`, with eps checked here once."""
        _check_eps(eps)
        return functools.partial(self._yosida, eps)

    # The array kernels: x is a float array and eps has been checked.

    def _resolvent(self, eps, x):
        raise NotImplementedError

    def _yosida(self, eps, x):
        return (x - self._resolvent(eps, x)) / eps

    def minimal_section(self, x):
        self._check_domain(x)
        lo, hi = self.value_interval(x)
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        out = np.where(lo > 0.0, lo, np.where(hi < 0.0, hi, 0.0))
        return _restore(x, out)

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

    def _resolvent(self, eps, x):
        return x.copy()

    def _yosida(self, eps, x):
        return np.zeros_like(x)


class ScalarSign(MonotoneGraph):
    """sign(r) = r/|r| for r != 0, the interval [-1, 1] at r = 0."""

    growth_constant = 1.0

    def value_interval(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(u > 0, 1.0, -1.0), np.where(u < 0, -1.0, 1.0)

    def _resolvent(self, eps, x):
        # soft threshold: shrink |x| by eps, zero inside the dead band
        return np.sign(x) * np.maximum(np.abs(x) - eps, 0.0)

    def _yosida(self, eps, x):
        # clipped in place on the fresh quotient; for the public maps' 0-d
        # input that quotient is a numpy scalar, which takes no out=
        t = x / eps
        if not t.ndim:
            return np.minimum(np.maximum(t, -1.0), 1.0)
        np.maximum(t, -1.0, out=t)
        return np.minimum(t, 1.0, out=t)


class Stefan(MonotoneGraph):
    """Enthalpy-temperature graph: two rays of slopes a1, a2 joined by a
    plateau on [0, 1], with the jump at r = 1 filled by [0, a2] (the unique
    maximal monotone extension)."""

    def __init__(self, alpha1, alpha2):
        if not (alpha1 > 0 and alpha2 > 0):
            raise ValueError("Stefan slopes must be positive")
        self.alpha1 = float(alpha1)
        self.alpha2 = float(alpha2)
        self.growth_constant = max(self.alpha1, self.alpha2)

    def value_interval(self, u):
        u = np.asarray(u, dtype=float)
        lo = np.where(u < 0, self.alpha1 * u, np.where(u <= 1.0, 0.0, self.alpha2 * u))
        hi = np.where(u < 0, self.alpha1 * u, np.where(u < 1.0, 0.0, self.alpha2 * u))
        return lo, hi

    def _resolvent(self, eps, x):
        return np.where(
            x < 0, x / (1.0 + eps * self.alpha1),
            np.where(x <= 1.0, x,
                     np.where(x <= 1.0 + eps * self.alpha2, 1.0,
                              x / (1.0 + eps * self.alpha2))))


class WeightedPower(MonotoneGraph):
    """A(v) = w(x) |v|^{q-1} v with 0 < q < 1 and nonnegative weight w,
    applied pointwise on the quadrature grid.

    Both maps go through t = |J_eps x|, the root of t + eps*w*t^q = |x|: a
    closed form for q = 1/2 and :func:`_power_root` otherwise.  The graph is
    single-valued, so the Yosida map is A(J_eps x) = w sign(x) t^q, which
    carries only the small relative error of t instead of dividing J's
    residual by eps as (x - J_eps x)/eps would.
    """

    def __init__(self, q, weight=1.0):
        if not 0.0 < q < 1.0:
            raise ValueError("power exponent q must lie in (0, 1)")
        w = np.asarray(weight, dtype=float)
        if not np.all(w >= 0):
            raise ValueError("weight must be nonnegative")
        self.q = float(q)
        self.weight = weight if np.ndim(weight) else float(weight)
        self.growth_constant = float(np.max(w))

    def value_interval(self, u):
        u = np.asarray(u, dtype=float)
        v = np.asarray(self.weight) * np.sign(u) * np.abs(u) ** self.q
        return v, v

    def _root(self, eps, x):
        """|J_eps x|: the root t >= 0 of t + eps*w*t^q = |x|."""
        s = np.abs(x)
        ew = eps * np.asarray(self.weight, dtype=float)
        if self.q == 0.5:
            # t + ew*sqrt(t) = s solved for sqrt(t), written cancellation-free;
            # _TINY only keeps s = ew = 0 from dividing 0 by 0
            root = 2.0 * s / (ew + np.sqrt(ew * ew + 4.0 * s + 0.0) + _TINY)
            return root * root
        return _power_root(self.q, ew, s)

    def _resolvent(self, eps, x):
        return np.sign(x) * self._root(eps, x)

    def _yosida(self, eps, x):
        return self.weight * np.sign(x) * self._root(eps, x) ** self.q


def _newton(name, step, z, res_tol):
    """Iterate ``z, r = step(z)``, the next iterate and the residual at the
    last, until no r lies above res_tol; the Newton loop of both root-finds.
    At the ``RESOLVENT_MAX_ITER`` cap, raise :class:`ResolventError`."""
    for _ in range(RESOLVENT_MAX_ITER):
        z, r = step(z)
        # once the residual is small, the step just taken leaves an error of
        # its square; written so that NaN entries count as converged
        if not (np.abs(r) > res_tol).any():
            return z
    raise ResolventError(
        f"{name} resolvent hit the {RESOLVENT_MAX_ITER}-iteration cap "
        f"(residual {float(np.nanmax(np.abs(r))):.3e})")


def _power_root(q, ew, s):
    """The root t >= 0 of t + ew*t^q = s >= 0, elementwise, for 0 < q < 1.

    The left side is increasing and concave in t, so Newton steps started
    below the root climb to it monotonically and need no bracket, as in
    :func:`_log_root`.  Since t <= s at the root, s <= t^q (s^(1-q) + ew),
    so (s/(s^(1-q) + ew))^(1/q) is such a start.  Each step
    r/f'(t) = r*t/(t + q*ew*t^q) is written without the pole of f' at t = 0;
    the ``_TINY`` added to the denominators can only shorten a step or lower
    the start, so both stay below the root.  Infinite or NaN s gives NaN.
    """
    s = np.where(s < np.inf, s, np.nan)

    def step(t):
        p = t ** q
        r = s - t - ew * p
        return t + r * (t / (t + q * ew * p + _TINY)), r

    t = (s / (s ** (1.0 - q) + ew + _TINY)) ** (1.0 / q)
    return _newton("power", step, t, RESOLVENT_TOL * np.maximum(1.0, s))


def _cubic_root(eps):
    """The real root u of u + eps*u**3 = x, elementwise, as a function of x
    with the constants of this eps bound once.

    Hyperbolic form of Cardano's formula for the depressed cubic
    u**3 + u/eps - x/eps = 0, whose only real root is
    u = (2/k) sinh(asinh(1.5*k*x)/3) with k = sqrt(3*eps).  It is exactly
    odd in x, has no cancellation at small |x|, and leaves a residual below
    1e-14*|x|.  Non-finite x gives NaN.

    One ``vdot`` of the root with itself clears it as finite, as in the
    state check of :mod:`phasemono.dynamics`: its terms are squares, so an
    infinite root makes the sum infinite and a NaN makes it NaN, and neither
    passes the test ``< inf``.  ``vdot`` raises no floating-point warning.
    A sum that overflows on finite roots only takes the slower path below,
    which gives the same values.
    """
    k = np.sqrt(3.0 * eps)
    a, b = 1.5 * k, 2.0 / k

    def root(x):
        z = a * x
        u = b * np.sinh(np.arcsinh(z) / 3.0)
        if np.vdot(u, u) < math.inf:
            return u
        # where 1.5*k*x overflowed for a finite x, asinh(z) = log(2|z|)
        # exactly in double precision and is taken in logs
        finite = np.isfinite(x)
        big = finite & ~np.isfinite(z)
        ax = np.abs(np.where(big, x, 1.0))
        t = np.where(big, np.sign(x) * (np.log(3.0 * k) + np.log(ax)), np.arcsinh(z))
        return np.where(finite, b * np.sinh(t / 3.0), np.nan)

    return root


# the largest float below 1, which caps the logarithmic resolvent, and its
# artanh
_LOG_TOP = math.nextafter(1.0, 0.0)
_LOG_ATANH_TOP = math.atanh(_LOG_TOP)


@functools.cache
def _log_nodes():
    """The table's nodes s_k on [0, artanh(top)], the largest root there is.

    Interpolating the inverse of h(s) = tanh(s) + 2*eps*s linearly between
    nodes a width d apart misses the root by about d^2 |h''|/(8 h'), and one
    Newton step from there leaves a residual of about
    d^4 |h''|^3/(128 h'^2).  For any eps that is at most
    d^4 sech^2(s) tanh^3(s)/16, so the nodes are spaced as
    (sech^2(s) tanh^3(s))^(-1/4): they are uniform in
    w = (1 - sech(s)^(1/2))^(7/8), which has that spacing near s = 0 and
    in the tail.  In a dense scan of y, 2048 nodes bring the residual after
    one step under ``RESOLVENT_TOL`` for every eps from 1e-12 to 10, and
    1280 already do."""
    w = np.linspace(0.0, (1.0 - math.sqrt(1.0 / math.cosh(_LOG_ATANH_TOP))) ** (7 / 8), 2048)
    s = np.arccosh((1.0 - w ** (8 / 7)) ** -2.0)
    s[0], s[-1] = 0.0, _LOG_ATANH_TOP
    s.flags.writeable = False
    return s


def _log_table(eps):
    """The start at one scalar eps, for the kernel and the public maps: the
    root of h(s) = tanh(s) + 2*eps*s = y interpolated linearly in y between
    the nodes (h(s_k), s_k) of :func:`_log_nodes`, and the last node beyond
    them.  h is concave, so its inverse is convex and the interpolated
    start may lie above the root; :func:`_log_root` takes it from there."""
    s = _log_nodes()
    y = np.tanh(s) + 2.0 * eps * s
    return lambda v: np.interp(v, y, s)


def _log_root(eps, x, start):
    """The root u in (-1, 1) of u + eps*log((1+u)/(1-u)) = x, elementwise,
    from the Newton start ``start(y)`` for y = |x|.

    The substitution u = tanh(s) turns the equation for |x| into
    h(s) = tanh(s) + 2*eps*s = |x|, with h increasing and concave on s >= 0,
    so Newton steps started below the root climb to it and need no
    bracket.  An eps per point starts at y/(1 + 2*eps), at or below the
    root because tanh(s) <= s gives h(s) <= (1 + 2*eps)*s; a scalar eps
    from its table, :func:`_log_table`, which may lie above the root.  By
    concavity the first step from above lands below it, so both climb from
    there.  Each step takes
    h'(s) = sech^2(s) + 2*eps as 1 - t^2 + 2*eps from the t = tanh(s) its
    residual needs.  Where tanh(s) rounds to within a few ulps of 1, that
    sech^2 is off by up to about 2e-16, so a step may exceed the exact
    Newton step by a relative 1e-16/eps and pass the root; from above it,
    the next step falls back below.  Only the residual decides convergence.
    The left side maps (-1, 1) onto R, but the largest float below 1 caps
    the representable roots: |x| beyond its image saturates there.  NaN x
    gives NaN.
    """
    y = np.minimum(np.abs(x), _LOG_TOP + 2.0 * eps * _LOG_ATANH_TOP)

    def step(s):
        t = np.tanh(s)
        r = y - t - 2.0 * eps * s
        return s + r / ((1.0 - t * t) + 2.0 * eps), r

    s = _newton("logarithmic", step, start(y), RESOLVENT_TOL * np.maximum(1.0, y))
    return np.copysign(np.minimum(np.tanh(s), _LOG_TOP), x)


class SubdiffBetaHat(MonotoneGraph):
    """Subdifferential of the convex part of a double-well potential.

    ``variant`` selects the branch: 'regular' gives r^3, 'logarithmic' gives
    log((1+r)/(1-r)) on (-1, 1), 'obstacle' gives the normal cone of [-1, 1].
    The regular and obstacle resolvents are closed forms (the real root of
    u + eps*u^3 = x, and the clip to [-1, 1]); the logarithmic one is a
    Newton iteration without bracket, see :func:`_log_root`.  The public
    maps and the kernel both bind the resolvent through :meth:`_bind_root`.
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
        """A(u) as (lo, hi).  The quartic well's u^3 is formed by products:
        on signed arrays ``u ** 3`` takes numpy's slow pow path."""
        self._check_domain(u)
        u = np.asarray(u, dtype=float)
        if self.variant == "regular":
            v = u * u * u
            return v, v
        if self.variant == "logarithmic":
            v = np.log1p(u) - np.log1p(-u)
            return v, v
        lo = np.where(u == -1.0, -math.inf, 0.0)
        hi = np.where(u == 1.0, math.inf, 0.0)
        return lo, hi

    def _bind_root(self, eps):
        """J_eps at this checked eps as a function of a float array; the
        logarithmic well starts from the table of a scalar eps, or from
        y/(1 + 2*eps) for an eps per point."""
        if self.variant == "obstacle":
            return lambda x: np.minimum(np.maximum(x, -1.0), 1.0)
        if self.variant == "regular":
            return _cubic_root(eps)
        start = _log_table(eps) if np.ndim(eps) == 0 else lambda y: y / (1.0 + 2.0 * eps)
        return functools.partial(_log_root, eps, start=start)

    def _resolvent(self, eps, x):
        return self._bind_root(eps)(x)

    def yosida_kernel(self, eps):
        _check_eps(eps)
        if self.variant == "obstacle":
            # (x - clip(x))/eps, in place on the one array that maximum makes
            def kernel(x):
                r = np.maximum(x, -1.0)
                np.minimum(r, 1.0, out=r)
                np.subtract(x, r, out=r)
                return np.divide(r, eps, out=r)
            return kernel
        root = self._bind_root(eps)
        return lambda x: (x - root(x)) / eps


class NonlocalSign(MonotoneGraph):
    """Sign(v) = v/||v|| for v != 0 and the closed unit ball at v = 0,
    acting on coefficient vectors through the Parseval norm: the Euclidean
    norm of the coefficients, which is the H-norm of the field because the
    Galerkin basis is H-orthonormal.

    The resolvent is the norm shrink J_eps(v) = v * max(0, ||v|| - eps)/||v||,
    obtained by reducing the inclusion to the scalar sign graph along the ray
    spanned by v (the graph is the subdifferential of the norm).  The norm
    runs over the last axis, so a stack of vectors of shape (B, m) is mapped
    row by row, and ``eps`` may be an array of shape (B, 1).
    """

    is_nonlocal = True
    growth_constant = 1.0
    radial = ScalarSign()

    @staticmethod
    def _norm(v):
        """Parseval norm of each row, keeping the reduced axis."""
        return np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))

    def _resolvent(self, eps, v):
        s = self._norm(v)
        return v * (np.maximum(s - eps, 0.0) / np.where(s == 0.0, 1.0, s))

    def _yosida(self, eps, v):
        return v / np.maximum(self._norm(v), eps)

    def minimal_section(self, v):
        v = np.asarray(v, dtype=float)
        s = self._norm(v)
        return v / np.where(s == 0.0, 1.0, s)


def resolvent_oracle(graph, eps, x):
    """Solve x in u + eps*A(u) by bisection on the raw graph data.

    Independent of every closed-form or Newton resolvent: only
    ``value_interval`` is consulted.  :func:`solve_increasing` drives the
    residual clip(x, u + eps*inf A(u), u + eps*sup A(u)) - x to zero.  It is
    exactly 0 where the inclusion holds, and by monotonicity of A it has the
    sign of u - J_eps(x) and at least its size elsewhere.  The bracket is
    |u| <= |x| + 1 within the domain, closed 1 ulp inside an excluded end;
    an x beyond the image of a finite end saturates there.  Nonlocal graphs
    are reduced to their radial scalar profile along each row's direction,
    so a stack of vectors of shape (B, m) takes one call, with ``eps`` a
    scalar or of shape (B, 1).
    """
    _check_eps(eps)
    if graph.is_nonlocal:
        v = np.asarray(x, dtype=float)
        s = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
        t = resolvent_oracle(graph.radial, eps, s)
        return v * (t / np.where(s == 0.0, 1.0, s))

    arr = np.asarray(x, dtype=float)
    dlo, dhi = graph.domain
    if graph.open_domain[0] and math.isfinite(dlo):
        dlo = np.nextafter(dlo, dhi)
    if graph.open_domain[1] and math.isfinite(dhi):
        dhi = np.nextafter(dhi, dlo)
    hi = np.minimum(dhi, np.abs(arr) + 1.0)
    lo = np.minimum(np.maximum(dlo, -(np.abs(arr) + 1.0)), hi)

    def clipped(u):
        vlo, vhi = graph.value_interval(u)
        return np.minimum(np.maximum(arr, u + eps * vlo), u + eps * vhi)

    out = solve_increasing(clipped, arr, lo, hi)
    if math.isfinite(dlo):
        out = np.where(arr <= dlo + eps * graph.value_interval(dlo)[0], dlo, out)
    if math.isfinite(dhi):
        out = np.where(arr >= dhi + eps * graph.value_interval(dhi)[1], dhi, out)
    return _restore(x, out)
