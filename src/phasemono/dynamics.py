"""Galerkin ODE system for the coupled phase-field evolution and its
time integrators.

The coupled system is solved in the variables (phi, theta) with
theta = eta + (ell - alpha) * phi, which makes the stiff part of each
equation a diagonal Laplacian:

    d theta/dt = k lap(theta) - k ell lap(phi) - A_eps(eta) + f - k lap(eta*)
    d phi/dt   = nu lap(phi) - beta_eps(phi) - pi(phi)
                 + gamma (theta - ell phi + eta*)

with eta = theta - (ell - alpha) phi.  The state is one array of shape
(..., 2, m): per member, the coefficients of phi, then those of theta.
Linear diffusion acts diagonally in coefficient space, and so does pi,
which is linear.  beta and a pointwise graph are evaluated on the
dealiased quadrature grid and projected back.  The nonlocal Sign graph
acts directly on coefficients through the Parseval norm.

Integrators: IMEX Euler (diagonal Laplacians implicit, everything else
explicit), classical RK4, and an embedded Dormand-Prince 4(5) pair with
adaptive step control.  All of them are deterministic given their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .monotone import DomainError, ZeroGraph
from .potentials import envelope

__all__ = [
    "METHODS",
    "FieldCoeffs",
    "Forcing",
    "ModelParams",
    "InitialData",
    "SolutionTrajectory",
    "Schedule",
    "BlowUpError",
    "StepFailure",
    "prepare_initial",
    "solve",
]


# integrators: IMEX Euler, classical RK4, Dormand-Prince 4(5)
METHODS = ("imex", "rk4", "rk45")


class BlowUpError(RuntimeError):
    """Solution norm exceeded the configured ceiling.  ``field`` names the
    field over it ("phi" or "theta"; "phi" if both are), and ``member`` the
    index of the first stacked member over it, or None for a single state."""

    def __init__(self, time, norm, field, member=None):
        where = "" if member is None else f" of stack row {member}"
        super().__init__(
            f"blow-up detected in {field}{where} at t = {time:.6g} (norm {norm:.3e})")
        self.time = time
        self.norm = norm
        self.field = field
        self.member = member


class StepFailure(RuntimeError):
    """Adaptive step-size control collapsed below the minimum step."""

    def __init__(self, time):
        super().__init__(f"step rejection cascade at t = {time:.6g}")
        self.time = time


@dataclass(frozen=True, eq=False)
class FieldCoeffs:
    """A field represented by its coefficients in the truncated basis."""

    coeffs: np.ndarray


@dataclass(frozen=True, eq=False)
class Forcing:
    """Time-sampled coefficient representation of the source term, linearly
    interpolated between samples and held at the end samples outside them.

    The interpolation slopes are computed once, when the forcing is built.
    So is whether all samples are equal (NaN samples never are): a constant
    forcing then returns its stored row, read-only, with no lookup."""

    times: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) < 2 or np.any(np.diff(t) <= 0):
            raise ValueError("forcing needs at least two strictly increasing times")
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape[0] != len(t):
            raise ValueError("forcing samples and times disagree")
        widths = np.diff(t)
        tail = (1,) * (c.ndim - 1)
        row = c[0].copy() if np.all(c == c[0]) else None
        if row is not None:
            row.flags.writeable = False
        # derived once here; the dataclass is frozen
        put = object.__setattr__
        put(self, "_t", t)
        put(self, "_c", c)
        put(self, "_widths", widths)
        put(self, "_tail", tail)
        put(self, "_slopes", np.diff(c, axis=0) / widths.reshape((-1,) + tail))
        put(self, "_row", row)

    @staticmethod
    def constant(coeffs, t_final):
        """The forcing equal to ``coeffs``, a vector or a (B, m) stack, at
        every time."""
        c = np.asarray(coeffs, dtype=float)
        return Forcing(np.array([0.0, t_final]), np.stack((c, c)))

    def at(self, t):
        """The forcing at time t, or at each time of an array t: one row of
        ``coeffs`` per time, shaped (len(t), ...) for a vector of times."""
        if self._row is not None:
            # a float time, as the integrators pass, skips np.ndim's conversion
            if isinstance(t, float) or np.ndim(t) == 0:
                return self._row
            return np.tile(self._row, np.shape(t) + (1,) * self._row.ndim)
        i = np.searchsorted(self._t, t, side="right") - 1
        i = np.minimum(np.maximum(i, 0), len(self._t) - 2)
        dt = np.minimum(np.maximum(t - self._t[i], 0.0), self._widths[i])
        return self._c[i] + np.reshape(dt, np.shape(dt) + self._tail) * self._slopes[i]


@dataclass(frozen=True, eq=False)
class ModelParams:
    """All coefficients, data and operators of one problem instance.

    ``eps`` is a positive float, or, for :func:`solve` only, a vector with
    one positive eps per row of a coefficient stack, kept as a read-only
    float array.  Every other user of ``eps`` takes the float."""

    ell: float
    alpha: float
    k: float
    nu: float
    gamma: float
    t_final: float
    basis: spectral.SpectralBasis
    eta_star: FieldCoeffs
    forcing: Forcing
    graph: object
    potential: object
    eps: float
    blowup_ceiling: float = 1e8

    def __post_init__(self):
        for name in ("ell", "alpha", "k", "nu"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.gamma >= 0:
            raise ValueError("gamma must be nonnegative")
        if not self.t_final > 0:
            raise ValueError("t_final must be positive")
        if np.ndim(self.eps):
            eps = np.array(self.eps, dtype=float)
            if eps.ndim != 1 or not eps.size:
                raise ValueError("eps must be a float or a vector of one eps per stack row")
            eps.flags.writeable = False
            object.__setattr__(self, "eps", eps)
        # written so that a NaN entry is refused
        if not np.all(np.asarray(self.eps) > 0):
            raise ValueError("eps must be positive")
        if not self.blowup_ceiling > 0:
            raise ValueError("blowup_ceiling must be positive")


@dataclass(frozen=True, eq=False)
class InitialData:
    """Projected initial data plus the quantities controlling the convex-part
    envelope of the projected order parameter.  ``q_eps`` is the envelope
    budget: a float, or an array of one budget per row of a stack."""

    eta0: FieldCoeffs
    phi0: FieldCoeffs
    q_eps: float


def prepare_initial(basis, eta0_grid, phi0_grid, potential, eps):
    """Project initial data and compute the envelope budget

        q_eps = ||beta_hat(phi0)||_L1
                + ||phi0 - P phi0|| (||phi0|| + ||P phi0||) / (2 eps),

    which dominates the integral of the envelope of the projected datum.
    Validates that the convex part is integrable on the supplied datum (for
    the bounded-domain wells this means |phi0| <= 1 everywhere), and raises
    DomainError otherwise.
    """
    phi0_grid = np.asarray(phi0_grid, dtype=float)
    eta0_grid = np.asarray(eta0_grid, dtype=float)
    dlo, dhi = potential.domain
    worst = float(np.max(np.abs(phi0_grid))) if phi0_grid.size else 0.0
    if math.isfinite(dhi) and worst > dhi:
        raise DomainError(
            f"initial order parameter leaves the potential domain "
            f"(max |phi0| = {worst:.6g} > {dhi:g})")
    phi0_c = spectral.from_grid(basis, phi0_grid)
    eta0_c = spectral.from_grid(basis, eta0_grid)
    # a datum whose squares overflow has the budget inf; the solve then
    # stops it at the blow-up ceiling before its first step
    with np.errstate(over="ignore"):
        beta_l1 = spectral.grid_integral(basis, potential.beta_hat(phi0_grid))
        diff = phi0_grid - spectral.to_grid(basis, phi0_c)
        n_phi0 = math.sqrt(max(spectral.grid_integral(basis, phi0_grid ** 2), 0.0))
        n_proj = spectral.h_norm(basis, phi0_c)
        n_diff = math.sqrt(max(spectral.grid_integral(basis, diff ** 2), 0.0))
    q_eps = beta_l1 + n_diff * (n_phi0 + n_proj) / (2.0 * eps)
    return InitialData(
        eta0=FieldCoeffs(eta0_c),
        phi0=FieldCoeffs(phi0_c),
        q_eps=q_eps)


@dataclass(frozen=True)
class Schedule:
    """Time-stepping request: fixed step dt for imex/rk4, local tolerance for
    rk45, and the number of stored samples (including t = 0 and t = T)."""

    method: str = "imex"
    dt: float = 1e-3
    tol: float = 1e-8
    n_saves: int = 101

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not (self.dt > 0 and self.tol > 0):
            raise ValueError("dt and tol must be positive")
        if self.n_saves < 2:
            raise ValueError("need at least two samples")


@dataclass(frozen=True, eq=False)
class SolutionTrajectory:
    """Sampled trajectory with the realized selection terms and the exact
    semidiscrete time derivatives at the samples."""

    times: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    zeta: np.ndarray
    xi: np.ndarray
    dphi: np.ndarray
    dtheta: np.ndarray
    ell_minus_alpha: float
    stats: dict
    initial: InitialData = field(repr=False, default=None)

    @property
    def eta(self):
        return self.theta - self.ell_minus_alpha * self.phi

    @property
    def deta(self):
        return self.dtheta - self.ell_minus_alpha * self.dphi


def _grid_maps(basis, dm, pointwise, coupling):
    """Bind the transforms and the explicit linear terms of one solve.
    ``analyse(y)`` gives the grid of phi and the graph's argument (the grid
    of eta for a pointwise graph, else its coefficients).  From the grid
    values b = beta_eps(phi) and the graph's values g,
    ``explicit(b, g, y, record)`` gives the explicit part of d y/dt less
    the source: sum_j coupling[r, j] * y[j] in row r, less P b in the phi
    row and less zeta in the theta row.  A recording call also returns zeta
    and xi = P b, else None for both.

    In 1D each map is one product with a matrix bound here, on a 2-D operand
    so that a vector and a one-row stack take the same BLAS path.  The
    products are taken with ``ndarray.dot``: on 2-D operands it gives the
    bits of ``@`` with less overhead per call.  The analysis matrix folds
    in the shift eta = theta - (ell - alpha) phi;
    ``E`` acts on the concatenation (b, g, y) and holds the negated
    quadrature projections (an identity block for coefficients) and the
    diagonal coupling.  A save projects zeta and xi through the blocks of
    ``E``.  In 2D such blocks would be far too large: the shift is made on
    the coefficients, the pair takes one ``spectral.to_grid`` and each field
    one ``spectral.from_grid``."""
    if basis.dims == 2:
        shift = np.array([[0.0], [dm]])
        c_phi, c_theta = coupling[:, 0], coupling[:, 1]

        def analyse(y):
            pair = y - shift * y[..., :1, :]
            if not pointwise:
                return spectral.to_grid(basis, pair[..., 0, :]), pair[..., 1, :]
            grid = spectral.to_grid(basis, pair)
            return grid[..., 0, :, :], grid[..., 1, :, :]

        def explicit(b, g, y, record=False):
            xi = spectral.from_grid(basis, b)
            zeta = spectral.from_grid(basis, g) if pointwise else g
            ex = y[..., :1, :] * c_phi + y[..., 1:, :] * c_theta
            ex[..., 0, :] -= xi
            ex[..., 1, :] -= zeta
            return (ex, zeta, xi) if record else (ex, None, None)

        return analyse, explicit

    n, quad = basis.n, basis.m_quad
    # eta to the graph's argument, and the graph's values back to zeta
    to_arg, from_arg = ((basis.mats[0].T, basis.spacings[0] * basis.mats[0]) if pointwise
                        else (np.eye(n), np.eye(n)))
    arg = to_arg.shape[1]
    analysis = np.zeros((2 * n, quad + arg))
    analysis[:n, :quad] = basis.mats[0].T
    analysis[:n, quad:] = -dm * to_arg
    analysis[n:, quad:] = to_arg
    E = np.zeros((quad + arg + 2 * n, 2 * n))
    E[:quad, :n] = -basis.spacings[0] * basis.mats[0]
    E[quad:quad + arg, n:] = -from_arg
    # the diagonal coupling: field j of mode i to row r of mode i
    i = np.arange(n)
    E[quad + arg:].reshape(2, n, 2, n)[:, i, :, i] = coupling.T
    to_xi, to_zeta = E[:quad, :n], E[quad:quad + arg, n:]

    def analyse(y):
        grid = y.reshape(-1, 2 * n).dot(analysis)
        return grid[:, :quad], grid[:, quad:]

    def explicit(b, g, y, record=False):
        ex = np.concatenate((b, g, y.reshape(-1, 2 * n)), axis=1).dot(E)
        if not record:
            return ex.reshape(y.shape), None, None
        rows = y.shape[:-2] + (n,)
        return ex.reshape(y.shape), -g.dot(to_zeta).reshape(rows), -b.dot(to_xi).reshape(rows)

    return analyse, explicit


class _Rhs:
    """Right-hand-side assembly for one parameter set, on states y of shape
    (..., 2, m): row 0 holds phi and row 1 theta.  What does not depend on
    the state is bound once per solve: the Yosida kernels of the graph and
    of beta at the checked eps, the forcing lookup, and the maps of
    :func:`_grid_maps` with the linear terms folded in.  An eps per stack
    row is bound as a column shaped for each kernel's argument: (B, 1) on
    1D grids and on coefficient rows (the nonlocal Sign), (B, 1, 1) on 2D
    grids; a float eps is bound as it is.  The potential's
    pi is linear, pi(r) = pi_slope * r, so its projection is exactly
    pi_slope * phi and it joins phi's coefficient in the phi row.  Only a
    recording evaluation (a save) returns zeta and xi."""

    def __init__(self, params):
        p = params
        lam = p.basis.eigenvalues
        star = np.asarray(p.eta_star.coeffs, dtype=float)
        self.dm = p.ell - p.alpha
        self.lam, self.diffusivity = lam, np.array([[p.nu], [p.k]])
        self.neg_diff = -np.stack((p.nu * lam, p.k * lam))
        # coupling[r, j]: the coefficient of field j (phi, theta) in row r
        coupling = np.zeros((2, 2) + lam.shape)
        coupling[0, 0] = -p.gamma * p.ell - p.potential.pi_slope
        coupling[0, 1] = p.gamma
        coupling[1, 0] = p.k * p.ell * lam
        self.star_rows = (p.gamma * star, p.k * lam * star)
        self.forcing = p.forcing.at
        self._f = self._src = None
        pointwise = not (p.graph.is_nonlocal or isinstance(p.graph, ZeroGraph))

        def column(axes):
            return p.eps if np.ndim(p.eps) == 0 else p.eps.reshape((-1,) + (1,) * axes)

        self.beta_eps = p.potential.beta_graph().yosida_kernel(column(p.basis.dims))
        self.graph_eps = p.graph.yosida_kernel(column(p.basis.dims if pointwise else 1))
        self.analyse, self.explicit = _grid_maps(p.basis, self.dm, pointwise, coupling)
        self.evals = self.save_evals = 0

    def source(self, t):
        """The rows (gamma eta*, f(t) + k lam eta*), stacked once for the
        one stored row that a constant forcing returns."""
        f = self.forcing(t)
        if f is not self._f:
            self._f = f
            self._src = np.stack(np.broadcast_arrays(
                self.star_rows[0], f + self.star_rows[1]), axis=-2)
        return self._src

    def explicit_parts(self, t, y, record=False):
        """The explicit part of d y/dt and, when recording, the graph
        selection zeta and the Yosida term xi (else None for both)."""
        self.evals += 1
        self.save_evals += record
        phi_grid, arg = self.analyse(y)
        ex, zeta, xi = self.explicit(self.beta_eps(phi_grid), self.graph_eps(arg), y, record)
        ex += self.source(t)
        return ex, zeta, xi

    def full(self, t, y, record=False):
        """(d y/dt, zeta, xi) at one state; zeta and xi are None unless
        recording."""
        ex, zeta, xi = self.explicit_parts(t, y, record)
        return self.neg_diff * y + ex, zeta, xi


# Each step takes its first stage, the derivative at (t, y), from the caller.

def _rk4_step(ctx, t, y, dt, k1):
    k2 = ctx.full(t + 0.5 * dt, y + 0.5 * dt * k1)[0]
    k3 = ctx.full(t + 0.5 * dt, y + 0.5 * dt * k2)[0]
    k4 = ctx.full(t + dt, y + dt * k3)[0]
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Dormand-Prince 4(5) tableau
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _dp45_step(ctx, t, y, dt, tol, k1):
    """One embedded Dormand-Prince step.  Returns the fifth-order update, a
    scaled error estimate (accept when <= 1), and the FSAL derivative at the
    update, the first stage of the next step.  The estimate is the RMS over
    the (2, m) block of each member, maximized over a stack's members."""
    ks = [k1]
    for c, weights in zip(_DP_C[1:], _DP_A[1:]):
        stage = y
        for w, k in zip(weights, ks):
            stage = stage + dt * w * k
        ks.append(ctx.full(t + c * dt, stage)[0])
    y5 = y + dt * sum(w * k for w, k in zip(_DP_B5, ks))
    # FSAL stage at the fifth-order solution closes the fourth-order weights
    k7 = ctx.full(t + dt, y5)[0]
    y4 = y + dt * (sum(w * k for w, k in zip(_DP_B4[:6], ks)) + _DP_B4[6] * k7)
    scale = tol + tol * np.maximum(np.abs(y), np.abs(y5))
    err = math.sqrt(float(np.max(np.mean(((y5 - y4) / scale) ** 2, axis=(-2, -1)))))
    return y5, err, k7


_FLOAT_MAX, _FLOAT_TINY = float(np.finfo(float).max), float(np.finfo(float).tiny)
# (ceiling/2)^2 is capped at the largest float for ceilings above this
_CAPPED_CEILING = 2.0 * math.sqrt(_FLOAT_MAX)


def _check_state(t, y, ceiling):
    """Raise BlowUpError if a coefficient of the state is over the ceiling
    or NaN.  One dot product of the state with itself clears it first: a
    sum of squares is at least each coefficient's rounded square, so a sum
    within (ceiling/2)^2 puts every coefficient under the ceiling.  That
    bound is capped at the largest float, and the dot product is skipped
    where it is below the least normal float, whose squares may underflow.
    A NaN, an overflow (``vdot`` does not warn of it) or a larger sum falls
    through to the exact test; the member and the field are looked up only
    when that fails."""
    bound = _FLOAT_MAX if ceiling > _CAPPED_CEILING else 0.25 * ceiling * ceiling
    if bound >= _FLOAT_TINY and np.vdot(y, y) <= bound:
        return
    if np.abs(y).max(initial=0.0) <= ceiling:
        return
    worst = np.max(np.abs(y), axis=-1)
    member = None if worst.ndim == 1 else int(np.argmax(~(worst <= ceiling).all(axis=-1)))
    row = worst if member is None else worst[member]
    raise BlowUpError(t, float(np.max(row)), "phi" if not row[0] <= ceiling else "theta", member)


def solve(params, initial, schedule, on_save=None):
    """Integrate the Galerkin system on [0, T] and sample the trajectory.

    ``initial.phi0.coeffs`` and ``initial.eta0.coeffs`` are either vectors of
    the ``m`` basis modes or stacks of shape (B, m): B members that share
    ``params`` (basis, coefficients and graph) and ``schedule`` and are
    integrated as one state.  The trajectory's arrays then have shape
    (n_saves, B, m), and row r of each follows member r.  The members share
    eta* and the forcing too, except where ``params.eta_star.coeffs`` is a
    (B, m) stack or the forcing's samples have shape (n_t, B, m): member r
    then follows row r of it.
    ``params.eps`` may then be a vector of B values, one per row: member r
    is regularized at ``eps[r]``, and the members share everything else.
    An eps vector on a single state, or of another length than B, is
    refused with ValueError.  Fixed-step members match their standalone
    solves up to rounding, and a one-member stack matches exactly, with a
    float eps or a one-entry vector alike, except on the logarithmic well,
    whose Newton start differs between the two (see
    :mod:`phasemono.monotone`).  DP45 advances the stack with one step
    size, accepted when the largest per-member error estimate is, so a
    stacked member takes the steps of the hardest one.  A blow-up names the
    first member over the ceiling in ``BlowUpError.member`` and its field in
    ``BlowUpError.field``; a datum already over the ceiling fails at
    ``t = 0``, before any evaluation.

    ``stats`` counts steps, rejected steps and evaluations (``rhs_evals``,
    ``rhs_evals_saves`` of them at the saves), and holds the smallest and
    largest accepted step (for imex and rk4, the substep).

    ``on_save``, if given, is called as ``on_save(j, times, states)`` each
    time save ``j`` has been stored: ``times`` holds every save time and
    ``states``, of shape (n_saves, ..., 2, m), the phi and theta rows of the
    saves stored so far.  Rows after ``j`` are not yet written; the
    callback must not write to either array.
    """
    phi0 = np.asarray(initial.phi0.coeffs, dtype=float)
    if np.ndim(params.eps) and (phi0.ndim != 2 or len(params.eps) != len(phi0)):
        raise ValueError(f"an eps vector needs one eps per stack row: got {len(params.eps)} "
                         f"eps for initial data of shape {phi0.shape}")
    ctx = _Rhs(params)
    ts = np.linspace(0.0, params.t_final, schedule.n_saves)
    y = np.stack((phi0, np.asarray(initial.eta0.coeffs, dtype=float) + ctx.dm * phi0), axis=-2)

    Y, DY = np.empty((2, schedule.n_saves) + y.shape)
    Z, XI = np.empty((2,) + Y[..., 0, :].shape)

    imex = schedule.method == "imex"
    stage = ctx.explicit_parts if imex else ctx.full

    def record(j, t, y):
        """Store save j and return the first stage of the step from it."""
        ex, Z[j], XI[j] = ctx.explicit_parts(t, y, record=True)
        Y[j] = y
        DY[j] = dy = ctx.neg_diff * y + ex
        if on_save is not None:
            on_save(j, ts, Y)
        return ex if imex else dy

    _check_state(0.0, y, params.blowup_ceiling)
    first = record(0, 0.0, y)
    steps = rejected = 0
    h_min, h_max = math.inf, 0.0
    h = float(ts[1]) / 8.0      # the first DP45 trial step
    dens = {}                   # the IMEX denominators of each substep length
    for j in range(schedule.n_saves - 1):
        t0, t1 = float(ts[j]), float(ts[j + 1])
        if schedule.method != "rk45":
            nsub = max(1, math.ceil((t1 - t0) / schedule.dt - 1e-12))
            h = (t1 - t0) / nsub
            h_min, h_max = min(h_min, h), max(h_max, h)
            if imex:
                # (1 + h nu lam, 1 + h k lam), built once per distinct h
                den = dens.get(h)
                if den is None:
                    den = dens[h] = 1.0 + (h * ctx.diffusivity) * ctx.lam
            t = t0
            for i in range(nsub):
                k1 = first if i == 0 else stage(t, y)[0]
                if imex:
                    # (y + h k1)/den, in place on the fresh stage; a save's
                    # stage is already in DY
                    k1 *= h
                    k1 += y
                    k1 /= den
                    y = k1
                else:
                    y = _rk4_step(ctx, t, y, h, k1)
                t += h
                steps += 1
                _check_state(t, y, params.blowup_ceiling)
        else:
            t = t0
            while t < t1 - 1e-12 * params.t_final:
                h = min(h, t1 - t)
                y5, err, k7 = _dp45_step(ctx, t, y, h, schedule.tol, first)
                if math.isfinite(err) and (err <= 1.0 or h <= 1e-13 * params.t_final):
                    h_min, h_max = min(h_min, h), max(h_max, h)
                    t, y, first = t + h, y5, k7
                    steps += 1
                    _check_state(t, y, params.blowup_ceiling)
                    h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
                else:
                    rejected += 1
                    h *= 0.1 if not math.isfinite(err) else max(0.1, 0.9 * err ** -0.2)
                    if h < 1e-14 * params.t_final:
                        raise StepFailure(t)
        first = record(j + 1, t1, y)

    stats = {"method": schedule.method, "steps": steps, "rejected": rejected,
             "rhs_evals": ctx.evals, "rhs_evals_saves": ctx.save_evals,
             "h_min": h_min, "h_max": h_max, "dt": schedule.dt, "tol": schedule.tol}
    return SolutionTrajectory(
        times=ts, phi=Y[..., 0, :], theta=Y[..., 1, :], zeta=Z, xi=XI, dphi=DY[..., 0, :],
        dtheta=DY[..., 1, :], ell_minus_alpha=ctx.dm, stats=stats, initial=initial)


# the most grid points one block of :func:`envelope_integral` evaluates
ENVELOPE_BLOCK_POINTS = 2 ** 16


def envelope_integral(params, phi_coeffs):
    """Quadrature of the convex-part envelope of the represented field.

    Leading axes are carried through, as in :func:`spectral.to_grid`:
    coefficients of shape (S, m) give S integrals, and a vector a float.
    The rows go through in blocks of at most ``ENVELOPE_BLOCK_POINTS`` grid
    points (but at least one row), with one ``to_grid`` and one
    ``envelope`` call per block, so a stack never holds more than a block
    of grids.  A row gives the bits of its own vector call, except that a
    1D block's matrix product may round differently from a single row's,
    by a few ulps of the integral.  ``params.eps`` must be a float: an eps
    per stack row is refused with ValueError."""
    if np.ndim(params.eps):
        raise ValueError("envelope_integral takes a float eps, not one eps per stack row")
    basis = params.basis
    c = np.asarray(phi_coeffs, dtype=float)
    rows = c.reshape(-1, c.shape[-1])
    per_block = max(1, ENVELOPE_BLOCK_POINTS // math.prod(basis.grid_shape))
    out = np.empty(len(rows))
    for i in range(0, len(rows), per_block):
        grid = spectral.to_grid(basis, rows[i:i + per_block])
        out[i:i + per_block] = spectral.grid_integral(
            basis, envelope(params.potential, params.eps, grid))
    return float(out[0]) if c.ndim == 1 else out.reshape(c.shape[:-1])
