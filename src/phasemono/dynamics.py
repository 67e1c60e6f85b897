"""Galerkin ODE system for the coupled phase-field evolution and its
time integrators.

The coupled system is solved in the variables (phi, theta) with
theta = eta + (ell - alpha) * phi, which makes the stiff part of each
equation a diagonal Laplacian:

    d theta/dt = k lap(theta) - k ell lap(phi) - A_eps(eta) + f - k lap(eta*)
    d phi/dt   = nu lap(phi) - beta_eps(phi) - pi(phi)
                 + gamma (theta - ell phi + eta*)

with eta = theta - (ell - alpha) phi.  Linear diffusion acts diagonally in
coefficient space; graph and potential terms are evaluated pointwise on the
dealiased quadrature grid and projected back.  The nonlocal Sign graph acts
directly on coefficients through the Parseval norm.

Integrators: IMEX Euler (diagonal Laplacians implicit, everything else
explicit), classical RK4, and an embedded Dormand-Prince 4(5) pair with
adaptive step control.  All of them are deterministic given their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .monotone import ZeroGraph
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
    "mollify_forcing",
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
        c = np.asarray(coeffs, dtype=float)
        return Forcing(np.array([0.0, t_final]), np.vstack([c, c]))

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

    def resampled(self, n_samples):
        ts = np.linspace(self.times[0], self.times[-1], n_samples)
        return Forcing(ts, self.at(ts))

    def mollified(self, eps, n_samples):
        src = self.resampled(n_samples)
        return Forcing(src.times, mollify_forcing(src.times, src.coeffs, eps))


def mollify_forcing(times, values, eps):
    """Elliptic-in-time smoothing of sampled data: solves

        -eps * g'' + g = f on (0, T),   g(0) = g(T) = 0,

    with second-order finite differences on the (uniform) sample grid.  The
    smoothed samples converge to f in L2(0, T) as eps vanishes whenever f is
    continuous and vanishes at the endpoints.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    t = np.asarray(times, dtype=float)
    if len(t) < 3:
        raise ValueError("need at least three time samples to mollify")
    h = np.diff(t)
    if not np.allclose(h, h[0], rtol=1e-8, atol=0.0):
        raise ValueError("mollifier requires a uniform time grid")
    vals = np.asarray(values, dtype=float)
    flat = vals.reshape(len(t), -1)
    r = eps / h[0] ** 2
    m = len(t) - 2
    # Thomas sweep for the constant-coefficient tridiagonal system
    diag = 1.0 + 2.0 * r
    cp = np.empty(m)
    dp = np.empty((m, flat.shape[1]))
    cp[0] = -r / diag
    dp[0] = flat[1] / diag
    for i in range(1, m):
        denom = diag + r * cp[i - 1]
        cp[i] = -r / denom
        dp[i] = (flat[i + 1] + r * dp[i - 1]) / denom
    sol = np.empty_like(dp)
    sol[m - 1] = dp[m - 1]
    for i in range(m - 2, -1, -1):
        sol[i] = dp[i] - cp[i] * sol[i + 1]
    out = np.zeros_like(flat)
    out[1:-1] = sol
    return out.reshape(vals.shape)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """All coefficients, data and operators of one problem instance."""

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
        if not self.eps > 0:
            raise ValueError("eps must be positive")


@dataclass(frozen=True, eq=False)
class InitialData:
    """Projected initial data plus the quantities controlling the convex-part
    envelope of the projected order parameter."""

    eta0: FieldCoeffs
    phi0: FieldCoeffs
    q_eps: float


def prepare_initial(basis, eta0_grid, phi0_grid, potential, eps):
    """Project initial data and compute the envelope budget

        q_eps = ||beta_hat(phi0)||_L1
                + ||phi0 - P phi0|| (||phi0|| + ||P phi0||) / (2 eps),

    which dominates the integral of the envelope of the projected datum.
    Validates that the convex part is integrable on the supplied datum (for
    the bounded-domain wells this means |phi0| <= 1 everywhere).
    """
    phi0_grid = np.asarray(phi0_grid, dtype=float)
    eta0_grid = np.asarray(eta0_grid, dtype=float)
    dlo, dhi = potential.domain
    worst = float(np.max(np.abs(phi0_grid))) if phi0_grid.size else 0.0
    if math.isfinite(dhi) and worst > dhi:
        raise ValueError(
            f"initial order parameter leaves the potential domain "
            f"(max |phi0| = {worst:.6g} > {dhi:g})")
    beta_l1 = spectral.grid_integral(basis, potential.beta_hat(phi0_grid))
    phi0_c = spectral.from_grid(basis, phi0_grid)
    eta0_c = spectral.from_grid(basis, eta0_grid)
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


class _Rhs:
    """Right-hand-side assembly for one parameter set.

    Everything that does not depend on the state is bound once per solve:
    the Yosida kernels of the graph and of beta at the checked eps, the pi
    kernel, the forcing lookup and the diagonal factors; the IMEX
    denominators are kept for the last substep size.  One evaluation makes
    one grid transform, of the stacked (phi, eta) pair, and projects
    beta_eps + pi back with one more; only a recording evaluation (a save)
    also projects xi on its own.  A vector and a (B, m) stack go through
    the same code."""

    def __init__(self, params):
        p = params
        lam = p.basis.eigenvalues
        self.p = p
        self.basis = p.basis
        self.lam = lam
        self.dm = p.ell - p.alpha
        self.star = np.asarray(p.eta_star.coeffs, dtype=float)
        self.neg_k_lap_star = p.k * lam * self.star
        self.k_ell_lam = p.k * p.ell * lam
        self.neg_nu_lam = -p.nu * lam
        self.neg_k_lam = -p.k * lam
        self.beta_eps = p.potential.beta_graph().yosida_kernel(p.eps)
        self.pi = p.potential.pi_kernel()
        self.forcing = p.forcing.at
        graph_eps = p.graph.yosida_kernel(p.eps)
        if p.graph.is_nonlocal or isinstance(p.graph, ZeroGraph):
            # A_eps on the coefficients: the nonlocal Sign acts through the
            # Parseval norm, and the zero graph needs no transform
            self.graph_term = lambda eta, grid: graph_eps(eta)
        else:
            self.graph_term = lambda eta, grid: spectral.from_grid(self.basis, graph_eps(grid))
        self._den_dt = None
        self.evals = 0

    def explicit_parts(self, t, a, b, record=False):
        """Explicit parts of both equations, followed by the graph selection
        zeta and, when recording, the Yosida term xi (else None)."""
        p = self.p
        self.evals += 1
        pair = np.concatenate((a, b - self.dm * a)).reshape((2,) + a.shape)
        grid = spectral.to_grid(self.basis, pair)
        phi_grid = grid[0]
        beta = self.beta_eps(phi_grid)
        nonlin = spectral.from_grid(self.basis, beta + self.pi(phi_grid))
        xi = spectral.from_grid(self.basis, beta) if record else None
        zeta = self.graph_term(pair[1], grid[1])
        ex_b = self.k_ell_lam * a - zeta + self.forcing(t) + self.neg_k_lap_star
        ex_a = -nonlin + p.gamma * (b - p.ell * a + self.star)
        return ex_a, ex_b, zeta, xi

    def diffused(self, a, b, ex_a, ex_b):
        """(d phi/dt, d theta/dt) from the explicit parts at the state."""
        return self.neg_nu_lam * a + ex_a, self.neg_k_lam * b + ex_b

    def full(self, t, a, b, record=False):
        """(d phi/dt, d theta/dt, zeta, xi) at one state; xi is None unless
        recording."""
        ex_a, ex_b, zeta, xi = self.explicit_parts(t, a, b, record)
        return self.diffused(a, b, ex_a, ex_b) + (zeta, xi)

    def imex_denominators(self, dt):
        """(1 + dt k lam, 1 + dt nu lam), recomputed only when the substep
        size changes.  The substeps of a save interval share one size, and
        rounding can make the sizes of two intervals differ, so only the
        last one is kept."""
        if dt != self._den_dt:
            p = self.p
            self._den_dt = dt
            self._den = (1.0 + dt * p.k * self.lam, 1.0 + dt * p.nu * self.lam)
        return self._den


# Each step takes its first stage, the evaluation at (t, a, b), from the
# caller: explicit parts for IMEX, the full right-hand side for RK4 and DP45.

def _imex_step(ctx, a, b, dt, first):
    ex_a, ex_b = first[0], first[1]
    den_b, den_a = ctx.imex_denominators(dt)
    return (a + dt * ex_a) / den_a, (b + dt * ex_b) / den_b


def _rk4_step(rhs, t, a, b, dt, first):
    k1a, k1b = first[0], first[1]
    k2a, k2b, _, _ = rhs(t + 0.5 * dt, a + 0.5 * dt * k1a, b + 0.5 * dt * k1b)
    k3a, k3b, _, _ = rhs(t + 0.5 * dt, a + 0.5 * dt * k2a, b + 0.5 * dt * k2b)
    k4a, k4b, _, _ = rhs(t + dt, a + dt * k3a, b + dt * k3b)
    a1 = a + (dt / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
    b1 = b + (dt / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
    return a1, b1


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


def _dp45_step(rhs, t, a, b, dt, tol, first):
    """One embedded Dormand-Prince step.  Returns the fifth-order update, a
    scaled error estimate (accept when <= 1), and the FSAL evaluation at the
    update, which is the first stage of the next step.  The estimate is the
    RMS over modes of each member, maximized over the members of a stack."""
    ka, kb = [first[0]], [first[1]]
    for i in range(1, len(_DP_C)):
        aa, bb = a, b
        for j, w in enumerate(_DP_A[i]):
            aa = aa + dt * w * ka[j]
            bb = bb + dt * w * kb[j]
        da, db, _, _ = rhs(t + _DP_C[i] * dt, aa, bb)
        ka.append(da)
        kb.append(db)
    a5 = a + dt * sum(w * v for w, v in zip(_DP_B5, ka))
    b5 = b + dt * sum(w * v for w, v in zip(_DP_B5, kb))
    # FSAL stage at the fifth-order solution closes the fourth-order weights
    fsal = rhs(t + dt, a5, b5)
    da7, db7 = fsal[0], fsal[1]
    a4 = a + dt * (sum(w * v for w, v in zip(_DP_B4[:6], ka)) + _DP_B4[6] * da7)
    b4 = b + dt * (sum(w * v for w, v in zip(_DP_B4[:6], kb)) + _DP_B4[6] * db7)
    scale_a = tol + tol * np.maximum(np.abs(a), np.abs(a5))
    scale_b = tol + tol * np.maximum(np.abs(b), np.abs(b5))
    err = math.sqrt(float(np.max(
        np.mean(np.concatenate([((a5 - a4) / scale_a) ** 2,
                                ((b5 - b4) / scale_b) ** 2], axis=-1), axis=-1))))
    return a5, b5, err, fsal


def _check_state(t, a, b, ceiling):
    """Raise BlowUpError if a coefficient of either field is over the
    ceiling or NaN.  One test covers the whole stack; the member and the
    field are looked up only when it fails."""
    if np.abs(a).max(initial=0.0) <= ceiling and np.abs(b).max(initial=0.0) <= ceiling:
        return
    worst = np.maximum(np.max(np.abs(a), axis=-1, initial=0.0),
                       np.max(np.abs(b), axis=-1, initial=0.0))
    bad = ~(worst <= ceiling)
    if bad.any():
        member = None if worst.ndim == 0 else int(np.argmax(bad))
        row = () if member is None else member
        name = "phi" if not np.max(np.abs(a[row]), initial=0.0) <= ceiling else "theta"
        raise BlowUpError(t, float(worst[row]), name, member)


def solve(params, initial, schedule):
    """Integrate the Galerkin system on [0, T] and sample the trajectory.

    ``initial.phi0.coeffs`` and ``initial.eta0.coeffs`` are either vectors of
    the ``m`` basis modes or stacks of shape (B, m): B members that share
    ``params`` (basis, coefficients, graph, forcing and eta*) and
    ``schedule`` and are integrated as one state.  The trajectory's arrays
    then have shape (n_saves, B, m), and row r of each follows member r.
    Fixed-step members match their standalone solves up to rounding.  DP45
    advances the stack with one step size, accepted when the largest
    per-member error estimate is, so a stacked member takes the steps of
    the hardest one.  A blow-up names the first member over the ceiling in
    ``BlowUpError.member`` and its field in ``BlowUpError.field``.
    """
    ctx = _Rhs(params)
    ts = np.linspace(0.0, params.t_final, schedule.n_saves)
    a = np.asarray(initial.phi0.coeffs, dtype=float).copy()
    b = np.asarray(initial.eta0.coeffs, dtype=float) + ctx.dm * a

    shape = (schedule.n_saves,) + a.shape
    PHI = np.empty(shape)
    TH = np.empty(shape)
    Z = np.empty(shape)
    XI = np.empty(shape)
    DPHI = np.empty(shape)
    DTH = np.empty(shape)

    imex = schedule.method == "imex"
    stage = ctx.explicit_parts if imex else ctx.full

    def record(j, t, a, b):
        """Store save j and return the first stage of the step from it."""
        ex_a, ex_b, Z[j], XI[j] = ctx.explicit_parts(t, a, b, record=True)
        PHI[j] = a
        TH[j] = b
        DPHI[j], DTH[j] = da, db = ctx.diffused(a, b, ex_a, ex_b)
        return (ex_a, ex_b) if imex else (da, db)

    first = record(0, 0.0, a, b)
    steps = rejected = 0
    h_adaptive = None
    for j in range(schedule.n_saves - 1):
        t0, t1 = float(ts[j]), float(ts[j + 1])
        if schedule.method != "rk45":
            nsub = max(1, math.ceil((t1 - t0) / schedule.dt - 1e-12))
            h = (t1 - t0) / nsub
            t = t0
            for _ in range(nsub):
                if first is None:
                    first = stage(t, a, b)
                if imex:
                    a, b = _imex_step(ctx, a, b, h, first)
                else:
                    a, b = _rk4_step(ctx.full, t, a, b, h, first)
                first = None
                t += h
                steps += 1
                _check_state(t, a, b, params.blowup_ceiling)
        else:
            t = t0
            h = h_adaptive if h_adaptive is not None else (t1 - t0) / 8.0
            while t < t1 - 1e-12 * params.t_final:
                h = min(h, t1 - t)
                a5, b5, err, fsal = _dp45_step(
                    ctx.full, t, a, b, h, schedule.tol, first)
                if math.isfinite(err) and (err <= 1.0 or h <= 1e-13 * params.t_final):
                    t += h
                    a, b = a5, b5
                    first = fsal
                    steps += 1
                    _check_state(t, a, b, params.blowup_ceiling)
                    grow = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
                    h = h * grow
                else:
                    rejected += 1
                    shrink = 0.1 if not math.isfinite(err) else max(0.1, 0.9 * err ** -0.2)
                    h = h * shrink
                    if h < 1e-14 * params.t_final:
                        raise StepFailure(t)
            h_adaptive = h
        first = record(j + 1, t1, a, b)

    stats = {
        "method": schedule.method,
        "steps": steps,
        "rejected": rejected,
        "rhs_evals": ctx.evals,
        "dt": schedule.dt,
        "tol": schedule.tol,
    }
    return SolutionTrajectory(
        times=ts, phi=PHI, theta=TH, zeta=Z, xi=XI, dphi=DPHI, dtheta=DTH,
        ell_minus_alpha=ctx.dm, stats=stats, initial=initial)


def envelope_integral(params, phi_coeffs):
    """Quadrature of the convex-part envelope of the represented field."""
    grid = spectral.to_grid(params.basis, np.asarray(phi_coeffs, dtype=float))
    return spectral.grid_integral(params.basis, envelope(params.potential, params.eps, grid))
