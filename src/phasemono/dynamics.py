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
from dataclasses import dataclass, field, replace

import numpy as np

from . import spectral
from .monotone import ZeroGraph
from .potentials import envelope

__all__ = [
    "FieldCoeffs",
    "Forcing",
    "ModelParams",
    "InitialData",
    "GalerkinState",
    "SolutionTrajectory",
    "Schedule",
    "BlowUpError",
    "StepFailure",
    "mollify_forcing",
    "prepare_initial",
    "assemble_rhs",
    "solve",
]


class BlowUpError(RuntimeError):
    """Solution norm exceeded the configured ceiling."""

    def __init__(self, time, norm):
        super().__init__(f"blow-up detected at t = {time:.6g} (norm {norm:.3e})")
        self.time = time
        self.norm = norm


class StepFailure(RuntimeError):
    """Adaptive step-size control collapsed below the minimum step."""

    def __init__(self, time):
        super().__init__(f"step rejection cascade at t = {time:.6g}")
        self.time = time


@dataclass(frozen=True, eq=False)
class FieldCoeffs:
    """A field represented by its coefficients in the truncated basis."""

    coeffs: np.ndarray
    tag: str = ""


@dataclass(frozen=True, eq=False)
class Forcing:
    """Time-sampled coefficient representation of the source term, linearly
    interpolated between samples."""

    times: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) < 2 or np.any(np.diff(t) <= 0):
            raise ValueError("forcing needs at least two strictly increasing times")
        if np.asarray(self.coeffs).shape[0] != len(t):
            raise ValueError("forcing samples and times disagree")

    @staticmethod
    def zero(n_modes, t_final):
        return Forcing(np.array([0.0, t_final]), np.zeros((2, n_modes)))

    @staticmethod
    def constant(coeffs, t_final):
        c = np.asarray(coeffs, dtype=float)
        return Forcing(np.array([0.0, t_final]), np.vstack([c, c]))

    def at(self, t):
        times = self.times
        idx = int(np.searchsorted(times, t, side="right")) - 1
        idx = min(max(idx, 0), len(times) - 2)
        t0, t1 = times[idx], times[idx + 1]
        w = (t - t0) / (t1 - t0)
        w = min(max(w, 0.0), 1.0)
        return (1.0 - w) * self.coeffs[idx] + w * self.coeffs[idx + 1]

    def resampled(self, n_samples):
        ts = np.linspace(self.times[0], self.times[-1], n_samples)
        vals = np.stack([self.at(t) for t in ts])
        return Forcing(ts, vals)

    def mollified(self, eps, n_samples=None):
        src = self if n_samples is None else self.resampled(n_samples)
        if len(src.times) < 3:
            src = self.resampled(129)
        return Forcing(src.times, mollify_forcing(src.times, src.coeffs, eps))


def mollify_forcing(times, values, eps):
    """Elliptic-in-time smoothing of sampled data: solves

        -eps * g'' + g = f on (0, T),   g(0) = g(T) = 0,

    with second-order finite differences on the (uniform) sample grid.  The
    smoothed samples converge to f in L2(0, T) as eps vanishes whenever f is
    continuous and vanishes at the endpoints.
    """
    if eps <= 0:
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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        if self.eps <= 0:
            raise ValueError("eps must be positive")

    def with_data(self, eta_star=None, forcing=None):
        kw = {}
        if eta_star is not None:
            kw["eta_star"] = eta_star
        if forcing is not None:
            kw["forcing"] = forcing
        return replace(self, **kw)


@dataclass(frozen=True, eq=False)
class InitialData:
    """Projected initial data plus the quantities controlling the convex-part
    envelope of the projected order parameter."""

    eta0: FieldCoeffs
    phi0: FieldCoeffs
    phi0_grid: np.ndarray
    beta_hat_l1: float
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
        eta0=FieldCoeffs(eta0_c, "eta0"),
        phi0=FieldCoeffs(phi0_c, "phi0"),
        phi0_grid=phi0_grid,
        beta_hat_l1=beta_l1,
        q_eps=q_eps)


@dataclass(frozen=True, eq=False)
class GalerkinState:
    """Coefficients of (phi, theta) at one time."""

    t: float
    a: np.ndarray
    b: np.ndarray

    def eta(self, ell_minus_alpha):
        return self.b - ell_minus_alpha * self.a


@dataclass(frozen=True)
class Schedule:
    """Time-stepping request: fixed step dt for imex/rk4, local tolerance for
    rk45, and the number of stored samples (including t = 0 and t = T)."""

    method: str = "imex"
    dt: float = 1e-3
    tol: float = 1e-8
    n_saves: int = 101

    def __post_init__(self):
        if self.method not in ("imex", "rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.dt <= 0 or self.tol <= 0:
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
    """Cached right-hand-side assembly for one parameter set."""

    def __init__(self, params):
        self.p = params
        self.basis = params.basis
        self.lam = params.basis.eigenvalues
        self.dm = params.ell - params.alpha
        self.star = np.asarray(params.eta_star.coeffs, dtype=float)
        self.neg_k_lap_star = params.k * self.lam * self.star
        self.beta = params.potential.beta_graph()
        self.graph = params.graph
        self.graph_is_zero = isinstance(params.graph, ZeroGraph)
        self.evals = 0

    def graph_term(self, eta):
        """Coefficients of the projected Yosida image of eta."""
        if self.graph_is_zero:
            return np.zeros_like(eta)
        if self.graph.is_nonlocal:
            return self.graph.yosida(self.p.eps, eta, mass=self.basis.mass)
        vals = self.graph.yosida(self.p.eps, spectral.to_grid(self.basis, eta))
        return spectral.from_grid(self.basis, vals)

    def phi_nonlin(self, a):
        grid = spectral.to_grid(self.basis, a)
        xi = spectral.from_grid(self.basis, self.beta.yosida(self.p.eps, grid))
        piv = spectral.from_grid(self.basis, self.p.potential.pi(grid))
        return xi, piv

    def explicit_parts(self, t, a, b):
        """Explicit parts of both equations, followed by the graph selection
        zeta and the Yosida term xi they were assembled from."""
        p = self.p
        self.evals += 1
        eta = b - self.dm * a
        zeta = self.graph_term(eta)
        xi, piv = self.phi_nonlin(a)
        f = p.forcing.at(t)
        ex_b = p.k * p.ell * self.lam * a - zeta + f + self.neg_k_lap_star
        ex_a = -xi - piv + p.gamma * (b - p.ell * a + self.star)
        return ex_a, ex_b, zeta, xi

    def full(self, t, a, b):
        """(d phi/dt, d theta/dt, zeta, xi) at one state."""
        p = self.p
        ex_a, ex_b, zeta, xi = self.explicit_parts(t, a, b)
        da = -p.nu * self.lam * a + ex_a
        db = -p.k * self.lam * b + ex_b
        return da, db, zeta, xi


def assemble_rhs(params, state):
    """Right-hand side (d phi/dt, d theta/dt) of the Galerkin system."""
    da, db, _, _ = _Rhs(params).full(
        state.t, np.asarray(state.a, float), np.asarray(state.b, float))
    return da, db


def _imex_step(ctx, t, a, b, dt):
    p = ctx.p
    ex_a, ex_b, _, _ = ctx.explicit_parts(t, a, b)
    b1 = (b + dt * ex_b) / (1.0 + dt * p.k * ctx.lam)
    a1 = (a + dt * ex_a) / (1.0 + dt * p.nu * ctx.lam)
    return a1, b1


def _rk4_step(rhs, t, a, b, dt):
    k1a, k1b, _, _ = rhs(t, a, b)
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


def _dp45_step(rhs, t, a, b, dt, tol):
    """One embedded Dormand-Prince step.  Returns the fifth-order update and
    a scaled error estimate (accept when <= 1)."""
    ka, kb = [], []
    for i, ci in enumerate(_DP_C):
        aa, bb = a, b
        for j, w in enumerate(_DP_A[i]):
            aa = aa + dt * w * ka[j]
            bb = bb + dt * w * kb[j]
        da, db, _, _ = rhs(t + ci * dt, aa, bb)
        ka.append(da)
        kb.append(db)
    a5 = a + dt * sum(w * v for w, v in zip(_DP_B5, ka))
    b5 = b + dt * sum(w * v for w, v in zip(_DP_B5, kb))
    # FSAL stage at the fifth-order solution closes the fourth-order weights
    da7, db7, _, _ = rhs(t + dt, a5, b5)
    a4 = a + dt * (sum(w * v for w, v in zip(_DP_B4[:6], ka)) + _DP_B4[6] * da7)
    b4 = b + dt * (sum(w * v for w, v in zip(_DP_B4[:6], kb)) + _DP_B4[6] * db7)
    scale_a = tol + tol * np.maximum(np.abs(a), np.abs(a5))
    scale_b = tol + tol * np.maximum(np.abs(b), np.abs(b5))
    err = math.sqrt(float(
        np.mean(np.concatenate([((a5 - a4) / scale_a) ** 2,
                                ((b5 - b4) / scale_b) ** 2]))))
    return a5, b5, err


def _check_state(t, a, b, ceiling):
    worst = max(float(np.max(np.abs(a), initial=0.0)),
                float(np.max(np.abs(b), initial=0.0)))
    if not (math.isfinite(worst) and worst <= ceiling):
        raise BlowUpError(t, worst)


def solve(params, initial, schedule):
    """Integrate the Galerkin system on [0, T] and sample the trajectory."""
    ctx = _Rhs(params)
    ts = np.linspace(0.0, params.t_final, schedule.n_saves)
    m = params.basis.total_modes
    a = np.asarray(initial.phi0.coeffs, dtype=float).copy()
    b = np.asarray(initial.eta0.coeffs, dtype=float) + ctx.dm * a

    n_saves = schedule.n_saves
    PHI = np.empty((n_saves, m))
    TH = np.empty((n_saves, m))
    Z = np.empty((n_saves, m))
    XI = np.empty((n_saves, m))
    DPHI = np.empty((n_saves, m))
    DTH = np.empty((n_saves, m))

    def record(j, t, a, b):
        PHI[j] = a
        TH[j] = b
        DPHI[j], DTH[j], Z[j], XI[j] = ctx.full(t, a, b)

    record(0, 0.0, a, b)
    steps = rejected = 0
    h_adaptive = None
    for j in range(n_saves - 1):
        t0, t1 = float(ts[j]), float(ts[j + 1])
        if schedule.method in ("imex", "rk4"):
            nsub = max(1, math.ceil((t1 - t0) / schedule.dt - 1e-12))
            h = (t1 - t0) / nsub
            t = t0
            for _ in range(nsub):
                if schedule.method == "imex":
                    a, b = _imex_step(ctx, t, a, b, h)
                else:
                    a, b = _rk4_step(ctx.full, t, a, b, h)
                t += h
                steps += 1
                _check_state(t, a, b, params.blowup_ceiling)
        else:
            t = t0
            h = h_adaptive if h_adaptive is not None else (t1 - t0) / 8.0
            while t < t1 - 1e-12 * params.t_final:
                h = min(h, t1 - t)
                a5, b5, err = _dp45_step(ctx.full, t, a, b, h, schedule.tol)
                if math.isfinite(err) and (err <= 1.0 or h <= 1e-13 * params.t_final):
                    t += h
                    a, b = a5, b5
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
        record(j + 1, t1, a, b)

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
