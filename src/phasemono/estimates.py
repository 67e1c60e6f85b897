"""Runtime monitors for the dissipation structure of the coupled system.

The energy monitor tracks

    E1(t) = 1/2 ||eta(t)||^2 + k * int_0^t ||grad eta||^2
            + int_0^t ||d phi/dt||^2 + nu/2 ||phi(t)||_V^2
            + int_Omega env_eps(phi(t))

and certifies it against the explicit Gronwall bound 2 * D * exp(C5 * t)
obtained by running the standard Young-inequality estimates with all
constants spelled out:

    C1 = max(C_pi, |pi(0)|)
    C2 = 2 (2 (ell-alpha)^2 + 1/8 + 8 gamma^2)
    C3 = k alpha^2 / nu
    C4 = 2 (4 C1^2 + 8 (nu - alpha gamma)^2) / nu
    C5 = max(C2, C3, C4)
    D  = 1/2 ||eta0||^2 + nu/2 ||phi0||_V^2 + Q_eps
         + 4 C1^2 T |Omega| + 2 ||f - k lap(eta*)||_{L2(Q)}^2
         + 8 gamma^2 T ||eta*||^2

The factor 2 converts the halved gradient/time-derivative terms produced by
the absorption steps back into E1.  Sharpness is never asserted.

The continuous-dependence sweep requires alpha = ell.  It builds the base
data and every perturbed member as one coefficient stack, each member the
base with its delta added to one coefficient of phi0, integrates the stack
as one solve and reports one column per member: the four data differences
over the stack, the four solution differences from the base, the minima of
the two pair-dissipation integrals, and the observed stability constant,
solution over data differences.  The Gronwall-derived constant

    M  = max((4 gamma^2 k ell^2 + 2 nu C_pi) / nu, 1/2)
    C0 = max(1/2, k ell^2 / (2 nu)),   C1 = exp(T M)
    C2 = max(4 C1, 4 k^2 T C1, T C1 / 8, C1 C0)
    C3 = min(1/2, k ell^2 / (2 nu), ell^2 / 2),   C4 = C2 / C3

is reported by the energy monitor (``gron_C4``); the two are never compared.

Every report names the invariants its run broke in ``failures``, all at the
one tolerance ``_INVARIANT_TOL``: the energy report its Gronwall, selection,
dissipation and envelope-budget checks, the sweep report each negative
pair dissipation, and a convergence ladder none.

Every ladder takes a config and its values, and builds each member as
``build_problem(replace(cfg, **override))``: ``modes=n,
quadrature=None`` for n, ``eps=eps`` for eps, and ``cfg`` itself as the
base of the delta sweep.  Each member keeps the schedule its build returns.
A ladder builds all its members, naming one that cannot be built, and then
solves them through :func:`_solve_named`, which names the member a failure
belongs to.  The n ladder solves each level on its own basis.  The eps
ladder's members differ only in eps and are solved as one coefficient
stack with one eps per row.  The n and eps ladders report from each
member's (phi, eta) series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import spectral
from .config import build_problem
from .dynamics import (
    BlowUpError,
    FieldCoeffs,
    InitialData,
    envelope_integral,
    prepare_initial,
    solve,
)

__all__ = [
    "EnergyReport",
    "ContractionSweepReport",
    "ConvergenceReport",
    "first_estimate_constants",
    "stability_constants",
    "gronwall_bound",
    "energy_monitor",
    "contraction_sweep",
    "galerkin_convergence",
    "yosida_convergence",
    "constraint_overshoot",
]

MIN_SAMPLES_FOR_QUADRATURE = 33

# the slack of every invariant verdict: a margin, integral or budget excess
# within it of its bound holds
_INVARIANT_TOL = 1e-9


def _cumtrapz(ts, ys):
    """Cumulative trapezoid rule over the last axis."""
    out = np.zeros_like(ys)
    out[..., 1:] = np.cumsum(0.5 * (ys[..., 1:] + ys[..., :-1]) * np.diff(ts), axis=-1)
    return out


def first_estimate_constants(params):
    cpi = params.potential.lipschitz_pi
    pi0 = abs(float(params.potential.pi(0.0)))
    c1 = max(cpi, pi0)
    c2 = 2.0 * (2.0 * (params.ell - params.alpha) ** 2 + 0.125 + 8.0 * params.gamma ** 2)
    c3 = params.k * params.alpha ** 2 / params.nu
    c4 = 2.0 * (4.0 * c1 ** 2 + 8.0 * (params.nu - params.alpha * params.gamma) ** 2) / params.nu
    return {"C1": c1, "C2": c2, "C3": c3, "C4": c4, "C5": max(c2, c3, c4)}


def stability_constants(params):
    cpi = params.potential.lipschitz_pi
    k, ell, nu, gamma, T = params.k, params.ell, params.nu, params.gamma, params.t_final
    m = max((4.0 * gamma ** 2 * k * ell ** 2 + 2.0 * nu * cpi) / nu, 0.5)
    c0 = max(0.5, k * ell ** 2 / (2.0 * nu))
    c1 = math.exp(min(T * m, 700.0))
    c2 = max(4.0 * c1, 4.0 * k ** 2 * T * c1, T * c1 / 8.0, c1 * c0)
    c3 = min(0.5, k * ell ** 2 / (2.0 * nu), ell ** 2 / 2.0)
    return {"M": m, "C0": c0, "C1": c1, "C2": c2, "C3": c3, "C4": c2 / c3}


def _forcing_term_l2sq(params, ts):
    """Time-quadrature of ||f(t) - k lap(eta*)||_H^2 over [0, T]."""
    shift = params.k * params.basis.eigenvalues * params.eta_star.coeffs
    g = params.forcing.at(ts) + shift
    return float(np.trapezoid(np.sum(g * g, axis=-1), ts))


def gronwall_bound(params, initial, ts=None):
    """Return (D, C5) of the explicit bound E1(t) <= 2 D exp(C5 t)."""
    basis = params.basis
    consts = first_estimate_constants(params)
    if ts is None:
        ts = np.linspace(0.0, params.t_final, 201)
    eta0_h = spectral.h_norm(basis, initial.eta0.coeffs)
    phi0_v = spectral.v_norm(basis, initial.phi0.coeffs)
    star_h = spectral.h_norm(basis, params.eta_star.coeffs)
    d = (0.5 * eta0_h ** 2
         + 0.5 * params.nu * phi0_v ** 2
         + initial.q_eps
         + 4.0 * consts["C1"] ** 2 * params.t_final * basis.volume
         + 2.0 * _forcing_term_l2sq(params, ts)
         + 8.0 * params.gamma ** 2 * params.t_final * star_h ** 2)
    return d, consts["C5"]


@dataclass(frozen=True, eq=False)
class EnergyReport:
    times: np.ndarray
    e1: np.ndarray
    bound: np.ndarray
    components: dict          # the five terms of E1, in plot.csv column order
    laplacian_phi_l2: float
    dt_eta_l2: float
    grad_eta_final: float
    laplacian_eta_l2: float
    zeta_norms: np.ndarray
    selection_margin: float
    selection_ok: bool
    dissipation: np.ndarray
    dissipation_min: float
    envelope_initial: float
    q_eps: float
    constants: dict
    gronwall_ok: bool
    gronwall_margin_min: float
    gronwall_margin_t: float
    quadrature_warning: bool

    def to_dict(self):
        return {
            "e1_max": float(np.max(self.e1)),
            "bound_min": float(np.min(self.bound)),
            "gronwall_ok": bool(self.gronwall_ok),
            "gronwall_margin_min": self.gronwall_margin_min,
            "gronwall_margin_t": self.gronwall_margin_t,
            "laplacian_phi_l2": self.laplacian_phi_l2,
            "dt_eta_l2": self.dt_eta_l2,
            "grad_eta_final": self.grad_eta_final,
            "laplacian_eta_l2": self.laplacian_eta_l2,
            "selection_margin": self.selection_margin,
            "selection_ok": bool(self.selection_ok),
            "dissipation_min": self.dissipation_min,
            "envelope_initial": self.envelope_initial,
            "q_eps": self.q_eps,
            "constants": {k: float(v) for k, v in self.constants.items()},
            "quadrature_warning": bool(self.quadrature_warning),
        }

    @property
    def failures(self):
        """One message per invariant the trajectory broke, in the order the
        run reports them."""
        out = []
        if not self.gronwall_ok:
            out.append(f"energy exceeded the Gronwall bound (log-margin "
                       f"{self.gronwall_margin_min:.3e} at t = {self.gronwall_margin_t:.6g})")
        if not self.selection_ok:
            out.append(f"selection norm violated the linear-growth bound "
                       f"(margin {self.selection_margin:.3e})")
        if self.dissipation_min < -_INVARIANT_TOL:
            out.append(f"graph dissipation integral went negative ({self.dissipation_min:.3e})")
        if self.envelope_initial > self.q_eps + _INVARIANT_TOL:
            out.append("initial envelope exceeded its budget")
        return tuple(out)


def energy_monitor(traj, params):
    """Evaluate the energy functional, the explicit Gronwall certificate and
    the companion estimate quantities along a sampled trajectory.

    The trajectory is one solve, with ``phi`` of shape (saves, modes); a
    stacked solve is refused with a ValueError before any work.  The
    envelope term is one blocked :func:`envelope_integral` call on the
    whole ``phi``."""
    basis = params.basis
    ts = traj.times
    lam = basis.eigenvalues
    initial = traj.initial
    expected = (len(ts), basis.total_modes)
    if traj.phi.shape != expected:
        raise ValueError(
            f"energy_monitor takes one trajectory, with phi of shape "
            f"(saves, modes) = {expected}; got {traj.phi.shape}")

    eta = traj.eta
    eta_h2 = np.sum(eta * eta, axis=1)
    eta_dir = np.sum(lam * eta * eta, axis=1)
    phi_v2 = np.sum((1.0 + lam) * traj.phi * traj.phi, axis=1)
    dphi_h2 = np.sum(traj.dphi * traj.dphi, axis=1)
    env = envelope_integral(params, traj.phi)

    grad_eta_int = params.k * _cumtrapz(ts, eta_dir)
    dphi_int = _cumtrapz(ts, dphi_h2)
    e1 = (0.5 * eta_h2
          + grad_eta_int
          + dphi_int
          + 0.5 * params.nu * phi_v2
          + env)

    d, c5 = gronwall_bound(params, initial, ts)
    with np.errstate(over="ignore"):
        bound = 2.0 * d * np.exp(np.minimum(c5 * ts, 700.0))
    log_bound = math.log(max(2.0 * d, 1e-300)) + c5 * ts
    # the log-margin of the certificate at each save; a NaN energy is the
    # smallest margin and fails the certificate
    margins = log_bound - np.log(np.maximum(e1, 1e-300))
    worst = int(np.argmin(margins))
    gronwall_ok = bool(margins[worst] >= -_INVARIANT_TOL)

    # companion estimate quantities
    lap_phi2 = np.sum(lam * lam * traj.phi * traj.phi, axis=1)
    lap_eta2 = np.sum(lam * lam * eta * eta, axis=1)
    deta = traj.deta
    deta_h2 = np.sum(deta * deta, axis=1)
    laplacian_phi_l2 = math.sqrt(float(np.trapezoid(lap_phi2, ts)))
    laplacian_eta_l2 = math.sqrt(float(np.trapezoid(lap_eta2, ts)))
    dt_eta_l2 = math.sqrt(float(np.trapezoid(deta_h2, ts)))
    grad_eta_final = math.sqrt(float(eta_dir[-1]))

    # linear-growth certificate of the realized selection
    zeta_norms = np.sqrt(np.sum(traj.zeta * traj.zeta, axis=1))
    growth = params.graph.growth_constant
    if growth is None:
        selection_margin = math.inf
        selection_ok = True
    else:
        allowed = growth * (1.0 + np.sqrt(eta_h2))
        selection_margin = float(np.max(zeta_norms - allowed))
        selection_ok = bool(selection_margin <= _INVARIANT_TOL)

    # monotone dissipation of the graph term against eta
    pairing = np.sum(traj.zeta * eta, axis=1)
    dissipation = _cumtrapz(ts, pairing)
    dissipation_min = float(np.min(dissipation))

    constants = dict(first_estimate_constants(params))
    constants.update({"gron_" + k: v for k, v in stability_constants(params).items()})
    constants["D"] = d

    return EnergyReport(
        times=ts,
        e1=e1,
        bound=bound,
        components={
            "eta_h2_half": 0.5 * eta_h2,
            "grad_eta_int": grad_eta_int,
            "dphi_int": dphi_int,
            "phi_v2_scaled": 0.5 * params.nu * phi_v2,
            "envelope": env,
        },
        laplacian_phi_l2=laplacian_phi_l2,
        dt_eta_l2=dt_eta_l2,
        grad_eta_final=grad_eta_final,
        laplacian_eta_l2=laplacian_eta_l2,
        zeta_norms=zeta_norms,
        selection_margin=selection_margin,
        selection_ok=selection_ok,
        dissipation=dissipation,
        dissipation_min=dissipation_min,
        envelope_initial=float(env[0]),
        q_eps=initial.q_eps,
        constants=constants,
        gronwall_ok=gronwall_ok,
        gronwall_margin_min=float(margins[worst]),
        gronwall_margin_t=float(ts[worst]),
        quadrature_warning=len(ts) < MIN_SAMPLES_FOR_QUADRATURE,
    )


def _contraction_reports(params, initial, traj):
    """Compare each member of a stacked solve with its base: row 0 of the
    stacked ``initial`` and of ``traj`` holds the base, rows 1.. the members
    in order.  Returns one column per member in each of three arrays: the
    data differences (4, M), of f, eta*, eta0 and phi0, with f and eta*
    broadcast over the rows; the solution differences (4, M), sup-H and L2-V
    of eta, then of phi; and the pair-dissipation minima (2, M), of (zeta,
    eta), then of (xi, phi).  Time series are reduced over contiguous rows
    of shape (members, saves), which sums each member in the order of a
    standalone one-dimensional reduction."""
    basis = params.basis
    ts = traj.times
    eta = traj.eta
    shape = initial.phi0.coeffs.shape

    def apart(stack):
        # the base row minus each member row; rows are the second-last axis
        return stack[..., :1, :] - stack[..., 1:, :]

    def rows(series):
        return np.ascontiguousarray(series.T)

    def diff_norms(series):
        d = apart(series)
        h2 = rows(np.sum(d * d, axis=-1))
        v2 = rows(np.sum((1.0 + basis.eigenvalues) * d * d, axis=-1))
        return np.max(np.sqrt(h2), axis=-1), np.sqrt(np.trapezoid(v2, ts, axis=-1))

    def pair_dissipation_min(sel, series):
        # monotone pair dissipation of the two realized selection terms
        pair = np.sum(apart(sel) * apart(series), axis=-1)
        return np.min(_cumtrapz(ts, rows(pair)), axis=-1)

    f = apart(np.broadcast_to(params.forcing.at(ts)[:, None], (len(ts), *shape)))
    data = (np.sqrt(np.trapezoid(rows(np.sum(f * f, axis=-1)), ts, axis=-1)),
            spectral.w_norm(basis, apart(np.broadcast_to(params.eta_star.coeffs, shape))),
            spectral.h_norm(basis, apart(initial.eta0.coeffs)),
            spectral.h_norm(basis, apart(initial.phi0.coeffs)))
    return (np.array(data),
            np.array([*diff_norms(eta), *diff_norms(traj.phi)]),
            np.array([pair_dissipation_min(traj.zeta, eta),
                      pair_dissipation_min(traj.xi, traj.phi)]))


@dataclass(frozen=True, eq=False)
class ContractionSweepReport:
    """One column per delta, in the order of ``deltas``, in the three arrays
    of :func:`_contraction_reports`."""

    deltas: np.ndarray
    data_diffs: np.ndarray
    sol_diffs: np.ndarray
    pair_dissipation_min: np.ndarray

    # the totals add their rows left to right, as a scalar sum of the four would
    @property
    def sol_totals(self):
        return sum(self.sol_diffs)

    @property
    def data_totals(self):
        return sum(self.data_diffs)

    @property
    def c_observed(self):
        """Observed stability constant, solution over data differences; NaN
        where the data do not differ."""
        data = self.data_totals
        return np.divide(self.sol_totals, data, out=np.full_like(data, np.nan), where=data > 0)

    @property
    def slope(self):
        """Log-log slope of the solution differences against the deltas."""
        return float(np.polyfit(np.log(self.deltas), np.log(self.sol_totals), 1)[0])

    @property
    def c_spread(self):
        c_obs = self.c_observed
        return float(np.max(c_obs) / np.min(c_obs))

    @property
    def failures(self):
        """One message per delta at which a pair-dissipation integral went
        negative, those of (zeta, eta) first."""
        return tuple(
            f"pair dissipation of ({pair}) went negative ({m:.3e}) at delta {d!r}"
            for pair, mins in zip(("zeta, eta", "xi, phi"), self.pair_dissipation_min)
            for d, m in zip(self.deltas.tolist(), mins.tolist()) if m < -_INVARIANT_TOL)

    def to_dict(self):
        return {
            "deltas": self.deltas.tolist(),
            "sol_totals": self.sol_totals.tolist(),
            "data_totals": self.data_totals.tolist(),
            "c_observed": self.c_observed.tolist(),
            "pair_dissipation_eta_min": self.pair_dissipation_min[0].tolist(),
            "pair_dissipation_phi_min": self.pair_dissipation_min[1].tolist(),
            "slope": self.slope,
            "c_spread": self.c_spread,
        }


def contraction_sweep(cfg, deltas):
    """Dyadic perturbation study of the continuous-dependence inequality.

    The base is ``build_problem(cfg)``, solved at its own schedule.  The
    members form one (M+1, m) coefficient stack, integrated as a single
    solve: row 0 holds the base's phi0 and eta0, and row j the base with the
    j-th delta, in decreasing order, added to the mode-1 coefficient of
    phi0; f and eta* are the base's.  :func:`prepare_initial` checks each
    member's datum on its grid and gives its envelope budget.  A failure
    names the delta of its row; a failure of the base row, or one no row
    can be blamed for, names the first delta.  The ladder is refused as in
    :func:`_ladder_values`, and with ValueError before any solve unless
    alpha = ell, the basis has two modes or more, and every row has its own
    mode-1 coefficient: a delta that rounds away leaves a member equal to
    the base."""
    deltas = _ladder_values(deltas, float, "deltas")
    if cfg.alpha != cfg.ell:
        raise ValueError("continuous-dependence check requires alpha = ell")
    params, initial, schedule = build_problem(cfg)
    basis = params.basis
    if basis.total_modes < 2:
        raise ValueError("continuous-dependence check perturbs basis mode 1 "
                         "and needs at least 2 modes")
    phi0 = np.tile(initial.phi0.coeffs, (len(deltas) + 1, 1))
    phi0[1:, 1] += deltas
    c1 = phi0[:, 1].tolist()
    if len(set(c1)) < len(c1):
        raise ValueError(f"the deltas {deltas} do not give every member its own mode-1 "
                         f"coefficient of phi0, {c1[0]!r} at the base: one rounds away")
    eta0_grid = spectral.to_grid(basis, initial.eta0.coeffs)
    members = dict(zip(deltas, phi0[1:]))

    def budget(delta):
        return prepare_initial(basis, eta0_grid, spectral.to_grid(basis, members[delta]),
                               params.potential, params.eps).q_eps

    stack = InitialData(eta0=FieldCoeffs(np.tile(initial.eta0.coeffs, (len(phi0), 1))),
                        phi0=FieldCoeffs(phi0),
                        q_eps=np.array([initial.q_eps, *_run_many(budget, deltas)]))
    traj = _solve_named(params, stack, schedule, [deltas[0], *deltas])
    return ContractionSweepReport(np.array(deltas),
                                  *_contraction_reports(params, stack, traj))


class LadderMemberError(RuntimeError):
    """One ladder member failed; carries the member value and the cause."""

    def __init__(self, value, cause):
        super().__init__(f"ladder member {value!r} failed: {cause}")
        self.value = value
        self.cause = cause


def _ladder_values(values, kind, plural):
    """A ladder's values in decreasing order.  Every ladder needs at least
    two distinct values, all positive and finite, none repeated, and is
    refused with ValueError before any member is built or solved otherwise."""
    values = sorted((kind(v) for v in values), reverse=True)
    if not (len(values) >= 2 and all(0 < v < math.inf for v in values)
            and len(set(values)) == len(values)):
        raise ValueError(f"a ladder needs at least two distinct {plural}, "
                         f"all positive and finite, none repeated; got {values}")
    return values


def _run_many(fn, values):
    """Apply fn to each member in order; a failure names its member."""
    results = []
    for v in values:
        try:
            results.append(fn(v))
        except Exception as exc:
            raise LadderMemberError(v, exc) from exc
    return results


def _solve_named(params, initial, schedule, values):
    """Solve one member, or a coefficient stack with one row per entry of
    ``values``.  A failure is a LadderMemberError: a BlowUpError names the
    value of its row, and any other failure the first value.  ``solve`` is
    called through this module's binding, which a tracer may patch."""
    try:
        return solve(params, initial, schedule)
    except Exception as exc:
        row = exc.member if isinstance(exc, BlowUpError) else None
        raise LadderMemberError(values[row or 0], exc) from exc


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    axis: str
    values: np.ndarray
    consecutive_phi: np.ndarray
    consecutive_eta: np.ndarray
    consecutive_total: np.ndarray
    to_reference_total: np.ndarray
    rate: float | None
    overshoot: np.ndarray | None

    # a ladder of convergence differences certifies no invariant
    failures = ()

    @property
    def decreasing(self):
        d = self.consecutive_total
        return bool(np.all(d[1:] < d[:-1])) if len(d) > 1 else True

    def to_dict(self):
        out = {
            "axis": self.axis,
            "values": self.values.tolist(),
            "consecutive_phi": self.consecutive_phi.tolist(),
            "consecutive_eta": self.consecutive_eta.tolist(),
            "consecutive_total": self.consecutive_total.tolist(),
            "to_reference_total": self.to_reference_total.tolist(),
            "rate": self.rate,
            "decreasing": self.decreasing,
        }
        if self.overshoot is not None:
            out["overshoot"] = self.overshoot.tolist()
        return out


def _ladder_report(axis, values, bases, series, overshoot):
    """Report a ladder from each member's basis and its ``(phi, eta)``
    coefficients at the saves, each of shape (saves, modes)."""
    def diffs(i, j):
        """C0([0,T];H) differences of phi and of eta between members i and
        j, in the basis of member j."""
        out = []
        for a, b in zip(series[i], series[j]):
            d = spectral.embed_coeffs(bases[i], bases[j], a) - b
            out.append(float(np.max(np.sqrt(np.sum(d * d, axis=1)))))
        return out

    last = len(values) - 1
    cons_phi, cons_eta = np.array([diffs(i, i + 1) for i in range(last)]).T
    total = cons_phi + cons_eta
    if len(total) > 1 and np.all(total > 0):
        rate = float(np.polyfit(np.log(np.asarray(values[:-1], float)),
                                np.log(total), 1)[0])
    else:
        rate = None
    return ConvergenceReport(
        axis=axis, values=np.asarray(values, dtype=float),
        consecutive_phi=cons_phi, consecutive_eta=cons_eta,
        consecutive_total=total,
        to_reference_total=np.array([sum(diffs(i, last)) for i in range(last)]),
        rate=rate, overshoot=overshoot)


def galerkin_convergence(cfg, ns):
    """Truncation-level ladder: member n is ``cfg`` with ``modes=n`` and its
    default quadrature.  Reports the C0([0,T];H) differences between
    consecutive levels.  Every level keeps the config's schedule and so its
    ``dt``: the ladder measures convergence in n of the time-discrete
    scheme, and its differences can fall below each level's own time error.
    The ladder is refused as in :func:`_ladder_values`."""
    ns = sorted(_ladder_values(ns, int, "mode counts"))
    members = _run_many(
        lambda n: build_problem(replace(cfg, modes=n, quadrature=None)), ns)
    trajs = [_solve_named(p, i, s, [n]) for n, (p, i, s) in zip(ns, members)]
    return _ladder_report("n", ns, [p.basis for p, _, _ in members],
                          [(t.phi, t.eta) for t in trajs], None)


def constraint_overshoot(phi, basis):
    """Largest excursion of the order parameter beyond |phi| = 1, from its
    coefficients ``phi`` of shape (saves, modes)."""
    grid = spectral.to_grid(basis, phi)
    return max(float(np.max(np.abs(grid))) - 1.0, 0.0)


def yosida_convergence(cfg, eps_values):
    """Regularization ladder: member eps is ``cfg`` with that eps, on the
    config's basis.  Reports consecutive trajectory differences (Cauchy
    check) and, when the potential is the obstacle well, the constraint
    overshoot of the order parameter.  Refused as in :func:`_ladder_values`.

    Each member is built in turn, so a failed build names its eps and each
    member keeps its own initial data and envelope budget.  The members
    differ only in eps, so they are solved as one (B, m) stack under the
    first member's params and schedule, with one eps per row, and each row
    is reported as its member.  A blow-up names the eps of its row, and any
    other failure of the solve the first eps.  The members keep the
    config's ``dt``: at an eps below the step, the last differences measure
    the time error, and at ``dt/eps = 10`` they amplify the rounding of the
    stacked transforms."""
    eps_values = _ladder_values(eps_values, float, "eps values")
    params, initials, schedules = zip(*_run_many(
        lambda eps: build_problem(replace(cfg, eps=eps)), eps_values))
    stack = InitialData(
        eta0=FieldCoeffs(np.stack([i.eta0.coeffs for i in initials])),
        phi0=FieldCoeffs(np.stack([i.phi0.coeffs for i in initials])),
        q_eps=np.array([i.q_eps for i in initials]))
    traj = _solve_named(replace(params[0], eps=eps_values), stack, schedules[0], eps_values)
    series = list(zip(traj.phi.swapaxes(0, 1), traj.eta.swapaxes(0, 1)))
    basis = params[0].basis
    overshoot = None
    if params[0].potential.variant == "obstacle":
        overshoot = np.array([constraint_overshoot(phi, basis) for phi, _ in series])
    return _ladder_report("eps", eps_values, [basis] * len(series), series, overshoot)
