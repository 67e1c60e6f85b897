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

The continuous-dependence checker requires alpha = ell and reports the
observed stability constant together with the Gronwall-derived one

    M  = max((4 gamma^2 k ell^2 + 2 nu C_pi) / nu, 1/2)
    C0 = max(1/2, k ell^2 / (2 nu)),   C1 = exp(T M)
    C2 = max(4 C1, 4 k^2 T C1, T C1 / 8, C1 C0)
    C3 = min(1/2, k ell^2 / (2 nu), ell^2 / 2),   C4 = C2 / C3

without asserting their ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectral
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
    "ContractionData",
    "ContractionReport",
    "ContractionSweepReport",
    "ConvergenceReport",
    "first_estimate_constants",
    "stability_constants",
    "gronwall_bound",
    "energy_monitor",
    "contraction_check",
    "contraction_sweep",
    "perturb_initial",
    "galerkin_convergence",
    "yosida_convergence",
    "constraint_overshoot",
]

MIN_SAMPLES_FOR_QUADRATURE = 33


def _cumtrapz(ts, ys):
    out = np.zeros_like(ys)
    out[1:] = np.cumsum(0.5 * (ys[1:] + ys[:-1]) * np.diff(ts))
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
    basis = params.basis
    shift = params.k * basis.eigenvalues * params.eta_star.coeffs
    vals = np.empty(len(ts))
    for j, t in enumerate(ts):
        g = params.forcing.at(t) + shift
        vals[j] = float(np.sum(basis.mass * g * g))
    return float(np.trapezoid(vals, ts))


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
    components: dict
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
    quadrature_warning: bool

    def to_dict(self):
        return {
            "e1_max": float(np.max(self.e1)),
            "bound_min": float(np.min(self.bound)),
            "gronwall_ok": bool(self.gronwall_ok),
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


def energy_monitor(traj, params):
    """Evaluate the energy functional, the explicit Gronwall certificate and
    the companion estimate quantities along a sampled trajectory."""
    basis = params.basis
    ts = traj.times
    lam = basis.eigenvalues
    mass = basis.mass
    initial = traj.initial

    eta = traj.eta
    eta_h2 = np.sum(mass * eta * eta, axis=1)
    eta_dir = np.sum(mass * lam * eta * eta, axis=1)
    phi_v2 = np.sum(mass * (1.0 + lam) * traj.phi * traj.phi, axis=1)
    dphi_h2 = np.sum(mass * traj.dphi * traj.dphi, axis=1)
    env = np.array([envelope_integral(params, traj.phi[j]) for j in range(len(ts))])

    e1 = (0.5 * eta_h2
          + params.k * _cumtrapz(ts, eta_dir)
          + _cumtrapz(ts, dphi_h2)
          + 0.5 * params.nu * phi_v2
          + env)

    d, c5 = gronwall_bound(params, initial, ts)
    with np.errstate(over="ignore"):
        bound = 2.0 * d * np.exp(np.minimum(c5 * ts, 700.0))
    log_bound = math.log(max(2.0 * d, 1e-300)) + c5 * ts
    with np.errstate(divide="ignore"):
        gronwall_ok = bool(np.all(np.log(np.maximum(e1, 1e-300)) <= log_bound + 1e-9))

    # companion estimate quantities
    lap_phi2 = np.sum(mass * lam * lam * traj.phi * traj.phi, axis=1)
    lap_eta2 = np.sum(mass * lam * lam * eta * eta, axis=1)
    deta = traj.deta
    deta_h2 = np.sum(mass * deta * deta, axis=1)
    laplacian_phi_l2 = math.sqrt(float(np.trapezoid(lap_phi2, ts)))
    laplacian_eta_l2 = math.sqrt(float(np.trapezoid(lap_eta2, ts)))
    dt_eta_l2 = math.sqrt(float(np.trapezoid(deta_h2, ts)))
    grad_eta_final = math.sqrt(float(eta_dir[-1]))

    # linear-growth certificate of the realized selection
    zeta_norms = np.sqrt(np.sum(mass * traj.zeta * traj.zeta, axis=1))
    growth = params.graph.growth_constant
    if growth is None:
        selection_margin = math.inf
        selection_ok = True
    else:
        allowed = growth * (1.0 + np.sqrt(eta_h2))
        selection_margin = float(np.max(zeta_norms - allowed))
        selection_ok = bool(selection_margin <= 1e-9)

    # monotone dissipation of the graph term against eta
    pairing = np.sum(mass * traj.zeta * eta, axis=1)
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
            "grad_eta_int": params.k * _cumtrapz(ts, eta_dir),
            "dphi_int": _cumtrapz(ts, dphi_h2),
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
        quadrature_warning=len(ts) < MIN_SAMPLES_FOR_QUADRATURE,
    )


@dataclass(frozen=True, eq=False)
class ContractionData:
    """One admissible data set (f, eta*, eta0, phi0) for the coupled system."""

    initial: object
    eta_star: object
    forcing: object


def _linf_h(basis, series1, series2):
    d = series1 - series2
    return float(np.max(np.sqrt(np.sum(basis.mass * d * d, axis=1))))


def _l2_v(basis, ts, series1, series2):
    d = series1 - series2
    v2 = np.sum(basis.mass * (1.0 + basis.eigenvalues) * d * d, axis=1)
    return math.sqrt(float(np.trapezoid(v2, ts)))


@dataclass(frozen=True, eq=False)
class ContractionReport:
    data_diff_f: float
    data_diff_star: float
    data_diff_eta0: float
    data_diff_phi0: float
    sol_linf_h_eta: float
    sol_l2_v_eta: float
    sol_linf_h_phi: float
    sol_l2_v_phi: float
    c_gronwall: float
    pair_dissipation_eta_min: float
    pair_dissipation_phi_min: float

    @property
    def data_total(self):
        return (self.data_diff_f + self.data_diff_star
                + self.data_diff_eta0 + self.data_diff_phi0)

    @property
    def sol_total(self):
        return (self.sol_linf_h_eta + self.sol_l2_v_eta
                + self.sol_linf_h_phi + self.sol_l2_v_phi)

    @property
    def c_observed(self):
        """Observed stability constant: solution over data differences."""
        return self.sol_total / self.data_total if self.data_total > 0 else None

    def to_dict(self):
        return {
            "data_diff_f": self.data_diff_f,
            "data_diff_star": self.data_diff_star,
            "data_diff_eta0": self.data_diff_eta0,
            "data_diff_phi0": self.data_diff_phi0,
            "sol_linf_h_eta": self.sol_linf_h_eta,
            "sol_l2_v_eta": self.sol_l2_v_eta,
            "sol_linf_h_phi": self.sol_linf_h_phi,
            "sol_l2_v_phi": self.sol_l2_v_phi,
            "c_observed": self.c_observed,
            "c_gronwall": self.c_gronwall,
            "pair_dissipation_eta_min": self.pair_dissipation_eta_min,
            "pair_dissipation_phi_min": self.pair_dissipation_phi_min,
        }


def _require_matched_coupling(params):
    if params.alpha != params.ell:
        raise ValueError("continuous-dependence check requires alpha = ell")


def _contraction_report(params, data1, data2, ts, sol1, sol2):
    """Compare two solutions, each given as its (phi, eta, zeta, xi) series
    at the sample times ``ts``, with the difference of their data."""
    basis = params.basis
    phi1, eta1, zeta1, xi1 = sol1
    phi2, eta2, zeta2, xi2 = sol2

    fdiff = np.empty(len(ts))
    for j, t in enumerate(ts):
        g = data1.forcing.at(t) - data2.forcing.at(t)
        fdiff[j] = float(np.sum(basis.mass * g * g))
    data_diff_f = math.sqrt(float(np.trapezoid(fdiff, ts)))
    data_diff_star = spectral.w_norm(
        basis, data1.eta_star.coeffs - data2.eta_star.coeffs)
    data_diff_eta0 = spectral.h_norm(
        basis, data1.initial.eta0.coeffs - data2.initial.eta0.coeffs)
    data_diff_phi0 = spectral.h_norm(
        basis, data1.initial.phi0.coeffs - data2.initial.phi0.coeffs)

    report_args = dict(
        data_diff_f=data_diff_f,
        data_diff_star=data_diff_star,
        data_diff_eta0=data_diff_eta0,
        data_diff_phi0=data_diff_phi0,
        sol_linf_h_eta=_linf_h(basis, eta1, eta2),
        sol_l2_v_eta=_l2_v(basis, ts, eta1, eta2),
        sol_linf_h_phi=_linf_h(basis, phi1, phi2),
        sol_l2_v_phi=_l2_v(basis, ts, phi1, phi2),
        c_gronwall=stability_constants(params)["C4"],
    )

    # monotone pair dissipation of the two realized selection terms
    pair_eta = np.sum(basis.mass * (zeta1 - zeta2) * (eta1 - eta2), axis=1)
    pair_phi = np.sum(basis.mass * (xi1 - xi2) * (phi1 - phi2), axis=1)
    report_args["pair_dissipation_eta_min"] = float(np.min(_cumtrapz(ts, pair_eta)))
    report_args["pair_dissipation_phi_min"] = float(np.min(_cumtrapz(ts, pair_phi)))
    return ContractionReport(**report_args)


def contraction_check(params, data1, data2, schedule):
    """Solve the system for two data sets sharing all coefficients and
    compare solution differences with data differences.  Only admissible when
    alpha = ell, which is what makes the cross terms contract."""
    _require_matched_coupling(params)
    t1 = solve(params.with_data(eta_star=data1.eta_star, forcing=data1.forcing),
               data1.initial, schedule)
    t2 = solve(params.with_data(eta_star=data2.eta_star, forcing=data2.forcing),
               data2.initial, schedule)
    return _contraction_report(
        params, data1, data2, t1.times,
        (t1.phi, t1.eta, t1.zeta, t1.xi), (t2.phi, t2.eta, t2.zeta, t2.xi))


def perturb_initial(params, data, delta, mode_index=1):
    """Shift the order-parameter initial datum by delta times the
    H-normalized basis mode with the given (flattened) index."""
    basis = params.basis
    unit = np.zeros(basis.total_modes)
    unit[mode_index] = 1.0 / basis.amp[mode_index]
    phi_grid = spectral.to_grid(
        basis, np.asarray(data.initial.phi0.coeffs) + delta * unit)
    eta_grid = spectral.to_grid(basis, data.initial.eta0.coeffs)
    initial = prepare_initial(basis, eta_grid, phi_grid, params.potential, params.eps)
    return ContractionData(initial=initial, eta_star=data.eta_star, forcing=data.forcing)


@dataclass(frozen=True, eq=False)
class ContractionSweepReport:
    deltas: np.ndarray
    sol_totals: np.ndarray
    data_totals: np.ndarray
    c_observed: np.ndarray
    slope: float
    c_spread: float

    def to_dict(self):
        return {
            "deltas": self.deltas.tolist(),
            "sol_totals": self.sol_totals.tolist(),
            "data_totals": self.data_totals.tolist(),
            "c_observed": self.c_observed.tolist(),
            "slope": self.slope,
            "c_spread": self.c_spread,
        }


def _stack_initial(initials):
    """One InitialData whose fields stack those of the given members."""
    return InitialData(
        eta0=FieldCoeffs(np.stack([i.eta0.coeffs for i in initials]), "eta0"),
        phi0=FieldCoeffs(np.stack([i.phi0.coeffs for i in initials]), "phi0"),
        phi0_grid=np.stack([i.phi0_grid for i in initials]),
        beta_hat_l1=np.array([i.beta_hat_l1 for i in initials]),
        q_eps=np.array([i.q_eps for i in initials]))


def contraction_sweep(params, data, deltas, schedule, mode_index=1):
    """Dyadic perturbation study of the continuous-dependence inequality.

    The base data and one perturbation per delta are integrated together
    as a single stacked solve, so the base is solved once.  A failure names
    the delta of the row it happened in; a failure of the base row, or one
    no row can be blamed for, names the first delta.  The ladder must hold
    at least two distinct deltas, all positive, for the log-log slope; it is
    refused with ValueError before any solve otherwise."""
    _require_matched_coupling(params)
    deltas = sorted((float(d) for d in deltas), reverse=True)
    if not (deltas and deltas[-1] > 0.0 and len(set(deltas)) >= 2):
        raise ValueError("a delta ladder needs at least two distinct deltas, "
                         f"all positive; got {deltas}")
    members = _run_many(
        lambda delta: perturb_initial(params, data, delta, mode_index), deltas)
    try:
        traj = solve(params.with_data(eta_star=data.eta_star, forcing=data.forcing),
                     _stack_initial([data.initial] + [m.initial for m in members]),
                     schedule)
    except Exception as exc:
        row = exc.member if isinstance(exc, BlowUpError) else None
        blamed = deltas[row - 1] if row else deltas[0]
        raise LadderMemberError(blamed, exc) from exc

    eta = traj.eta

    def rows(r):
        return traj.phi[:, r], eta[:, r], traj.zeta[:, r], traj.xi[:, r]

    reports = [_contraction_report(params, data, m, traj.times, rows(0), rows(r))
               for r, m in enumerate(members, start=1)]
    sol = np.array([r.sol_total for r in reports])
    dat = np.array([r.data_total for r in reports])
    c_obs = np.array([r.c_observed for r in reports], dtype=float)
    slope = float(np.polyfit(np.log(deltas), np.log(sol), 1)[0])
    spread = float(np.max(c_obs) / np.min(c_obs))
    return ContractionSweepReport(
        deltas=np.array(deltas), sol_totals=sol, data_totals=dat,
        c_observed=c_obs, slope=slope, c_spread=spread)


class LadderMemberError(RuntimeError):
    """One ladder member failed; carries the member value and the cause."""

    def __init__(self, value, cause):
        super().__init__(f"ladder member {value!r} failed: {cause}")
        self.value = value
        self.cause = cause


def _run_many(fn, values):
    """Apply fn to each member in order; a failure names its member."""
    results = []
    for v in values:
        try:
            results.append(fn(v))
        except Exception as exc:
            raise LadderMemberError(v, exc) from exc
    return results


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    axis: str
    values: np.ndarray
    consecutive_phi: np.ndarray
    consecutive_eta: np.ndarray
    consecutive_total: np.ndarray
    to_reference_total: np.ndarray
    rate: float
    extras: dict = field(default_factory=dict)

    @property
    def decreasing(self):
        d = self.consecutive_total
        return bool(np.all(d[1:] < d[:-1])) if len(d) > 1 else True

    @property
    def final_diff(self):
        return float(self.consecutive_total[-1])

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
        out.update({k: (v.tolist() if isinstance(v, np.ndarray) else v)
                    for k, v in self.extras.items()})
        return out


def _c0_h_diff(basis_small, basis_big, series_small, series_big):
    embedded = np.stack([
        spectral.embed_coeffs(basis_small, basis_big, row) for row in series_small])
    d = embedded - series_big
    return float(np.max(np.sqrt(np.sum(basis_big.mass * d * d, axis=1))))


def _ladder_report(axis, values, runs, trajs, extras=None):
    cons_phi, cons_eta = [], []
    for i in range(len(values) - 1):
        b0, b1 = runs[i][0].basis, runs[i + 1][0].basis
        cons_phi.append(_c0_h_diff(b0, b1, trajs[i].phi, trajs[i + 1].phi))
        cons_eta.append(_c0_h_diff(b0, b1, trajs[i].eta, trajs[i + 1].eta))
    ref_total = []
    b_ref = runs[-1][0].basis
    for i in range(len(values) - 1):
        b0 = runs[i][0].basis
        ref_total.append(_c0_h_diff(b0, b_ref, trajs[i].phi, trajs[-1].phi)
                         + _c0_h_diff(b0, b_ref, trajs[i].eta, trajs[-1].eta))
    cons_phi = np.array(cons_phi)
    cons_eta = np.array(cons_eta)
    total = cons_phi + cons_eta
    if len(total) > 1 and np.all(total > 0):
        rate = float(np.polyfit(np.log(np.asarray(values[:-1], float)),
                                np.log(total), 1)[0])
    else:
        rate = math.nan
    return ConvergenceReport(
        axis=axis, values=np.asarray(values, dtype=float),
        consecutive_phi=cons_phi, consecutive_eta=cons_eta,
        consecutive_total=total, to_reference_total=np.array(ref_total),
        rate=rate, extras=extras or {})


def galerkin_convergence(factory, ns, schedule):
    """Truncation-level ladder: factory(n) -> (params, initial).  Reports the
    C0([0,T];H) differences between consecutive levels; levels must share the
    domain, the sample grid and all coefficients."""
    ns = sorted(int(n) for n in ns)
    runs = {n: factory(n) for n in ns}
    trajs = _run_many(lambda n: solve(runs[n][0], runs[n][1], schedule), ns)
    return _ladder_report("n", ns, [runs[n] for n in ns], trajs)


def constraint_overshoot(traj, basis):
    """Largest excursion of the order parameter beyond |phi| = 1."""
    worst = 0.0
    for row in traj.phi:
        grid = spectral.to_grid(basis, row)
        worst = max(worst, float(np.max(np.abs(grid))) - 1.0)
    return max(worst, 0.0)


def yosida_convergence(factory, eps_values, schedule, track_overshoot=False):
    """Regularization ladder: factory(eps) -> (params, initial), fixed basis.
    Reports consecutive trajectory differences (Cauchy check) and optionally
    the constraint overshoot of the order parameter."""
    eps_values = sorted((float(e) for e in eps_values), reverse=True)
    runs = {e: factory(e) for e in eps_values}
    trajs = _run_many(lambda e: solve(runs[e][0], runs[e][1], schedule), eps_values)
    run_list = [runs[e] for e in eps_values]
    extras = {}
    if track_overshoot:
        extras["overshoot"] = np.array([
            constraint_overshoot(tr, run_list[i][0].basis)
            for i, tr in enumerate(trajs)])
    return _ladder_report("eps", eps_values, run_list, trajs, extras)
