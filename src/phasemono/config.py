"""Scenario configuration: a sectioned key-value format, its canonical
serialization, and the builder that turns a parsed config into solver inputs.

Sections and keys:

    [domain]        dims, lengths, modes, quadrature (optional), normalization
    [model]         ell, alpha, k, nu, gamma, t_final
    [potential]     variant, c0
    [graph]         variant, alpha1, alpha2, q, weight
    [regularization] eps, mollify_forcing
    [initial]       eta0, phi0, eta_star, forcing   (profile strings)
    [integrator]    method, dt, tol, saves
    [run]           seed, blowup_ceiling

Parsing is strict: unknown sections or keys and malformed values are
reported with the offending line number.  ``serialize_config`` emits a
canonical text whose re-parse compares equal to the original config.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from . import profiles, spectral
from .dynamics import FieldCoeffs, Forcing, ModelParams, Schedule, prepare_initial
from .monotone import (
    NonlocalSign,
    ScalarSign,
    Stefan,
    WeightedPower,
    ZeroGraph,
)
from .potentials import PotentialSpec

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "serialize_config",
           "build_problem", "with_overrides"]


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    dims: int = 1
    lengths: tuple = (1.0,)
    modes: int = 16
    quadrature: int | None = None
    normalization: str = "h"
    ell: float = 1.0
    alpha: float = 1.0
    k: float = 1.0
    nu: float = 1.0
    gamma: float = 0.5
    t_final: float = 0.5
    potential: str = "regular"
    c0: float = 1.0
    graph: str = "zero"
    graph_alpha1: float = 1.0
    graph_alpha2: float = 1.0
    graph_q: float = 0.5
    graph_weight: str = "constant 1.0"
    eps: float = 0.1
    mollify_forcing: bool = False
    eta0: str = "zero"
    phi0: str = "zero"
    eta_star: str = "zero"
    forcing: str = "zero"
    method: str = "imex"
    dt: float = 1e-3
    tol: float = 1e-8
    saves: int = 101
    seed: int = 0
    blowup_ceiling: float = 1e8


_SCHEMA = {
    "domain": {
        "dims": int,
        "lengths": "lengths",
        "modes": int,
        "quadrature": "opt_int",
        "normalization": str,
    },
    "model": {
        "ell": float, "alpha": float, "k": float, "nu": float,
        "gamma": float, "t_final": float,
    },
    "potential": {"variant": str, "c0": float},
    "graph": {
        "variant": str, "alpha1": float, "alpha2": float,
        "q": float, "weight": str,
    },
    "regularization": {"eps": float, "mollify_forcing": "bool"},
    "initial": {"eta0": str, "phi0": str, "eta_star": str, "forcing": str},
    "integrator": {"method": str, "dt": float, "tol": float, "saves": int},
    "run": {"seed": int, "blowup_ceiling": float},
}

_KEY_TO_FIELD = {
    ("domain", "dims"): "dims",
    ("domain", "lengths"): "lengths",
    ("domain", "modes"): "modes",
    ("domain", "quadrature"): "quadrature",
    ("domain", "normalization"): "normalization",
    ("model", "ell"): "ell",
    ("model", "alpha"): "alpha",
    ("model", "k"): "k",
    ("model", "nu"): "nu",
    ("model", "gamma"): "gamma",
    ("model", "t_final"): "t_final",
    ("potential", "variant"): "potential",
    ("potential", "c0"): "c0",
    ("graph", "variant"): "graph",
    ("graph", "alpha1"): "graph_alpha1",
    ("graph", "alpha2"): "graph_alpha2",
    ("graph", "q"): "graph_q",
    ("graph", "weight"): "graph_weight",
    ("regularization", "eps"): "eps",
    ("regularization", "mollify_forcing"): "mollify_forcing",
    ("initial", "eta0"): "eta0",
    ("initial", "phi0"): "phi0",
    ("initial", "eta_star"): "eta_star",
    ("initial", "forcing"): "forcing",
    ("integrator", "method"): "method",
    ("integrator", "dt"): "dt",
    ("integrator", "tol"): "tol",
    ("integrator", "saves"): "saves",
    ("run", "seed"): "seed",
    ("run", "blowup_ceiling"): "blowup_ceiling",
}

# float keys where inf has a meaning: no step bound, no tolerance, no ceiling
_INF_ALLOWED = ("dt", "tol", "blowup_ceiling")

GRAPH_VARIANTS = ("zero", "scalar_sign", "nonlocal_sign", "stefan", "weighted_power")
POTENTIAL_VARIANTS = ("regular", "logarithmic", "obstacle")


def _line_of(text, section, key):
    in_section = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            in_section = stripped[1:-1].strip() == section
        elif in_section and stripped.split("=")[0].strip() == key:
            return lineno
    return None


def _convert(kind, raw, text, section, key):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw.strip()
        if kind == "opt_int":
            return None if raw.strip().lower() in ("", "none", "auto") else int(raw)
        if kind == "bool":
            low = raw.strip().lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "lengths":
            vals = tuple(float(v) for v in raw.replace(",", " ").split())
            if not vals:
                raise ValueError("empty length list")
            return vals
    except ValueError as exc:
        line = _line_of(text, section, key)
        where = f"line {line}" if line else f"[{section}] {key}"
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc
    raise AssertionError(f"unknown schema kind {kind!r}")


def parse_config(text):
    """Parse a scenario config from text; raise ConfigError with a line
    reference on any syntax, schema, or validation problem."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                line = _line_of(text, section, key)
                where = f"line {line}: " if line else ""
                raise ConfigError(f"{where}unknown key {key!r} in [{section}]")
            field = _KEY_TO_FIELD[(section, key)]
            values[field] = _convert(_SCHEMA[section][key], raw, text, section, key)

    cfg = ScenarioConfig(**values)
    _validate(cfg)
    return cfg


def _check_numbers(cfg):
    """No float key may be NaN, and only those in _INF_ALLOWED may be inf."""
    for (section, key), name in _KEY_TO_FIELD.items():
        if _SCHEMA[section][key] not in (float, "lengths"):
            continue
        for v in np.atleast_1d(getattr(cfg, name)):
            if math.isnan(v) or (math.isinf(v) and name not in _INF_ALLOWED):
                what = "a number or inf" if name in _INF_ALLOWED else "a finite number"
                raise ConfigError(f"[{section}] {key} must be {what}, got {float(v)}")


def _validate(cfg):
    _check_numbers(cfg)
    if cfg.dims not in (1, 2):
        raise ConfigError("domain dims must be 1 or 2")
    if len(cfg.lengths) != cfg.dims:
        raise ConfigError("domain needs one length per dimension")
    if any(L <= 0 for L in cfg.lengths):
        raise ConfigError("domain lengths must be positive")
    if cfg.modes < 1:
        raise ConfigError("need at least one mode")
    if cfg.quadrature is not None and cfg.quadrature < 2 * cfg.modes:
        raise ConfigError("quadrature must supply at least 2*modes points")
    if cfg.normalization not in ("h", "v"):
        raise ConfigError("normalization must be 'h' or 'v'")
    for name in ("ell", "alpha", "k", "nu"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"model {name} must be positive")
    if cfg.gamma < 0:
        raise ConfigError("model gamma must be nonnegative")
    if cfg.t_final <= 0:
        raise ConfigError("model t_final must be positive")
    if cfg.potential not in POTENTIAL_VARIANTS:
        raise ConfigError(f"unknown potential variant {cfg.potential!r}")
    if cfg.graph not in GRAPH_VARIANTS:
        raise ConfigError(f"unknown graph variant {cfg.graph!r}")
    if cfg.eps <= 0:
        raise ConfigError("regularization eps must be positive")
    if cfg.method not in ("imex", "rk4", "rk45"):
        raise ConfigError(f"unknown integrator method {cfg.method!r}")
    if cfg.dt <= 0 or cfg.tol <= 0:
        raise ConfigError("integrator dt and tol must be positive")
    if cfg.blowup_ceiling <= 0:
        raise ConfigError("run blowup_ceiling must be positive")
    if cfg.saves < 2:
        raise ConfigError("integrator saves must be at least 2")
    if cfg.seed < 0:
        raise ConfigError("seed must be nonnegative")


def serialize_config(cfg):
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    out = io.StringIO()
    lengths = " ".join(repr(float(L)) for L in cfg.lengths)
    quad = "auto" if cfg.quadrature is None else str(cfg.quadrature)
    out.write("[domain]\n")
    out.write(f"dims = {cfg.dims}\n")
    out.write(f"lengths = {lengths}\n")
    out.write(f"modes = {cfg.modes}\n")
    out.write(f"quadrature = {quad}\n")
    out.write(f"normalization = {cfg.normalization}\n\n")
    out.write("[model]\n")
    for key in ("ell", "alpha", "k", "nu", "gamma", "t_final"):
        out.write(f"{key} = {repr(float(getattr(cfg, key)))}\n")
    out.write("\n[potential]\n")
    out.write(f"variant = {cfg.potential}\n")
    out.write(f"c0 = {repr(float(cfg.c0))}\n\n")
    out.write("[graph]\n")
    out.write(f"variant = {cfg.graph}\n")
    out.write(f"alpha1 = {repr(float(cfg.graph_alpha1))}\n")
    out.write(f"alpha2 = {repr(float(cfg.graph_alpha2))}\n")
    out.write(f"q = {repr(float(cfg.graph_q))}\n")
    out.write(f"weight = {cfg.graph_weight}\n\n")
    out.write("[regularization]\n")
    out.write(f"eps = {repr(float(cfg.eps))}\n")
    out.write(f"mollify_forcing = {'true' if cfg.mollify_forcing else 'false'}\n\n")
    out.write("[initial]\n")
    out.write(f"eta0 = {cfg.eta0}\n")
    out.write(f"phi0 = {cfg.phi0}\n")
    out.write(f"eta_star = {cfg.eta_star}\n")
    out.write(f"forcing = {cfg.forcing}\n\n")
    out.write("[integrator]\n")
    out.write(f"method = {cfg.method}\n")
    out.write(f"dt = {repr(float(cfg.dt))}\n")
    out.write(f"tol = {repr(float(cfg.tol))}\n")
    out.write(f"saves = {cfg.saves}\n\n")
    out.write("[run]\n")
    out.write(f"seed = {cfg.seed}\n")
    out.write(f"blowup_ceiling = {repr(float(cfg.blowup_ceiling))}\n")
    return out.getvalue()


def with_overrides(cfg, **kw):
    """Replace fields and re-validate."""
    new = replace(cfg, **kw)
    _validate(new)
    return new


def _build_graph(cfg, basis):
    if cfg.graph == "zero":
        return ZeroGraph()
    if cfg.graph == "scalar_sign":
        return ScalarSign()
    if cfg.graph == "nonlocal_sign":
        return NonlocalSign()
    try:
        if cfg.graph == "stefan":
            return Stefan(cfg.graph_alpha1, cfg.graph_alpha2)
        return WeightedPower(cfg.graph_q, profiles.profile_grid(basis, cfg.graph_weight))
    except ValueError as exc:
        raise ConfigError(f"graph {cfg.graph}: {exc}") from exc


def _build_potential(cfg):
    try:
        if cfg.potential == "regular":
            return PotentialSpec("regular")
        return PotentialSpec(cfg.potential, cfg.c0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_problem(cfg):
    """Turn a config into (params, initial, schedule).

    Profile randomness is drawn from per-field generators seeded by the run
    seed, so a field is reproducible independently of the other fields and of
    the truncation level.
    """
    basis = spectral.build_basis(
        cfg.dims, cfg.lengths, cfg.modes,
        normalization=cfg.normalization, m_quad=cfg.quadrature)
    potential = _build_potential(cfg)
    graph = _build_graph(cfg, basis)
    if graph.growth_constant is None:
        raise ConfigError("the perturbation graph must carry a linear-growth bound")

    def rng_for(idx):
        return np.random.default_rng([cfg.seed, idx])

    try:
        eta0_grid = profiles.profile_grid(basis, cfg.eta0, rng_for(1))
        phi0_grid = profiles.profile_grid(basis, cfg.phi0, rng_for(2))
        star_grid = profiles.profile_grid(basis, cfg.eta_star, rng_for(3))
        forcing_grid = profiles.profile_grid(basis, cfg.forcing, rng_for(4))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    star = spectral.from_grid(basis, star_grid)
    f_coeffs = spectral.from_grid(basis, forcing_grid)
    forcing = Forcing.constant(f_coeffs, cfg.t_final)
    if cfg.mollify_forcing:
        forcing = forcing.mollified(cfg.eps, n_samples=257)

    try:
        initial = prepare_initial(basis, eta0_grid, phi0_grid, potential, cfg.eps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    params = ModelParams(
        ell=cfg.ell, alpha=cfg.alpha, k=cfg.k, nu=cfg.nu, gamma=cfg.gamma,
        t_final=cfg.t_final, basis=basis,
        eta_star=FieldCoeffs(star, "eta_star"), forcing=forcing,
        graph=graph, potential=potential, eps=cfg.eps,
        blowup_ceiling=cfg.blowup_ceiling)
    schedule = Schedule(method=cfg.method, dt=cfg.dt, tol=cfg.tol, n_saves=cfg.saves)
    return params, initial, schedule
