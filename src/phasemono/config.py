"""Scenario configuration: a sectioned key-value format, its canonical
serialization, and the builder that turns a parsed config into solver inputs.

Each ScenarioConfig field declares its key once: its section, its kind and,
where it differs from the field name, its key.  The field order is the
canonical order.  ``_KEYS`` is read off the fields, and parsing, the number
checks and ``serialize_config`` all read it.  A ScenarioConfig is validated
when it is made, so ``dataclasses.replace``, which makes every ladder member
and command-line override, re-validates.  Each value must read back as
itself from the text its kind writes, so a value of the wrong type
(``modes=2.5``, ``lengths=[1.0]``) is a ConfigError.  Each choice list
lives with the code that implements it: ``dynamics.METHODS``,
``SubdiffBetaHat.VARIANTS`` and the graph builders of ``_GRAPHS``.

Parsing is strict: unknown sections or keys and malformed values are
reported with the offending line number.  Float keys must be finite, except
the ``float_inf`` keys ``dt``, ``tol`` and ``blowup_ceiling``, where ``inf``
means no bound.  ``[domain] normalization`` accepts only ``h``: the basis
is H-orthonormal, and the key is kept so that configs which spell it out
still parse.  ``serialize_config`` emits a canonical text whose re-parse
compares equal to the original config.  A profile string that is
malformed, unreadable, or not finite everywhere is a ConfigError when the
problem is built.
"""

from __future__ import annotations

import configparser
import math
import numbers
import re
from dataclasses import dataclass, field, fields

import numpy as np

from . import profiles, spectral
from .dynamics import METHODS, FieldCoeffs, Forcing, ModelParams, Schedule, prepare_initial
from .monotone import (
    NonlocalSign,
    ScalarSign,
    Stefan,
    SubdiffBetaHat,
    WeightedPower,
    ZeroGraph,
)
from .potentials import PotentialSpec

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "serialize_config", "build_problem"]


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


def _key(section, kind, default, key=None):
    """A ScenarioConfig field: its default, and its key in ``[section]``
    (the field name unless ``key`` is given), read and written as ``kind``."""
    return field(default=default, metadata={"section": section, "kind": kind, "key": key})


@dataclass(frozen=True)
class ScenarioConfig:
    """The field order is the canonical key order; every instance is validated."""

    dims: int = _key("domain", "int", 1)
    lengths: tuple = _key("domain", "lengths", (1.0,))
    modes: int = _key("domain", "int", 16)
    quadrature: int | None = _key("domain", "opt_int", None)
    normalization: str = _key("domain", "str", "h")
    ell: float = _key("model", "float", 1.0)
    alpha: float = _key("model", "float", 1.0)
    k: float = _key("model", "float", 1.0)
    nu: float = _key("model", "float", 1.0)
    gamma: float = _key("model", "float", 0.5)
    t_final: float = _key("model", "float", 0.5)
    potential: str = _key("potential", "str", "regular", "variant")
    c0: float = _key("potential", "float", 1.0)
    graph: str = _key("graph", "str", "zero", "variant")
    graph_alpha1: float = _key("graph", "float", 1.0, "alpha1")
    graph_alpha2: float = _key("graph", "float", 1.0, "alpha2")
    graph_q: float = _key("graph", "float", 0.5, "q")
    graph_weight: str = _key("graph", "str", "constant 1.0", "weight")
    eps: float = _key("regularization", "float", 0.1)
    eta0: str = _key("initial", "str", "zero")
    phi0: str = _key("initial", "str", "zero")
    eta_star: str = _key("initial", "str", "zero")
    forcing: str = _key("initial", "str", "zero")
    method: str = _key("integrator", "str", "imex")
    dt: float = _key("integrator", "float_inf", 1e-3)
    tol: float = _key("integrator", "float_inf", 1e-8)
    saves: int = _key("integrator", "int", 101)
    seed: int = _key("run", "int", 0)
    blowup_ceiling: float = _key("run", "float_inf", 1e8)

    def __post_init__(self):
        _validate(self)


# (section, key, ScenarioConfig field, kind), one row per field in field order
_KEYS = tuple((f.metadata["section"], f.metadata["key"] or f.name, f.name, f.metadata["kind"])
              for f in fields(ScenarioConfig))


def _parse_lengths(raw):
    vals = tuple(float(v) for v in raw.replace(",", " ").split())
    if not vals:
        raise ValueError("empty length list")
    return vals


def _format_float(v):
    return repr(float(v))


# per kind: text -> value (ValueError if malformed), and value -> text
_PARSE = {
    "int": int,
    "float": float,
    "float_inf": float,
    "str": str.strip,
    "opt_int": lambda raw: None if raw.strip().lower() in ("", "none", "auto") else int(raw),
    "lengths": _parse_lengths,
}
_FORMAT = {
    "int": str,
    "float": _format_float,
    "float_inf": _format_float,
    "str": str,
    "opt_int": lambda v: "auto" if v is None else str(v),
    "lengths": lambda v: " ".join(map(_format_float, v)),
}

# graph variant -> builder(cfg, basis, rng), rng the weight's generator
_GRAPHS = {
    "zero": lambda cfg, basis, rng: ZeroGraph(),
    "scalar_sign": lambda cfg, basis, rng: ScalarSign(),
    "nonlocal_sign": lambda cfg, basis, rng: NonlocalSign(),
    "stefan": lambda cfg, basis, rng: Stefan(cfg.graph_alpha1, cfg.graph_alpha2),
    "weighted_power": lambda cfg, basis, rng: WeightedPower(
        cfg.graph_q, profiles.profile_grid(basis, cfg.graph_weight, rng)),
}


def _line_of(text, section, key):
    """The line of ``key`` in ``[section]``, matched as configparser reads
    it: the text before the first ``=`` or ``:``, in lower case."""
    in_section = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            in_section = stripped[1:-1].strip() == section
        elif in_section and re.split("[=:]", stripped, maxsplit=1)[0].strip().lower() == key:
            return lineno
    return None


def parse_config(text):
    """Parse a scenario config from text; raise ConfigError with a line
    reference on any syntax, schema, or validation problem."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    rows = {(section, key): (name, kind) for section, key, name, kind in _KEYS}
    values = {}
    for section in parser.sections():
        if not any(sec == section for sec, _ in rows):
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in rows:
                line = _line_of(text, section, key)
                where = f"line {line}: " if line else ""
                raise ConfigError(f"{where}unknown key {key!r} in [{section}]")
            name, kind = rows[section, key]
            try:
                values[name] = _PARSE[kind](raw)
            except ValueError as exc:
                line = _line_of(text, section, key)
                where = f"line {line}" if line else f"[{section}] {key}"
                raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc

    return ScenarioConfig(**values)


def _check_numbers(cfg):
    """No float key may be NaN, and only the float_inf keys may be inf.
    A value that is not a number is left to :func:`_reads_back`."""
    for section, key, name, kind in _KEYS:
        if kind not in ("float", "float_inf", "lengths"):
            continue
        inf_ok = kind == "float_inf"
        for v in np.atleast_1d(getattr(cfg, name)):
            if isinstance(v, numbers.Real) and (math.isnan(v) or (math.isinf(v) and not inf_ok)):
                what = "a number or inf" if inf_ok else "a finite number"
                raise ConfigError(f"[{section}] {key} must be {what}, got {float(v)}")


def _reads_back(kind, value):
    """Whether ``value`` parses back as itself from the text it is written as."""
    try:
        return bool(_PARSE[kind](_FORMAT[kind](value)) == value)
    except (TypeError, ValueError):
        return False


def _validate(cfg):
    _check_numbers(cfg)
    for section, key, name, kind in _KEYS:
        value = getattr(cfg, name)
        if not _reads_back(kind, value):
            raise ConfigError(f"[{section}] {key} has the wrong type: "
                              f"{value!r} does not read back from its own text")
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
    if cfg.normalization != "h":
        raise ConfigError("normalization must be 'h': the basis is H-orthonormal")
    for name in ("ell", "alpha", "k", "nu"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"model {name} must be positive")
    if cfg.gamma < 0:
        raise ConfigError("model gamma must be nonnegative")
    if cfg.t_final <= 0:
        raise ConfigError("model t_final must be positive")
    if cfg.potential not in SubdiffBetaHat.VARIANTS:
        raise ConfigError(f"unknown potential variant {cfg.potential!r}")
    if cfg.graph not in _GRAPHS:
        raise ConfigError(f"unknown graph variant {cfg.graph!r}")
    if cfg.eps <= 0:
        raise ConfigError("regularization eps must be positive")
    if cfg.method not in METHODS:
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
    """Canonical text form, keys in field order; parse(serialize(cfg)) == cfg."""
    lines, current = [], None
    for section, key, name, kind in _KEYS:
        if section != current:
            lines.append(f"[{section}]" if current is None else f"\n[{section}]")
            current = section
        lines.append(f"{key} = {_FORMAT[kind](getattr(cfg, name))}")
    return "\n".join(lines) + "\n"


def build_problem(cfg):
    """Turn a config into (params, initial, schedule).

    Every random profile draws from its own generator, seeded by the run
    seed and the field's index: 1 to 4 for eta0, phi0, eta_star and the
    forcing, 5 for the graph's weight.  So a field is reproducible
    independently of the other fields and of the truncation level.
    """
    basis = spectral.build_basis(cfg.dims, cfg.lengths, cfg.modes, m_quad=cfg.quadrature)

    def rng_for(idx):
        return np.random.default_rng([cfg.seed, idx])

    try:
        potential = PotentialSpec(cfg.potential, cfg.c0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        graph = _GRAPHS[cfg.graph](cfg, basis, rng_for(5))
    except ValueError as exc:
        raise ConfigError(f"graph {cfg.graph}: {exc}") from exc
    if graph.growth_constant is None:
        raise ConfigError("the perturbation graph must carry a linear-growth bound")

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

    try:
        initial = prepare_initial(basis, eta0_grid, phi0_grid, potential, cfg.eps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    params = ModelParams(
        ell=cfg.ell, alpha=cfg.alpha, k=cfg.k, nu=cfg.nu, gamma=cfg.gamma,
        t_final=cfg.t_final, basis=basis,
        eta_star=FieldCoeffs(star), forcing=forcing,
        graph=graph, potential=potential, eps=cfg.eps,
        blowup_ceiling=cfg.blowup_ceiling)
    return params, initial, Schedule(method=cfg.method, dt=cfg.dt, tol=cfg.tol,
                                     n_saves=cfg.saves)
