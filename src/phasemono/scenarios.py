"""Bundled scenarios.

Each scenario is a description and the fields in which it differs from the
ScenarioConfig defaults; `get_scenario` makes `ScenarioConfig(**overrides)`,
which is validated when it is made, as every ladder member and every
`--seed` or `--method` override is.  Its canonical text is
`serialize_config(get_scenario(name))`, which `scenarios show` prints and
`report.json` echoes.  The collection covers the verification harness: an
exact linear oracle, the three potential wells combined with pointwise and
nonlocal sign perturbations, a front-propagation case for truncation
ladders, and a contraction-ready case with matching coupling coefficients.
"""

from __future__ import annotations

import math

from .config import ConfigError, ScenarioConfig

__all__ = ["SCENARIOS", "scenario_names", "get_scenario"]


SCENARIOS = {
    "zero": (
        "all-zero data; the trajectory must vanish identically",
        dict(modes=8, alpha=0.5, t_final=0.2, graph="scalar_sign", saves=51),
    ),
    "heat_decay": (
        "decoupled single-mode heat decay with a closed-form solution",
        dict(lengths=(math.pi,), modes=4, gamma=0.0, t_final=1.0, eta0="cosine 1.0 1",
             method="rk45", dt=1e-2),
    ),
    "tanh_front": (
        "front-like order parameter in the quartic well with a pointwise sign perturbation",
        dict(modes=32, alpha=0.5, k=0.5, nu=0.05, t_final=0.25, graph="scalar_sign",
             eps=0.05, eta0="cosine 0.3 1", phi0="tanh 0.9 0.12", dt=2.5e-4),
    ),
    "regular_sign": (
        "quartic well plus pointwise sign graph, forced",
        dict(modes=24, alpha=0.6, k=0.8, nu=0.1, gamma=0.7, graph="scalar_sign", eps=0.05,
             eta0="cosine 0.5 2", phi0="cosine 0.8 1", eta_star="cosine 0.2 1",
             forcing="constant 0.3", dt=5e-4),
    ),
    "log_sign": (
        "logarithmic well plus pointwise sign graph",
        dict(modes=24, ell=0.8, alpha=0.5, k=0.6, nu=0.1, gamma=0.4, t_final=0.4,
             potential="logarithmic", c0=2.0, graph="scalar_sign", eps=0.05,
             eta0="cosine 0.4 1", phi0="cosine 0.7 1", forcing="constant 0.2", dt=5e-4),
    ),
    "obstacle_sign": (
        "obstacle well plus nonlocal Sign graph; the order parameter presses against |phi| = 1",
        dict(alpha=0.5, k=0.5, nu=0.08, t_final=0.3, potential="obstacle",
             graph="nonlocal_sign", eps=1e-2, eta0="cosine 0.5 1", phi0="cosine 0.8 1"),
    ),
    "stefan_power": (
        "quartic well with the enthalpy-type two-slope graph",
        dict(ell=0.9, alpha=0.4, k=0.7, nu=0.12, gamma=0.6, t_final=0.4, graph="stefan",
             graph_alpha1=1.2, graph_alpha2=0.8, eps=0.05, eta0="cosine 0.8 1",
             phi0="cosine 0.5 2", eta_star="cosine 0.1 1", forcing="constant 0.25",
             dt=5e-4),
    ),
    "contraction_base": (
        "matched coupling coefficients (alpha = ell) for continuous-dependence studies",
        dict(ell=0.8, alpha=0.8, k=0.6, nu=0.15, t_final=0.4, graph="scalar_sign",
             eta0="cosine 0.4 2", phi0="cosine 0.6 1", eta_star="cosine 0.3 1",
             forcing="constant 0.2", dt=5e-4),
    ),
}


def scenario_names():
    return sorted(SCENARIOS)


def get_scenario(name):
    try:
        overrides = SCENARIOS[name][1]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}") from None
    return ScenarioConfig(**overrides)
