"""Bundled scenario configurations.

Each scenario is a complete config text; `get_scenario` parses it into a
ScenarioConfig.  The collection covers the verification harness: an exact
linear oracle, the three potential wells combined with pointwise and
nonlocal sign perturbations, a front-propagation case for truncation
ladders, and a contraction-ready case with matching coupling coefficients.
"""

from __future__ import annotations

from .config import ConfigError, parse_config

__all__ = ["SCENARIOS", "scenario_names", "get_scenario", "scenario_text"]


_PI = "3.141592653589793"

SCENARIOS = {
    "zero": (
        "all-zero data; the trajectory must vanish identically",
        f"""
[domain]
dims = 1
lengths = 1.0
modes = 8

[model]
ell = 1.0
alpha = 0.5
k = 1.0
nu = 1.0
gamma = 0.5
t_final = 0.2

[potential]
variant = regular

[graph]
variant = scalar_sign

[regularization]
eps = 0.1

[initial]
eta0 = zero
phi0 = zero
eta_star = zero
forcing = zero

[integrator]
method = imex
dt = 1e-3
tol = 1e-8
saves = 51

[run]
seed = 0
""",
    ),
    "heat_decay": (
        "decoupled single-mode heat decay with a closed-form solution",
        f"""
[domain]
dims = 1
lengths = {_PI}
modes = 4

[model]
ell = 1.0
alpha = 1.0
k = 1.0
nu = 1.0
gamma = 0.0
t_final = 1.0

[potential]
variant = regular

[graph]
variant = zero

[regularization]
eps = 0.1

[initial]
eta0 = cosine 1.0 1
phi0 = zero
eta_star = zero
forcing = zero

[integrator]
method = rk45
dt = 1e-2
tol = 1e-8
saves = 101

[run]
seed = 0
""",
    ),
    "tanh_front": (
        "front-like order parameter in the quartic well with a pointwise sign perturbation",
        """
[domain]
dims = 1
lengths = 1.0
modes = 32

[model]
ell = 1.0
alpha = 0.5
k = 0.5
nu = 0.05
gamma = 0.5
t_final = 0.25

[potential]
variant = regular

[graph]
variant = scalar_sign

[regularization]
eps = 0.05

[initial]
eta0 = cosine 0.3 1
phi0 = tanh 0.9 0.12
eta_star = zero
forcing = zero

[integrator]
method = imex
dt = 2.5e-4
tol = 1e-8
saves = 101

[run]
seed = 0
""",
    ),
    "regular_sign": (
        "quartic well plus pointwise sign graph, forced",
        """
[domain]
dims = 1
lengths = 1.0
modes = 24

[model]
ell = 1.0
alpha = 0.6
k = 0.8
nu = 0.1
gamma = 0.7
t_final = 0.5

[potential]
variant = regular

[graph]
variant = scalar_sign

[regularization]
eps = 0.05

[initial]
eta0 = cosine 0.5 2
phi0 = cosine 0.8 1
eta_star = cosine 0.2 1
forcing = constant 0.3

[integrator]
method = imex
dt = 5e-4
tol = 1e-8
saves = 101

[run]
seed = 0
""",
    ),
    "log_sign": (
        "logarithmic well plus pointwise sign graph",
        """
[domain]
dims = 1
lengths = 1.0
modes = 24

[model]
ell = 0.8
alpha = 0.5
k = 0.6
nu = 0.1
gamma = 0.4
t_final = 0.4

[potential]
variant = logarithmic
c0 = 2.0

[graph]
variant = scalar_sign

[regularization]
eps = 0.05

[initial]
eta0 = cosine 0.4 1
phi0 = cosine 0.7 1
eta_star = zero
forcing = constant 0.2

[integrator]
method = imex
dt = 5e-4
tol = 1e-8
saves = 101

[run]
seed = 0
""",
    ),
    "obstacle_sign": (
        "obstacle well plus nonlocal Sign graph; the order parameter presses against |phi| = 1",
        """
[domain]
dims = 1
lengths = 1.0
modes = 16

[model]
ell = 1.0
alpha = 0.5
k = 0.5
nu = 0.08
gamma = 0.5
t_final = 0.3

[potential]
variant = obstacle
c0 = 1.0

[graph]
variant = nonlocal_sign

[regularization]
eps = 1e-2

[initial]
eta0 = cosine 0.5 1
phi0 = cosine 0.8 1
eta_star = zero
forcing = zero

[integrator]
method = imex
dt = 1e-3
tol = 1e-8
saves = 101

[run]
seed = 0
""",
    ),
    "stefan_power": (
        "quartic well with the enthalpy-type two-slope graph",
        """
[domain]
dims = 1
lengths = 1.0
modes = 16

[model]
ell = 0.9
alpha = 0.4
k = 0.7
nu = 0.12
gamma = 0.6
t_final = 0.4

[potential]
variant = regular

[graph]
variant = stefan
alpha1 = 1.2
alpha2 = 0.8

[regularization]
eps = 0.05

[initial]
eta0 = cosine 0.8 1
phi0 = cosine 0.5 2
eta_star = cosine 0.1 1
forcing = constant 0.25

[integrator]
method = imex
dt = 5e-4
tol = 1e-8
saves = 101

[run]
seed = 0
""",
    ),
    "contraction_base": (
        "matched coupling coefficients (alpha = ell) for continuous-dependence studies",
        """
[domain]
dims = 1
lengths = 1.0
modes = 16

[model]
ell = 0.8
alpha = 0.8
k = 0.6
nu = 0.15
gamma = 0.5
t_final = 0.4

[potential]
variant = regular

[graph]
variant = scalar_sign

[regularization]
eps = 0.1

[initial]
eta0 = cosine 0.4 2
phi0 = cosine 0.6 1
eta_star = cosine 0.3 1
forcing = constant 0.2

[integrator]
method = imex
dt = 5e-4
tol = 1e-8
saves = 101

[run]
seed = 0
""",
    ),
}


def scenario_names():
    return sorted(SCENARIOS)


def scenario_text(name):
    try:
        return SCENARIOS[name][1].lstrip("\n")
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}") from None


def get_scenario(name):
    return parse_config(scenario_text(name))
