"""Spectral Galerkin simulator for a Caginalp-type phase-field system
perturbed by a maximal monotone graph, with verification harnesses for the
regularization properties, the energy estimates, truncation/regularization
convergence, and the continuous-dependence inequality."""

__version__ = "0.1.0"

from .monotone import (  # noqa: F401
    DomainError,
    MonotoneGraph,
    NonlocalSign,
    ResolventError,
    ScalarSign,
    Stefan,
    SubdiffBetaHat,
    WeightedPower,
    ZeroGraph,
    resolvent_oracle,
)
from .potentials import PotentialSpec, envelope  # noqa: F401
from .spectral import SpectralBasis, build_basis, from_grid, to_grid  # noqa: F401
from .dynamics import (  # noqa: F401
    BlowUpError,
    FieldCoeffs,
    Forcing,
    InitialData,
    ModelParams,
    Schedule,
    SolutionTrajectory,
    StepFailure,
    prepare_initial,
    solve,
)
from .estimates import (  # noqa: F401
    contraction_sweep,
    energy_monitor,
    first_estimate_constants,
    galerkin_convergence,
    gronwall_bound,
    stability_constants,
    yosida_convergence,
)
from .config import ScenarioConfig, build_problem, parse_config, serialize_config  # noqa: F401
from .scenarios import get_scenario, scenario_names  # noqa: F401
