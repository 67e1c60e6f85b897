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
    YosidaGraph,
    ZeroGraph,
    resolvent_oracle,
)
from .potentials import (  # noqa: F401
    PotentialSpec,
    envelope,
    logarithmic_potential,
    obstacle_potential,
    regular_potential,
)
from .spectral import SpectralBasis, build_basis, from_grid, norms, to_grid  # noqa: F401
from .dynamics import (  # noqa: F401
    BlowUpError,
    FieldCoeffs,
    Forcing,
    GalerkinState,
    InitialData,
    ModelParams,
    Schedule,
    SolutionTrajectory,
    StepFailure,
    assemble_rhs,
    mollify_forcing,
    prepare_initial,
    solve,
)
from .estimates import (  # noqa: F401
    ContractionData,
    contraction_check,
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
