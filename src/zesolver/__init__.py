"""Exact solver for two-component zone electrophoresis.

Builds the complete evolution of a two-point discontinuous initial
condition for the diffusionless electrophoresis system: initial breakup
into shocks and rarefaction waves, every discontinuity interaction, the
hodograph (Riemann-Green) solution of the fan-interaction region, explicit
profiles on isochrones, a general piecewise-data Cauchy marcher, and an
independent finite-volume cross-check.
"""

from .errors import SolverError
from .hodograph import ImplicitSolution, riemann_green
from .invariants import (
    ConcentrationPair,
    InvariantPair,
    MixtureParams,
    concentrations_to_invariants,
    invariants_to_concentrations,
    lambda_k,
    rh_residual,
    validate_params,
)
from .isochrone import Profile, ScenarioSolver, profile_at
from .wavefield import Timeline, build_timeline

__all__ = [
    "ConcentrationPair",
    "ImplicitSolution",
    "InvariantPair",
    "MixtureParams",
    "Profile",
    "ScenarioSolver",
    "SolverError",
    "Timeline",
    "build_timeline",
    "concentrations_to_invariants",
    "invariants_to_concentrations",
    "lambda_k",
    "profile_at",
    "rh_residual",
    "riemann_green",
    "validate_params",
]

__version__ = "0.1.0"
