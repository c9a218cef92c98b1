"""Kinematic-wave traffic flow on networks with departure-time choice.

Network loading via the variational (min-plus) evolution of cumulative
curves, per-driver cost evaluation, and solvers for globally optimal
and Nash-equilibrium departure patterns.
"""

from .curves import (CumulativeCurve, ExitComputation, lax_hopf_exit,
                     modulus_of_continuity, write_curve_csv)
from .errors import (AdmissibilityError, CapacityError, ConfigurationError,
                     DomainError, KinwaveError, LoadingError, ScenarioError)
from .flux import ArcDescriptor, FluxDescriptor
from .loading import DepartureProfile, LoadingResult, arrival_time_path, network_load
from .network import (CostFunction, GroupDescriptor, Network, Path, SolverBounds,
                      compute_bounds, enumerate_paths, max_travel_time,
                      validate_assumptions)
from .solvers import (EquilibriumReport, OptimumReport, cost_profile,
                      nash_gap, solve_global, solve_nash, total_cost)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError", "ArcDescriptor", "CapacityError", "ConfigurationError",
    "CostFunction", "CumulativeCurve", "DepartureProfile",
    "DomainError", "EquilibriumReport", "ExitComputation", "FluxDescriptor",
    "GroupDescriptor", "KinwaveError", "LoadingError", "LoadingResult", "Network",
    "OptimumReport", "Path", "ScenarioError", "SolverBounds", "arrival_time_path", "compute_bounds",
    "cost_profile", "enumerate_paths", "lax_hopf_exit",
    "max_travel_time", "modulus_of_continuity", "nash_gap", "network_load",
    "solve_global", "solve_nash", "total_cost",
    "validate_assumptions", "write_curve_csv",
]
