"""Constrained trajectory planning by consensus-split iterative LQR.

The package plans collision-free vehicle trajectories under kinematic
bicycle dynamics, box input limits, and elliptical keep-out regions. The
smooth tracking problem is handled by a Gauss-Newton iLQR engine; hard
constraints enter through an alternating-direction consensus loop whose
projection step is solved exactly per time stamp. A log-barrier constrained
iLQR baseline and a benchmark harness round out the toolkit.
"""

from .admm import IterationRecord, Problem, SolveReport, admm_solve
from .barrier import BarrierSettings, barrier_solve
from .constraints import ConstraintSet, InputBounds, Obstacle, project_timestep
from .costs import CostWeights, Reference, TrackingCost
from .errors import (
    BarrierDomainViolation,
    ConfigError,
    DegenerateProjection,
    DomainError,
    NonConvergence,
    PlannerError,
    RegularizationExhausted,
)
from .ilqr import Trajectory, rollout, total_cost
from .ilqr import solve as ilqr_solve
from .scenarios import ScenarioConfig, builtin_scenario, load_config, save_config
from .vehicle import BicycleModel, State, VehicleParams

__version__ = "0.1.0"

__all__ = [
    "BarrierDomainViolation",
    "BarrierSettings",
    "BicycleModel",
    "ConfigError",
    "ConstraintSet",
    "CostWeights",
    "DegenerateProjection",
    "DomainError",
    "InputBounds",
    "IterationRecord",
    "NonConvergence",
    "Obstacle",
    "PlannerError",
    "Problem",
    "Reference",
    "RegularizationExhausted",
    "ScenarioConfig",
    "SolveReport",
    "State",
    "TrackingCost",
    "Trajectory",
    "VehicleParams",
    "admm_solve",
    "barrier_solve",
    "builtin_scenario",
    "ilqr_solve",
    "load_config",
    "project_timestep",
    "rollout",
    "save_config",
    "total_cost",
]
