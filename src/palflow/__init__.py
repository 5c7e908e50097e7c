"""Saddle-point computation for multi-block composite convex programs via
continuous-time primal-dual flows on the proximal augmented Lagrangian."""

__version__ = "0.1.0"

from . import (cli, diagnostics, distributed, examples, flow, linops, problem,
               prox)
from .flow import IntegratorConfig, Trajectory, integrate
from .problem import SaddleProblem, PrimalDualState

__all__ = [
    "cli", "diagnostics", "distributed", "examples", "flow", "linops",
    "problem", "prox", "IntegratorConfig", "Trajectory", "integrate",
    "SaddleProblem", "PrimalDualState", "__version__",
]
