"""Saddle-point computation for multi-block composite convex programs via
continuous-time primal-dual flows on the proximal augmented Lagrangian."""

__version__ = "0.1.0"

import os

# BLAS reads its thread count when numpy is first imported: apply
# PALFLOW_THREADS before any submodule imports numpy
if os.environ.get("PALFLOW_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["PALFLOW_THREADS"])

from . import (cli, diagnostics, distributed, examples, flow, linops, problem,
               prox)
from .flow import IntegratorConfig, Trajectory, integrate
from .problem import SaddleProblem, PrimalDualState

__all__ = [
    "cli", "diagnostics", "distributed", "examples", "flow", "linops",
    "problem", "prox", "IntegratorConfig", "Trajectory", "integrate",
    "SaddleProblem", "PrimalDualState", "__version__",
]
