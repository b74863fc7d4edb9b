"""Numerical toolkit for small-noise asymptotics of strongly damped
Langevin dynamics: trajectory simulation, path-space action functionals,
quasipotentials, exit statistics, and reaction-front geometry."""

import os

# One BLAS thread unless the caller set one: the linear algebra here is
# many tiny calls, which a second BLAS thread only slows.  This acts only
# if numpy is not imported yet, so it precedes every submodule import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

from .errors import ConfigError, NumericalError, StrongdampError
from .expr import ScalarExpr, eval_field, parse_expression
from .fields import (ProblemDefinition, ProblemError, ValidationReport,
                     load_preset, load_problem, validate_hypotheses)
from .sde import (NoisePath, SimParams, Trajectory, simulate_first_order,
                  simulate_inertial, stochastic_convolution)
from .action import (ControlSignal, DiscretePath, SingularSigmaError,
                     control_cost, controlled_skeleton, path_action,
                     segment_costs)
from .quasipotential import (BoundaryScan, MinActionResult,
                             check_action_equivalence, gradient_case_oracle,
                             quasipotential, quasipotential_boundary)
from .exit import (ExitHistogram, ExitScaling, ExitStats,
                   exit_location_histogram, exit_scaling)
from .front import (FrontContour, FrontSpeed, GridField, PathFrontResult,
                    extract_front, fit_front_speed,
                    front_field_constant, front_field_path,
                    front_field_prefix, g0_samples, riemannian_distance)
from .ldpcheck import (LaplaceReport, ScalingFit, controlled_convergence,
                       h_eps_scaling, laplace_check,
                       minimize_terminal_plus_action)
from .acceptance import CriterionResult, run_all

__all__ = [
    "ConfigError", "NumericalError", "ProblemError", "StrongdampError",
    "ScalarExpr", "eval_field", "parse_expression",
    "ProblemDefinition", "ValidationReport", "load_preset", "load_problem",
    "validate_hypotheses",
    "NoisePath", "SimParams", "Trajectory", "simulate_first_order",
    "simulate_inertial", "stochastic_convolution",
    "ControlSignal", "DiscretePath", "SingularSigmaError",
    "control_cost", "controlled_skeleton", "path_action", "segment_costs",
    "BoundaryScan", "MinActionResult", "check_action_equivalence",
    "gradient_case_oracle", "quasipotential", "quasipotential_boundary",
    "ExitHistogram", "ExitScaling", "ExitStats", "exit_location_histogram",
    "exit_scaling",
    "FrontContour", "FrontSpeed", "GridField", "PathFrontResult",
    "extract_front", "fit_front_speed",
    "front_field_constant", "front_field_path", "front_field_prefix",
    "g0_samples", "riemannian_distance",
    "LaplaceReport", "ScalingFit", "controlled_convergence", "h_eps_scaling",
    "laplace_check", "minimize_terminal_plus_action",
    "CriterionResult", "run_all",
    "__version__",
]
