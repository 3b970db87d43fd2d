"""Narrow-gap elliptic solver and gradient-bound verification suite.

Solves divergence-form elliptic systems between two nearly touching
boundary graphs, measures the 1/eps gradient blow-up between mismatched
Dirichlet traces (and its absence for matched traces), and checks the
interior energy and pointwise estimates that control the correction to the
leading-order interpolant profile.
"""

from .analysis import (AnalysisError, BoundReport, GradientField, RateFit,
                       SweepProblem, analyze_solution, correction_field,
                       energy, fit_rate, gradient, solve_epsilon,
                       sweep_and_fit, sweep_grid, sweep_member)
from .auxiliary import AuxiliaryEvaluator, BoundaryData
from .geometry import (GapProfile, GeometryError, NarrowRegion,
                       ValidationReport, validate_profile)
from .mesh_solver import (LinearSystem, MappedGrid, SolutionField,
                          SolverError, assemble, boundary_values,
                          quadrature_weights, solve_dirichlet, solve_system)
from .operators import (EllipticOperator, OperatorError, apply_operator_jets,
                        estimate_bounds, estimate_ellipticity, make_builtin)
from .polynomial import (ExpressionError, PolynomialField, RationalField,
                         parse_expression)
from .verification import (ConvergenceStudy, ManufacturedProblem,
                           convergence_study, fd_apply_operator,
                           manufactured_problem)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError", "AuxiliaryEvaluator", "BoundReport",
    "BoundaryData", "ConvergenceStudy", "EllipticOperator",
    "ExpressionError", "GapProfile", "GeometryError",
    "GradientField", "LinearSystem", "ManufacturedProblem",
    "MappedGrid", "NarrowRegion", "OperatorError", "PolynomialField",
    "RateFit", "RationalField", "SolutionField", "SolverError",
    "SweepProblem", "ValidationReport", "analyze_solution",
    "apply_operator_jets", "assemble",
    "convergence_study", "correction_field",
    "boundary_values", "energy", "estimate_bounds", "estimate_ellipticity",
    "fd_apply_operator", "fit_rate",
    "gradient",
    "make_builtin", "manufactured_problem",
    "parse_expression", "quadrature_weights",
    "solve_dirichlet", "solve_epsilon",
    "solve_system",
    "sweep_and_fit", "sweep_grid", "sweep_member",
    "validate_profile",
]
