"""Kernel interpolation lab.

Scattered-data interpolation with Matern, Gaussian, and interval Sobolev
kernels, nested quasi-uniform designs, and the diagnostics that measure how
interpolation behaves on and beyond the native space: Lebesgue constants,
native-norm growth, Lagrange-function decay, and error convergence.
"""

from .geometry import (
    Box,
    NestedDesign,
    PointSet,
    fill_distance_grid,
    fill_distance_interval,
    generate_candidates,
    geometric_greedy,
    mesh_ratio,
    nested_equispaced_design,
    equispaced_interval,
    sampling_condition,
    separation_distance,
)
from .interpolation import (
    Factorization,
    FactorizationError,
    Interpolant,
    evaluate,
    factorize,
    fit,
    lagrange,
    lagrange_coefficients,
    native_norm,
)
from .kernels import (
    DomainError,
    DuplicateNodesError,
    GramMatrix,
    Kernel,
    assemble_gram,
    eval,
    gaussian,
    interval_sobolev,
    kernel_matrix,
    matern,
)
from .diagnostics import (
    DecayFit,
    DiagnosticsReport,
    EvalGrid,
    decay_profile,
    error_slopes,
    l2_error,
    lebesgue_constant,
    lebesgue_function,
    measure_levels,
    sup_error,
)
from .targets import Target, make_target

__version__ = "0.1.0"
