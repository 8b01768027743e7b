"""Walk-outside-spheres field solver and eigensolver for the fractional
Laplacian exterior-value problem on planar domains."""

__version__ = "0.1.0"

from .geometry import Ball, ConvexPolygon, box, unit_ball
from .mesh import (FieldVector, MeshHierarchy, MeshLevel, base_mesh_for,
                   build_hierarchy, square_ball_base)
from .problems import Problem, example1, example2, example3
from .sampling import StableParams, make_params, point_estimate, reg_inc_beta
from .mlmc import MlmcPlan, MlmcResult, allocate, choose_levels, run
from .eigen import EigenResult, smallest_eigenvalue

__all__ = [
    "Ball", "ConvexPolygon", "box", "unit_ball",
    "FieldVector", "MeshHierarchy", "MeshLevel", "base_mesh_for",
    "build_hierarchy", "square_ball_base",
    "Problem", "example1", "example2", "example3",
    "StableParams", "make_params", "point_estimate", "reg_inc_beta",
    "MlmcPlan", "MlmcResult", "allocate", "choose_levels", "run",
    "EigenResult", "smallest_eigenvalue",
    "__version__",
]
