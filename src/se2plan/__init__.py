"""Whole-body SE(2) motion planning for arbitrary-polygon ground robots on
2D occupancy grids: topological candidates, dense SE(2) motion sequences,
split SE(2)/R^2 minimum-jerk trajectory optimization, and swept-volume
continuous collision certification.
"""

from .gridmap import (MalformedMapError, OccupancyGrid, dump_map, extract_obstacles,
                      inflate, is_visible, load_map)
from .minco import MincoSpline, Trajectory, construct, control_effort
from .optimize import OptOutcome, Weights, r2_cost, r2_optimize, se2_cost, se2_optimize
from .pipeline import PlanConfig, PlanResult, SpliceError, plan, splice
from .sequence import (MotionSequence, SubProblem, extract_subproblems, generate_sequence,
                       safe_yaw)
from .shape import (GeometryError, RobotKernel, RobotShape, build_kernel, inscribed_radius,
                    kernel_collides, parse_shape, rectangle)
from .sweep import CollisionReport, continuous_check, swept_boundary_samples, swept_sdf_batch
from .topo import (InfeasibleEndpointError, build_roadmap, dedup_paths, extract_paths,
                   shortcut, uvd_equivalent)

__all__ = [
    "MalformedMapError", "OccupancyGrid", "dump_map", "extract_obstacles",
    "inflate", "is_visible", "load_map",
    "MincoSpline", "Trajectory", "construct", "control_effort",
    "OptOutcome", "Weights", "r2_cost", "r2_optimize", "se2_cost",
    "se2_optimize",
    "PlanConfig", "PlanResult", "SpliceError", "plan", "splice",
    "MotionSequence", "SubProblem", "extract_subproblems", "generate_sequence",
    "safe_yaw",
    "GeometryError", "RobotKernel", "RobotShape", "build_kernel",
    "inscribed_radius", "kernel_collides", "parse_shape", "rectangle",
    "CollisionReport", "continuous_check", "swept_boundary_samples",
    "swept_sdf_batch",
    "InfeasibleEndpointError", "build_roadmap", "dedup_paths", "extract_paths",
    "shortcut", "uvd_equivalent",
]

__version__ = "0.1.0"
