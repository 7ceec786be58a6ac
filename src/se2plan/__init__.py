"""Whole-body SE(2) motion planning for arbitrary-polygon ground robots on
2D occupancy grids: topological candidates, dense SE(2) motion sequences,
split SE(2)/R^2 minimum-jerk trajectory optimization, and swept-volume
continuous collision certification.
"""

from .gridmap import (MalformedMapError, OccupancyGrid, dump_map, extract_obstacles,
                      inflate, is_visible, load_map, visibility)
from .minco import MincoSpline, Trajectory, construct, control_effort
from .optimize import (OptOutcome, Weights, r2_cost, r2_optimize, se2_cost,
                       se2_optimize, smoothing)
from .pipeline import PlanConfig, PlanResult, SpliceError, plan, splice
from .sequence import (MotionSequence, MotionState, SubProblem, extract_subproblems,
                       generate_sequence, safe_yaw, seg_adjust)
from .shape import (GeometryError, RobotKernel, RobotShape, build_kernel, inscribed_radius,
                    kernel_collides, parse_shape, rectangle, sdf_gradient_world)
from .sweep import CollisionReport, continuous_check, swept_boundary_samples, swept_sdf_batch
from .topo import (InfeasibleEndpointError, Se2Path, Se2Waypoint, build_roadmap,
                   dedup_paths, extract_paths, orientation_interp, push_away,
                   shortcut, uvd_equivalent)

__all__ = [
    "MalformedMapError", "OccupancyGrid", "dump_map", "extract_obstacles",
    "inflate", "is_visible", "load_map", "visibility",
    "MincoSpline", "Trajectory", "construct", "control_effort",
    "OptOutcome", "Weights", "r2_cost", "r2_optimize", "se2_cost",
    "se2_optimize", "smoothing",
    "PlanConfig", "PlanResult", "SpliceError", "plan", "splice",
    "MotionSequence", "MotionState", "SubProblem", "extract_subproblems",
    "generate_sequence", "safe_yaw", "seg_adjust",
    "GeometryError", "RobotKernel", "RobotShape", "build_kernel",
    "inscribed_radius", "kernel_collides", "parse_shape", "rectangle",
    "sdf_gradient_world",
    "CollisionReport", "continuous_check", "swept_boundary_samples",
    "swept_sdf_batch",
    "InfeasibleEndpointError", "Se2Path", "Se2Waypoint", "build_roadmap",
    "dedup_paths", "extract_paths", "orientation_interp", "push_away",
    "shortcut", "uvd_equivalent",
]

__version__ = "0.1.0"
