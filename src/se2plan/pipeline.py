"""Planner orchestration: topology candidates, sequence generation,
optimization of each candidate's sub-problems in sequence order with
discard-on-failure, per-piece certification, splicing, and
minimum-control-effort selection.

Each sub-trajectory is certified where it is solved: an SE(2) solve returns
the verdict of its own zero-margin continuous check, and an R^2 solve is
checked here and, on a hit, re-solved in SE(2).  A spliced candidate is clear
exactly when every piece is, since splicing only concatenates the pieces and
the sweep of a concatenation is the union of the pieces' sweeps.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import minco
from .gridmap import OccupancyGrid, inflate
from .minco import Trajectory, basis_many
from .optimize import DegenerateInputError, Weights, r2_optimize, se2_optimize
from .sequence import extract_subproblems, generate_sequence
from .shape import RobotShape, build_kernel, inscribed_radius, kernel_collides
from .sweep import CollisionReport, continuous_check
from .topo import (InfeasibleEndpointError, build_roadmap, dedup_paths, extract_paths,
                   shortcut, simplify_path)


@dataclass(frozen=True)
class PlanConfig:
    """The planner's settings: roadmap size and connection radius, how many
    roadmap paths are extracted and how many distinct ones become candidates,
    the orientation bank of the collision kernel, the SE(2) and R^2 solver
    iteration budgets, the cost weights, and the roadmap sampling seed."""

    roadmap_budget: int = 400
    connection_radius: float | None = None  # defaults to 25% of map diagonal
    max_paths: int = 30
    max_candidates: int = 4
    n_orientations: int = 18
    se2_budget: int = 300
    r2_budget: int = 100
    weights: Weights = field(default_factory=Weights)
    seed: int = 0

    def __post_init__(self):
        counts = ("roadmap_budget", "max_paths", "max_candidates", "n_orientations",
                  "se2_budget", "r2_budget")
        for name in counts + ("seed",):
            value = getattr(self, name)
            # bool is an Integral, but True is no count
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.connection_radius is not None and not self.connection_radius > 0:
            raise ValueError("connection_radius must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class PlanResult:
    status: str  # "success" | "no-path" | "all-candidates-failed"
    trajectory: Trajectory | None = None
    provenance: list = field(default_factory=list)  # per sub-trajectory: "SE2" | "R2" | "R2-reoptimized"
    piece_counts: list = field(default_factory=list)  # spliced pieces per sub-trajectory
    metrics: dict = field(default_factory=dict)
    certificate: CollisionReport | None = None
    failures: list = field(default_factory=list)
    survivor_provenance: list = field(default_factory=list)  # kinds list per surviving candidate


class SpliceError(ValueError):
    """Raised when adjacent pieces do not share a junction state."""


def splice(pieces: list[Trajectory]) -> Trajectory:
    """Concatenate (x, y, yaw) sub-trajectories into one.

    Adjacent sub-problems share their junction row of the motion sequence's
    continuous yaw column, and every sub-problem starts and ends at rest, so
    adjacent sub-trajectories share their junction state.  At each junction
    position (yaw included), velocity and acceleration are checked to agree
    within 1e-6, not blended; a yaw a whole turn off is a mismatch too.
    """
    if not pieces:
        raise SpliceError("nothing to splice")
    if {p.dim for p in pieces} != {3}:
        raise SpliceError("pieces must all be (x, y, yaw) trajectories")
    for k, (a, b) in enumerate(zip(pieces, pieces[1:])):
        end = basis_many(a.durations[-1], np.arange(3)) @ a.coeffs[-1]
        start = basis_many(0.0, np.arange(3)) @ b.coeffs[0]
        if np.max(np.abs(end - start)) > 1e-6:
            raise SpliceError(f"junction {k} state mismatch (p, v, a): {end} vs {start}")
    return Trajectory(np.concatenate([p.durations for p in pieces]),
                      np.concatenate([p.coeffs for p in pieces]))


def _some_orientation_free(kernel, grid, p) -> bool:
    """True iff the kernel is free at p for at least one orientation."""
    return any(not kernel_collides(kernel, grid, p, k) for k in range(kernel.n_orientations))


def _kind_lengths(trajs: list[Trajectory], kinds: list[str]):
    """(R^2 length, SE(2) length) of sub-trajectories; an R2-reoptimized sub
    was solved by the SE(2) optimizer, so its length counts as SE(2)."""
    len_r2 = len_se2 = 0.0
    for traj, kind in zip(trajs, kinds):
        length = traj.arc_length()
        if kind == "R2":
            len_r2 += length
        else:
            len_se2 += length
    return len_r2, len_se2


def plan(grid: OccupancyGrid, shape: RobotShape, start_pose, goal_pose,
         config: PlanConfig | None = None, clock=time.perf_counter) -> PlanResult:
    """Full coarse-to-fine plan from a start pose to a goal pose.

    start_pose / goal_pose are finite (x, y, yaw) triples; anything else
    raises ValueError.  Positions less than 1e-9 m apart return "no-path".
    The trajectory reaches the requested positions; the planner picks the
    headings along it, the start and goal headings included, so the
    requested yaws are not honoured.  The returned certificate is clear
    whenever status is "success".
    """
    if config is None:
        config = PlanConfig()
    start_pose = np.asarray(start_pose, dtype=float)
    goal_pose = np.asarray(goal_pose, dtype=float)
    for name, pose in (("start_pose", start_pose), ("goal_pose", goal_pose)):
        if pose.shape != (3,) or not np.all(np.isfinite(pose)):
            raise ValueError(f"{name} must be 3 finite numbers (x, y, yaw), got {pose}")
    t_begin = clock()
    weights = config.weights
    # each entry is a running total until finish() adds status, time.total
    # and len.total
    result = PlanResult(status="no-path", metrics={
        "time.path_refine": 0.0, "time.r2": 0.0, "time.se2": 0.0, "time.certify": 0.0,
        "len.r2": 0.0, "len.se2": 0.0, "candidates.tried": 0, "candidates.survived": 0})
    metrics = result.metrics

    def timed(key, fn, *args, **kwargs):
        """fn(*args, **kwargs), its clock time added to metrics[key]."""
        t1 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            metrics[key] += clock() - t1

    def finish():
        metrics["status"] = result.status
        metrics["time.total"] = clock() - t_begin
        metrics["len.total"] = metrics["len.r2"] + metrics["len.se2"]
        return result

    # the distance below which _sub_geometry calls a sub-problem degenerate
    if np.linalg.norm(goal_pose[:2] - start_pose[:2]) < 1e-9:
        result.failures.append("start and goal positions coincide")
        return finish()
    r_in = inscribed_radius(shape)
    kernel = build_kernel(shape, config.n_orientations, grid.resolution)
    for name, pose in (("start", start_pose), ("goal", goal_pose)):
        if not _some_orientation_free(kernel, grid, pose[:2]):
            result.failures.append(f"{name} pose collides at every orientation")
            return finish()

    t0 = clock()
    inflated = inflate(grid, r_in)
    rng = np.random.default_rng(config.seed)
    try:
        roadmap = build_roadmap(inflated, start_pose[:2], goal_pose[:2],
                                budget=config.roadmap_budget, rng=rng,
                                connection_radius=config.connection_radius)
    except InfeasibleEndpointError as e:
        result.failures.append(str(e))
        metrics["time.path_refine"] = clock() - t0
        return finish()
    raw_paths = extract_paths(roadmap, inflated, max_paths=config.max_paths)
    if not raw_paths:
        result.failures.append("no roadmap path between start and goal")
        metrics["time.path_refine"] = clock() - t0
        return finish()
    taut = [simplify_path(p, inflated) for p in raw_paths]
    candidates = dedup_paths(taut, inflated, config.max_candidates)
    sequences = []  # (candidate index, sequence)
    for i, cand in enumerate(candidates):
        try:
            waypoints = shortcut(cand, inflated)
            sequences.append((i, generate_sequence(waypoints, kernel, grid)))
        except ValueError as e:
            result.failures.append(f"candidate {i}: front-end failure: {e}")
    metrics["time.path_refine"] = clock() - t0
    metrics["candidates.tried"] = len(sequences)

    survivors = []
    for cand_id, seq in sequences:
        subs = extract_subproblems(seq, shape, grid, weights.d_safe)
        kinds, trajs = [], []
        failed = None
        # sub-problems in sequence order; a single failure discards the
        # candidate.  An SE(2) solve reports its own zero-margin check; an
        # R^2 one is checked here and re-solved in SE(2) on a hit
        for sub in subs:
            kind = sub.kind
            try:
                if kind == "R2":
                    out = timed("time.r2", r2_optimize, sub, weights, budget=config.r2_budget)
                    if not timed("time.certify", continuous_check, out.trajectory, shape,
                                 grid).clear:
                        kind = "R2-reoptimized"
                if kind != "R2":
                    out = timed("time.se2", se2_optimize, sub, weights, shape, grid,
                                budget=config.se2_budget)
            except DegenerateInputError as e:
                failed = f"degenerate {sub.kind} sub-problem: {e}"
                break
            if kind != "R2" and not out.collision_free:
                failed = ("SE2 sub-problem not collision-free" if kind == "SE2"
                          else "R2 piece re-optimization failed")
                break
            kinds.append(kind)
            trajs.append(out.trajectory)
        if failed:
            result.failures.append(f"candidate {cand_id}: {failed}")
            continue
        try:
            spliced = splice(trajs)
        except SpliceError as e:
            result.failures.append(f"candidate {cand_id}: splice failure: {e}")
            continue
        effort = minco.control_effort(spliced)
        survivors.append((effort, cand_id, spliced, kinds, trajs))

    metrics["candidates.survived"] = len(survivors)
    if not survivors:
        result.status = "all-candidates-failed" if sequences else "no-path"
        return finish()
    survivors.sort(key=lambda s: (s[0], s[1]))
    _, _, traj, kinds, trajs = survivors[0]
    result.status = "success"
    result.trajectory = traj
    result.provenance = kinds
    result.piece_counts = [t.n_pieces for t in trajs]
    # the sweep of a concatenation is the union of its pieces' sweeps
    result.certificate = CollisionReport("clear")
    result.survivor_provenance = [list(s[3]) for s in survivors]
    metrics["len.r2"], metrics["len.se2"] = _kind_lengths(trajs, kinds)
    return finish()
