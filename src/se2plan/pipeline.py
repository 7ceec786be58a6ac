"""Planner orchestration: topology candidates, sequence generation,
SE(2)-first optimization with discard-on-failure, R^2 fill-in, splicing,
whole-trajectory certification, and minimum-control-effort selection.
"""

from __future__ import annotations

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
        for name in ("roadmap_budget", "max_paths", "max_candidates", "n_orientations",
                     "se2_budget", "r2_budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


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
    """Concatenate sub-trajectories into one.

    Every sub-problem starts and ends at rest, so adjacent sub-trajectories
    already share their junction state; position, velocity and acceleration
    are checked to agree within 1e-6 at each junction, not blended.
    """
    if not pieces:
        raise SpliceError("nothing to splice")
    if len({p.dim for p in pieces}) != 1:
        raise SpliceError("piece dimensions differ")
    for k, (a, b) in enumerate(zip(pieces, pieces[1:])):
        end = basis_many(a.durations[-1], np.arange(3)) @ a.coeffs[-1]
        start = basis_many(0.0, np.arange(3)) @ b.coeffs[0]
        if np.max(np.abs(end - start)) > 1e-6:
            raise SpliceError(f"junction {k} state mismatch (p, v, a): {end} vs {start}")
    return Trajectory(np.concatenate([p.durations for p in pieces]),
                      np.concatenate([p.coeffs for p in pieces]))


def _align_yaw(trajs: list[Trajectory]) -> list[Trajectory]:
    """Shift each sub-trajectory's yaw channel by a multiple of 2*pi so that
    junction yaws are numerically continuous (per-sub unwrapping can differ
    by full turns across a shared junction)."""
    out = trajs[:1]
    for tr in trajs[1:]:
        prev = out[-1]
        end_yaw = float(prev.eval(prev.total_duration, 0)[2])
        start_yaw = float(tr.eval(0.0, 0)[2])
        turns = round((end_yaw - start_yaw) / (2 * np.pi))
        if turns == 0:
            out.append(tr)
            continue
        coeffs = np.array(tr.coeffs).copy()
        coeffs[:, 0, 2] += 2 * np.pi * turns
        out.append(Trajectory(np.array(tr.durations).copy(), coeffs))
    return out


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


def _metrics(status: str, t_total: float, t_refine: float, t_r2: float, t_se2: float,
             t_certify: float, tried: int, survived: int, len_r2: float = 0.0,
             len_se2: float = 0.0) -> dict:
    return {
        "status": status,
        "time.path_refine": t_refine,
        "time.r2": t_r2,
        "time.se2": t_se2,
        "time.certify": t_certify,
        "time.total": t_total,
        "len.r2": len_r2,
        "len.se2": len_se2,
        "len.total": len_r2 + len_se2,
        "candidates.tried": tried,
        "candidates.survived": survived,
    }


def plan(grid: OccupancyGrid, shape: RobotShape, start_pose, goal_pose,
         config: PlanConfig | None = None, clock=time.perf_counter) -> PlanResult:
    """Full coarse-to-fine plan from a start pose to a goal pose.

    start_pose / goal_pose are (x, y, yaw).  The trajectory reaches the
    requested positions; the planner picks the headings along it, the start
    and goal headings included, so the requested yaws are not honoured.  The
    returned certificate is clear whenever status is "success".
    """
    if config is None:
        config = PlanConfig()
    t_begin = clock()
    weights = config.weights
    result = PlanResult(status="no-path")

    def finish(t_refine=0.0, t_r2=0.0, t_se2=0.0, t_certify=0.0, tried=0, survived=0,
               len_r2=0.0, len_se2=0.0):
        result.metrics = _metrics(result.status, clock() - t_begin, t_refine, t_r2,
                                  t_se2, t_certify, tried, survived, len_r2, len_se2)
        return result

    r_in = inscribed_radius(shape)
    kernel = build_kernel(shape, config.n_orientations, grid.resolution)
    start_pose = np.asarray(start_pose, dtype=float)
    goal_pose = np.asarray(goal_pose, dtype=float)
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
        return finish(t_refine=clock() - t0)
    raw_paths = extract_paths(roadmap, max_paths=config.max_paths)
    if not raw_paths:
        result.failures.append("no roadmap path between start and goal")
        return finish(t_refine=clock() - t0)
    taut = [simplify_path(p, inflated) for p in raw_paths]
    candidates = dedup_paths(taut, inflated)[: config.max_candidates]
    sequences = []
    for i, cand in enumerate(candidates):
        try:
            se2_path = shortcut(cand, shape, grid, inflated=inflated)
            seq = generate_sequence(se2_path, shape, kernel, grid, source_path_id=i)
            sequences.append(seq)
        except ValueError as e:
            result.failures.append(f"candidate {i}: front-end failure: {e}")
    t_refine = clock() - t0

    time_se2 = 0.0
    time_r2 = 0.0
    time_certify = 0.0

    def certify(traj):
        nonlocal time_certify
        t1 = clock()
        report = continuous_check(traj, shape, grid, margin=0.0)
        time_certify += clock() - t1
        return report

    survivors = []
    occupied = grid.occupied_centers()

    def good_junction(state):
        # kernel checks are optimistic by up to half a cell; a slice boundary
        # frozen inside a wall would make its SE(2) slice unsolvable
        if occupied.shape[0] == 0:
            return True
        d = occupied - state.position
        near = occupied[np.einsum("ij,ij->i", d, d) < (shape.circumradius + weights.d_safe) ** 2]
        if near.shape[0] == 0:
            return True
        values, _ = shape.sdf_at_pose(near, state.position, state.yaw)
        return float(np.min(values)) >= weights.d_safe

    for seq in sequences:
        # subs come in sequence order; kinds and trajs are indexed like them
        subs = extract_subproblems(seq, good_junction=good_junction)
        kinds = [sub.kind for sub in subs]
        trajs = [None] * len(subs)
        failed = None
        # SE(2) sub-problems first (stable sort); a single failure discards
        # the candidate
        for i, sub in sorted(enumerate(subs), key=lambda e: e[1].kind != "SE2"):
            t1 = clock()
            out = None
            try:
                if sub.kind == "SE2":
                    out = se2_optimize(sub, weights, shape, grid, budget=config.se2_budget)
                else:
                    out = r2_optimize(sub, weights, budget=config.r2_budget)
            except DegenerateInputError as e:
                failed = f"candidate {seq.source_path_id}: degenerate {sub.kind} sub-problem: {e}"
            finally:
                dt = clock() - t1
                if sub.kind == "SE2":
                    time_se2 += dt
                else:
                    time_r2 += dt
            if failed:
                break
            if sub.kind == "SE2" and not out.collision_free:
                failed = f"candidate {seq.source_path_id}: SE2 sub-problem not collision-free"
                break
            trajs[i] = out.trajectory
        if failed:
            result.failures.append(failed)
            continue
        trajs = _align_yaw(trajs)
        try:
            spliced = splice(trajs)
        except SpliceError as e:
            result.failures.append(f"candidate {seq.source_path_id}: splice failure: {e}")
            continue
        report = certify(spliced)
        err = None
        if not report.clear:
            t1 = clock()
            spliced, trajs, kinds, err = _repair(subs, trajs, kinds, report, weights, shape,
                                                 grid, config)
            time_se2 += clock() - t1  # repair solves are SE(2) optimization
            if not err and not (report := certify(spliced)).clear:
                err = "still unsafe after one re-optimization round"
        if err:
            result.failures.append(f"candidate {seq.source_path_id}: {err}")
            continue
        effort = minco.control_effort(spliced)
        survivors.append((effort, seq.source_path_id, spliced, kinds, trajs, report))

    if not survivors:
        result.status = "all-candidates-failed" if sequences else "no-path"
        return finish(t_refine, time_r2, time_se2, time_certify, tried=len(sequences))
    survivors.sort(key=lambda s: (s[0], s[1]))
    _, _, traj, kinds, trajs, report = survivors[0]
    result.status = "success"
    result.trajectory = traj
    result.provenance = kinds
    result.piece_counts = [t.n_pieces for t in trajs]
    result.certificate = report
    result.survivor_provenance = [list(s[3]) for s in survivors]
    len_r2, len_se2 = _kind_lengths(trajs, kinds)
    return finish(t_refine, time_r2, time_se2, time_certify, tried=len(sequences),
                  survived=len(survivors), len_r2=len_r2, len_se2=len_se2)


def _repair(subs, trajs, kinds, report, weights, shape, grid, config):
    """One repair round for a failed certificate: a hit marks every sub whose
    time span (cumulative durations of `trajs`) its interval touches; unsafe
    R2 subs are re-optimized in SE(2) and re-spliced, an unsafe SE2 sub fails
    the candidate.  Returns (spliced, trajs, kinds, None) or (None, ..., error)."""
    edges = np.concatenate([[0.0], np.cumsum([t.total_duration for t in trajs])])
    hits = np.array([interval for interval, _, _ in report.hits]).reshape(-1, 2)
    touched = (hits[:, :1] <= edges[1:] + 1e-9) & (hits[:, 1:] >= edges[:-1] - 1e-9)
    trajs, kinds = list(trajs), list(kinds)
    for i in np.nonzero(np.any(touched, axis=0))[0]:
        if subs[i].kind == "SE2":
            return None, trajs, kinds, "SE2-originated piece unsafe after splice"
        try:
            out = se2_optimize(subs[i], weights, shape, grid, budget=config.se2_budget)
        except DegenerateInputError as e:
            return None, trajs, kinds, f"re-optimization degenerate: {e}"
        if not out.collision_free:
            return None, trajs, kinds, "R2 piece re-optimization failed"
        trajs[i] = out.trajectory
        kinds[i] = "R2-reoptimized"
    trajs = _align_yaw(trajs)
    try:
        return splice(trajs), trajs, kinds, None
    except SpliceError as e:
        return None, trajs, kinds, f"splice failure after repair: {e}"
