"""Planner orchestration: topology candidates, sequence generation,
SE(2)-first optimization with discard-on-failure, R^2 fill-in, splicing,
whole-trajectory certification, and minimum-control-effort selection.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import minco
from .gridmap import OccupancyGrid, inflate
from .minco import NCOEF, Trajectory, basis
from .optimize import DegenerateInputError, OptOutcome, Weights, r2_optimize, se2_optimize
from .sequence import SubProblem, extract_subproblems, generate_sequence
from .shape import RobotShape, build_kernel, inscribed_radius, kernel_collides, rotation
from .sweep import CollisionReport, continuous_check
from .topo import (InfeasibleEndpointError, build_roadmap, dedup_paths, extract_paths,
                   shortcut, simplify_path)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PlanConfig:
    roadmap_budget: int = 400
    connection_radius: float | None = None  # defaults to 25% of map diagonal
    max_paths: int = 30
    max_candidates: int = 4
    n_orientations: int = 18
    search_range: int = 4
    seg_adjust_depth: int = 4
    risk_pad: int = 5
    push_margin: float | None = None  # defaults to map resolution
    push_attempts: int = 20
    se2_budget: int = 300
    r2_budget: int = 100
    max_waypoints: int = 9
    weights: Weights = field(default_factory=Weights)
    seed: int = 0

    def __post_init__(self):
        for name in ("roadmap_budget", "max_paths", "max_candidates", "n_orientations",
                     "search_range", "seg_adjust_depth", "push_attempts",
                     "se2_budget", "r2_budget", "max_waypoints"):
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


def _resolve_end_piece(duration: float, start_state: np.ndarray,
                       end_state: np.ndarray) -> np.ndarray:
    """Quintic coefficients from full boundary states (3 derivatives a side)."""
    dim = start_state.shape[1]
    mat = np.zeros((NCOEF, NCOEF))
    rhs = np.zeros((NCOEF, dim))
    for r in range(3):
        mat[r] = basis(0.0, r)
        rhs[r] = start_state[r]
        mat[3 + r] = basis(duration, r)
        rhs[3 + r] = end_state[r]
    return np.linalg.solve(mat, rhs)


def splice(pieces: list[Trajectory]) -> Trajectory:
    """Concatenate piece trajectories into one, forcing velocity and
    acceleration agreement at the junctions (average of the two sides) by
    re-solving the adjacent end pieces; junction positions are preserved."""
    if not pieces:
        raise SpliceError("nothing to splice")
    dims = {p.dim for p in pieces}
    if len(dims) != 1:
        raise SpliceError("piece dimensions differ")
    if len(pieces) == 1:
        return Trajectory(np.array(pieces[0].durations).copy(),
                          np.array(pieces[0].coeffs).copy())
    coeff_blocks = [np.array(p.coeffs).copy() for p in pieces]
    durations = [np.array(p.durations).copy() for p in pieces]
    for idx in range(len(pieces) - 1):
        ca, cb = coeff_blocks[idx], coeff_blocks[idx + 1]
        ta, tb = durations[idx][-1], durations[idx + 1][0]
        p_end = basis(ta, 0) @ ca[-1]
        p_start = basis(0.0, 0) @ cb[0]
        if np.max(np.abs(p_end - p_start)) > 1e-6:
            raise SpliceError(f"junction position mismatch: {p_end} vs {p_start}")
        junction = np.stack([
            (p_end + p_start) / 2,
            (basis(ta, 1) @ ca[-1] + basis(0.0, 1) @ cb[0]) / 2,
            (basis(ta, 2) @ ca[-1] + basis(0.0, 2) @ cb[0]) / 2,
        ])
        start_a = np.stack([basis(0.0, r) @ ca[-1] for r in range(3)])
        end_b = np.stack([basis(tb, r) @ cb[0] for r in range(3)])
        ca[-1] = _resolve_end_piece(ta, start_a, junction)
        cb[0] = _resolve_end_piece(tb, junction, end_b)
    return Trajectory(np.concatenate(durations), np.concatenate(coeff_blocks, axis=0))


def _align_yaw(trajs: list[Trajectory]) -> list[Trajectory]:
    """Shift each sub-trajectory's yaw channel by a multiple of 2*pi so that
    junction yaws are numerically continuous (per-sub unwrapping can differ
    by full turns across a shared junction)."""
    if not trajs or trajs[0].dim < 3:
        return trajs
    out = [trajs[0]]
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


def _free_orientation(kernel, grid, p, yaw: float):
    """Requested orientation if kernel-free, else the nearest free index."""
    k0 = kernel.index_of(yaw)
    if not kernel_collides(kernel, grid, p, k0):
        return k0
    n = kernel.n_orientations
    for d in range(1, n // 2 + 1):
        for k in ((k0 + d) % n, (k0 - d) % n):
            if not kernel_collides(kernel, grid, p, k):
                log.warning("requested yaw colliding at %s; substituting orientation %d", p, k)
                return k
    return None


def _sub_slice(traj: Trajectory, piece_counts: list[int], index: int) -> Trajectory:
    """Extract sub-trajectory `index` out of a spliced trajectory."""
    start = sum(piece_counts[:index])
    stop = start + piece_counts[index]
    return Trajectory(np.array(traj.durations[start:stop]).copy(),
                      np.array(traj.coeffs[start:stop]).copy())


def _kind_lengths(traj: Trajectory, kinds: list[str], piece_counts: list[int]):
    """(R^2 length, SE(2) length) of a spliced trajectory; an R2-reoptimized
    sub was solved by the SE(2) optimizer, so its length counts as SE(2)."""
    len_r2 = len_se2 = 0.0
    for i, kind in enumerate(kinds):
        length = _sub_slice(traj, piece_counts, i).arc_length()
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

    start_pose / goal_pose are (x, y, yaw).  The returned certificate is
    clear whenever status is "success".
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
        if _free_orientation(kernel, grid, pose[:2], pose[2]) is None:
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
    margin = config.push_margin if config.push_margin is not None else grid.resolution
    sequences = []
    for i, cand in enumerate(candidates):
        try:
            se2_path = shortcut(cand, shape, grid, inflated=inflated, margin=margin,
                                max_attempts=config.push_attempts)
            seq = generate_sequence(se2_path, shape, kernel, grid,
                                    search_range=config.search_range,
                                    max_depth=config.seg_adjust_depth, source_path_id=i)
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
        near = d[np.einsum("ij,ij->i", d, d) < (shape.circumradius + weights.d_safe) ** 2]
        if near.shape[0] == 0:
            return True
        yaw = kernel.yaw_of(state.orientation)
        return float(np.min(shape.sdf(near @ rotation(yaw)))) >= weights.d_safe

    for seq in sequences:
        subs = extract_subproblems(seq, pad=config.risk_pad, good_junction=good_junction)
        outcomes: dict[int, tuple[SubProblem, OptOutcome]] = {}
        failed = None
        # SE(2) sub-problems first; a single failure discards the candidate
        for sub in sorted(subs, key=lambda s: (s.kind != "SE2", s.start_index)):
            t1 = clock()
            out = None
            try:
                if sub.kind == "SE2":
                    out = se2_optimize(sub, weights, shape, kernel, grid,
                                       budget=config.se2_budget,
                                       max_waypoints=config.max_waypoints)
                else:
                    out = r2_optimize(sub, weights, kernel, budget=config.r2_budget,
                                      max_waypoints=config.max_waypoints)
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
            outcomes[sub.start_index] = (sub, out)
        if failed:
            result.failures.append(failed)
            continue
        ordered = [outcomes[k] for k in sorted(outcomes)]
        kinds = [s.kind for s, _ in ordered]
        piece_counts = [o.trajectory.n_pieces for _, o in ordered]
        try:
            spliced = splice(_align_yaw([o.trajectory for _, o in ordered]))
        except SpliceError as e:
            result.failures.append(f"candidate {seq.source_path_id}: splice failure: {e}")
            continue
        report = certify(spliced)
        err = None
        if not report.clear:
            t1 = clock()
            spliced, kinds, piece_counts, err = _repair(
                spliced, kinds, piece_counts, ordered, report, weights, shape, kernel,
                grid, config)
            time_se2 += clock() - t1  # repair solves are SE(2) optimization
            if not err and not (report := certify(spliced)).clear:
                err = "still unsafe after one re-optimization round"
        if err:
            result.failures.append(f"candidate {seq.source_path_id}: {err}")
            continue
        effort = minco.control_effort(spliced)
        survivors.append((effort, seq.source_path_id, spliced, kinds, piece_counts, report))

    if not survivors:
        result.status = "all-candidates-failed" if sequences else "no-path"
        return finish(t_refine, time_r2, time_se2, time_certify, tried=len(sequences))
    survivors.sort(key=lambda s: (s[0], s[1]))
    _, _, traj, kinds, piece_counts, report = survivors[0]
    result.status = "success"
    result.trajectory = traj
    result.provenance = kinds
    result.piece_counts = piece_counts
    result.certificate = report
    result.survivor_provenance = [list(s[3]) for s in survivors]
    len_r2, len_se2 = _kind_lengths(traj, kinds, piece_counts)
    return finish(t_refine, time_r2, time_se2, time_certify, tried=len(sequences),
                  survived=len(survivors), len_r2=len_r2, len_se2=len_se2)


def _repair(spliced, kinds, piece_counts, outcomes, report, weights, shape, kernel,
            grid, config):
    """One repair round for a failed certificate: unsafe R2-originated pieces
    are re-optimized in SE(2) and re-spliced, unsafe SE(2) pieces fail the
    candidate.  Returns (spliced, kinds, piece_counts, error or None)."""
    spans = []
    t = 0.0
    start = 0
    for n in piece_counts:
        dur = float(np.sum(np.asarray(spliced.durations[start : start + n])))
        spans.append((t, t + dur))
        t += dur
        start += n
    unsafe = set()
    for (t_lo, t_hi), _, _ in report.hits:
        for i, (lo, hi) in enumerate(spans):
            if t_lo <= hi + 1e-9 and t_hi >= lo - 1e-9:
                unsafe.add(i)
    new_trajs = [_sub_slice(spliced, piece_counts, i) for i in range(len(kinds))]
    kinds = list(kinds)
    piece_counts = list(piece_counts)
    for i in sorted(unsafe):
        sub, _ = outcomes[i]
        if sub.kind == "SE2":
            return spliced, kinds, piece_counts, "SE2-originated piece unsafe after splice"
        try:
            out = se2_optimize(sub, weights, shape, kernel, grid,
                               budget=config.se2_budget, max_waypoints=config.max_waypoints)
        except DegenerateInputError as e:
            return spliced, kinds, piece_counts, f"re-optimization degenerate: {e}"
        if not out.collision_free:
            return spliced, kinds, piece_counts, "R2 piece re-optimization failed"
        new_trajs[i] = out.trajectory
        kinds[i] = "R2-reoptimized"
        piece_counts[i] = out.trajectory.n_pieces
    try:
        spliced = splice(_align_yaw(new_trajs))
    except SpliceError as e:
        return spliced, kinds, piece_counts, f"splice failure after repair: {e}"
    return spliced, kinds, piece_counts, None
