"""Swept-volume signed distance queries and continuous collision checking.

The SDF of the volume swept by the robot along an (x, y, yaw) trajectory,
evaluated at a world point x, is the minimum over time of the body SDF of x
seen from the pose at that time (RobotShape.sdf_at_pose, the planner's one
pose composition).  The minimum is located by Lipschitz-spaced coarse time
sampling followed by a sampled zoom into the bracket around every sampled
local minimum of each point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gridmap import OccupancyGrid, extract_obstacles
from .minco import Trajectory
from .shape import RobotShape

_REFINE_T_TOL = 1e-9
_ZOOM_SAMPLES = 33  # times per bracket and round of the refinement's zoom
_LIPSCHITZ_PROBES = 128  # velocity samples behind the Lipschitz bound
_MAX_COARSE_SAMPLES = 4096
# (time sample, obstacle point) pairs per coarse SDF evaluation: bounds the
# per-edge intermediates of a certificate, however long and cluttered its sweep
_COARSE_BLOCK_PAIRS = 8192


@dataclass(frozen=True)
class CollisionReport:
    verdict: str  # "clear" | "colliding"
    hits: tuple = field(default_factory=tuple)  # ((t_lo, t_hi), witness point, depth)

    @property
    def clear(self) -> bool:
        return self.verdict == "clear"


def _lipschitz_bound(traj: Trajectory, shape: RobotShape) -> float:
    """Bound on the time derivative of the composed SDF at any point: max
    speed + circumradius * max yaw rate."""
    ts = np.linspace(0.0, traj.total_duration, _LIPSCHITZ_PROBES)
    vel = traj.eval_many(ts, order=1)
    v_max = float(np.max(np.linalg.norm(vel[:, :2], axis=1)))
    w_max = float(np.max(np.abs(vel[:, 2])))
    return v_max + shape.circumradius * w_max


def _coarse_times(traj: Trajectory, lip: float, spacing_target: float) -> np.ndarray:
    t1 = traj.total_duration
    dt = spacing_target / (2 * max(lip, 1e-9)) if lip > 0 else t1
    n = int(np.ceil(t1 / max(dt, t1 / _MAX_COARSE_SAMPLES))) + 1
    n = max(n, 8)
    return np.linspace(0.0, t1, min(n, _MAX_COARSE_SAMPLES))


def _composed(traj: Trajectory, shape: RobotShape, points: np.ndarray,
              ts: np.ndarray) -> np.ndarray:
    """Body SDF of `points` at the poses at times `ts`; ts has any shape and
    broadcasts against the points' leading axes."""
    pose = traj.eval_many(ts.ravel(), order=0).reshape(ts.shape + (3,))
    return shape.sdf_at_pose(points, pose[..., :2], pose[..., 2])[0]


def swept_sdf_batch(traj: Trajectory, shape: RobotShape, points: np.ndarray,
                    spacing_target: float):
    """Vectorized swept SDF for many points.

    Coarse values are shared across points; a sampled zoom refines the
    bracket of every sampled local minimum, and each point keeps its lowest
    value.  Returns (values (P,), t_stars (P,)).
    """
    ts = _coarse_times(traj, _lipschitz_bound(traj, shape), spacing_target)
    return _swept_sdf(traj, shape, points, ts, spacing_target, np.inf)[:2]


def _swept_sdf(traj, shape, points, ts, spacing_target, margin):
    """swept_sdf_batch over the caller's coarse times ts (T,), refining only
    the sampled minima below margin + spacing_target; also returns the coarse
    values (T, P)."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if points.shape[0] == 0:
        return np.zeros(0), np.zeros(0), np.zeros((len(ts), 0))
    block = max(_COARSE_BLOCK_PAIRS // len(ts), 1)
    vals = np.concatenate([_composed(traj, shape, points[j:j + block], ts[:, None])
                           for j in range(0, points.shape[0], block)], axis=1)  # (T, P)
    arg = np.argmin(vals, axis=0)
    out_v = vals[arg, np.arange(points.shape[0])]
    out_t = ts[arg]
    # sampled local minima: below the previous sample, not above the next
    padded = np.pad(vals, ((1, 1), (0, 0)), constant_values=np.inf)
    local_min = (vals < padded[:-2]) & (vals <= padded[2:])
    k, p = np.nonzero(local_min & (vals <= margin + spacing_target))
    if k.size:
        t_r, v_r = _zoom_refine_batch(traj, shape, points[p], ts[np.maximum(k - 1, 0)],
                                      ts[np.minimum(k + 1, len(ts) - 1)])
        # the lowest refined value of each point: first of its run after
        # sorting by (point, value)
        order = np.lexsort((v_r, p))
        first = order[np.r_[True, p[order][1:] != p[order][:-1]]]
        better = first[v_r[first] < out_v[p[first]]]
        out_v[p[better]] = v_r[better]
        out_t[p[better]] = t_r[better]
    return out_v, out_t, vals


def _zoom_refine_batch(traj: Trajectory, shape: RobotShape, points: np.ndarray,
                       lo: np.ndarray, hi: np.ndarray):
    """Minimize the composed SDF over per-point time brackets by a sampled
    zoom: sample every bracket at _ZOOM_SAMPLES even times, keep the two
    intervals around each point's lowest sample, and repeat until every
    bracket is at most _REFINE_T_TOL wide.  Returns the time and value of
    each point's lowest sample."""
    steps = np.linspace(0.0, 1.0, _ZOOM_SAMPLES)
    rows = np.arange(points.shape[0])
    a, b = lo, hi
    while True:
        ts = a[:, None] * (1 - steps) + b[:, None] * steps  # (P, K), ends exact
        vals = _composed(traj, shape, points[:, None, :], ts)
        j = np.argmin(vals, axis=1)
        if np.max(b - a) <= _REFINE_T_TOL:
            return ts[rows, j], vals[rows, j]
        a = ts[rows, np.maximum(j - 1, 0)]
        b = ts[rows, np.minimum(j + 1, _ZOOM_SAMPLES - 1)]


def continuous_check(traj: Trajectory, shape: RobotShape, grid: OccupancyGrid) -> CollisionReport:
    """Certify the whole trajectory against all occupied cells near its sweep,
    at zero margin.

    Reports every obstacle point whose swept SDF is negative (inside the
    swept body), grouped by arg-min adjacency; a hit's depth is that SDF's
    magnitude.  A hit's interval spans its points' arg-min times and the
    coarse samples on either side of those with one of its points inside.
    """
    spacing = grid.resolution / 2  # SDF spacing target: half a map cell
    lip = _lipschitz_bound(traj, shape)
    coarse_ts = _coarse_times(traj, lip, spacing)
    # crop around the poses the check samples: between them the reference
    # point moves at most spacing / 2, a quarter cell, inside the pad's slack
    pos = traj.eval_many(coarse_ts, order=0)[:, :2]
    points = extract_obstacles(grid, pos, shape.circumradius + grid.resolution)
    if points.shape[0] == 0:
        return CollisionReport("clear")
    vals, t_stars, coarse_vals = _swept_sdf(traj, shape, points, coarse_ts, spacing, 0.0)
    bad = np.nonzero(vals < -1e-12)[0]
    if bad.size == 0:
        return CollisionReport("clear")
    dt_group = 2 * spacing / (2 * max(lip, 1e-9))
    order = bad[np.argsort(t_stars[bad], kind="stable")]
    groups = np.split(order, np.flatnonzero(np.diff(t_stars[order]) >= dt_group) + 1)
    hits = (_make_hit(group, t_stars, vals, points, coarse_ts, coarse_vals) for group in groups)
    return CollisionReport("colliding", tuple(hits))


def _make_hit(group, t_stars, vals, points, coarse_ts, coarse_vals):
    worst = group[int(np.argmin(vals[group]))]
    inside = np.flatnonzero(np.any(coarse_vals[:, group] < -1e-12, axis=1))
    near = np.clip(np.concatenate([inside - 1, inside + 1]), 0, len(coarse_ts) - 1)
    times = np.concatenate([t_stars[group], coarse_ts[near]])
    interval = (float(np.min(times)), float(np.max(times)))
    return (interval, points[worst].copy(), float(-vals[worst]))


def swept_boundary_samples(traj: Trajectory, shape: RobotShape, n: int) -> list[np.ndarray]:
    """Robot polygon outlines at n uniformly spaced times (for rendering)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ts = np.linspace(0.0, traj.total_duration, n) if n > 1 else np.array([0.0])
    return [shape.outline_world(state[:2], state[2]) for state in traj.eval_many(ts, 0)]
