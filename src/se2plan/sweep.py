"""Swept-volume signed distance queries and continuous collision checking.

The SDF of the volume swept by the robot along an (x, y, yaw) trajectory,
evaluated at a world point x, is the minimum over time of the body SDF of x
seen from the pose at that time (RobotShape.sdf_at_pose, the planner's one
pose composition).  The minimum is located by Lipschitz-spaced coarse time
sampling followed by golden-section refinement of the bracket around every
sampled local minimum of each point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gridmap import OccupancyGrid, extract_obstacles
from .minco import Trajectory
from .shape import RobotShape

_GOLDEN = (np.sqrt(5) - 1) / 2
_REFINE_T_TOL = 1e-9
_LIPSCHITZ_PROBES = 128  # velocity samples behind the Lipschitz bound
_MAX_COARSE_SAMPLES = 4096


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

    Coarse values are shared across points; golden refinement runs on the
    bracket of every sampled local minimum, and each point keeps its lowest
    value.  Returns (values (P,), t_stars (P,)).
    """
    return _swept_sdf(traj, shape, points, spacing_target, np.inf,
                      _lipschitz_bound(traj, shape))


def _swept_sdf(traj, shape, points, spacing_target, margin, lip):
    """swept_sdf_batch with the Lipschitz bound supplied by the caller, refining
    only the sampled minima below margin + spacing_target."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if points.shape[0] == 0:
        return np.zeros(0), np.zeros(0)
    ts = _coarse_times(traj, lip, spacing_target)
    vals = _composed(traj, shape, points, ts[:, None])  # (T, P)
    arg = np.argmin(vals, axis=0)
    out_v = vals[arg, np.arange(points.shape[0])]
    out_t = ts[arg]
    # sampled local minima: below the previous sample, not above the next
    padded = np.pad(vals, ((1, 1), (0, 0)), constant_values=np.inf)
    local_min = (vals < padded[:-2]) & (vals <= padded[2:])
    k, p = np.nonzero(local_min & (vals <= margin + spacing_target))
    if k.size:
        t_r, v_r = _golden_refine_batch(traj, shape, points[p], ts[np.maximum(k - 1, 0)],
                                        ts[np.minimum(k + 1, len(ts) - 1)])
        # the lowest refined value of each point: first of its run after
        # sorting by (point, value)
        order = np.lexsort((v_r, p))
        first = order[np.r_[True, p[order][1:] != p[order][:-1]]]
        better = first[v_r[first] < out_v[p[first]]]
        out_v[p[better]] = v_r[better]
        out_t[p[better]] = t_r[better]
    return out_v, out_t


def _golden_refine_batch(traj: Trajectory, shape: RobotShape, points: np.ndarray,
                         lo: np.ndarray, hi: np.ndarray):
    """Golden-section minimization of the composed SDF over per-point time
    brackets, iterated in lockstep for all points at once."""
    def f(ts):
        return _composed(traj, shape, points, ts)

    a, b = lo.astype(float).copy(), hi.astype(float).copy()
    c_pt = b - _GOLDEN * (b - a)
    d_pt = a + _GOLDEN * (b - a)
    fc, fd = f(c_pt), f(d_pt)
    span = float(np.max(b - a))
    n_iter = max(int(np.ceil(np.log(max(span, _REFINE_T_TOL) / _REFINE_T_TOL)
                             / -np.log(_GOLDEN))), 1)
    for _ in range(n_iter):
        left = fc < fd
        b[left] = d_pt[left]
        d_pt[left] = c_pt[left]
        fd[left] = fc[left]
        c_pt[left] = b[left] - _GOLDEN * (b[left] - a[left])
        right = ~left
        a[right] = c_pt[right]
        c_pt[right] = d_pt[right]
        fc[right] = fd[right]
        d_pt[right] = a[right] + _GOLDEN * (b[right] - a[right])
        fresh = np.where(left, c_pt, d_pt)
        f_fresh = f(fresh)
        fc[left] = f_fresh[left]
        fd[right] = f_fresh[right]
        if np.max(b - a) <= _REFINE_T_TOL:
            break
    t = (a + b) / 2
    return t, f(t)


def continuous_check(traj: Trajectory, shape: RobotShape, grid: OccupancyGrid,
                     margin: float = 0.0) -> CollisionReport:
    """Certify the whole trajectory against all occupied cells near its sweep.

    Reports every obstacle point whose swept SDF is below margin, grouped into
    time intervals by arg-min adjacency.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    ts = np.linspace(0.0, traj.total_duration, 256)
    pos = traj.eval_many(ts, order=0)[:, :2]
    pad = shape.circumradius + margin + grid.resolution
    lo = pos.min(axis=0) - pad
    hi = pos.max(axis=0) + pad
    center = (lo + hi) / 2
    half = float(np.max(hi - center))
    points = extract_obstacles(grid, center, half) if half > 0 else np.zeros((0, 2))
    if points.shape[0] == 0:
        return CollisionReport("clear")
    spacing = grid.resolution / 2  # SDF spacing target: half a map cell
    lip = _lipschitz_bound(traj, shape)
    vals, t_stars = _swept_sdf(traj, shape, points, spacing, margin, lip)
    bad = np.nonzero(vals < margin - 1e-12)[0]
    if bad.size == 0:
        return CollisionReport("clear")
    dt_group = 2 * spacing / (2 * max(lip, 1e-9))
    order = bad[np.argsort(t_stars[bad], kind="stable")]
    hits = []
    group = [order[0]]
    for idx in order[1:]:
        if t_stars[idx] - t_stars[group[-1]] < dt_group:
            group.append(idx)
        else:
            hits.append(_make_hit(group, t_stars, vals, points, margin))
            group = [idx]
    hits.append(_make_hit(group, t_stars, vals, points, margin))
    return CollisionReport("colliding", tuple(hits))


def _make_hit(group, t_stars, vals, points, margin):
    g = np.array(group)
    worst = g[int(np.argmin(vals[g]))]
    interval = (float(np.min(t_stars[g])), float(np.max(t_stars[g])))
    return (interval, points[worst].copy(), float(margin - vals[worst]))


def swept_boundary_samples(traj: Trajectory, shape: RobotShape, n: int) -> list[np.ndarray]:
    """Robot polygon outlines at n uniformly spaced times (for rendering)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ts = np.linspace(0.0, traj.total_duration, n) if n > 1 else np.array([0.0])
    return [shape.outline_world(state[:2], state[2]) for state in traj.eval_many(ts, 0)]
