"""Back-end trajectory optimization.

SE(2) sub-problems minimize smoothness + total time + swept-volume safety +
dynamic-limit penalties over MINCO waypoint/duration parameters; R^2
sub-problems fix their yaw waypoints on the junction-to-junction ramp and
replace the safety term with a position residual against the anchor curve,
the states' positions interpolated against their arc-length fractions.  All
penalty terms go through the same C^2 smoothed ramp, so every cost and its
gradient are continuous.  Each time-integrated term is an integrand handed to minco.time_integral, which
owns the chain rule to the spline coefficients and durations.  lbfgs solves
each sub-problem until it has converged relative to the problem's own scale,
or until its iteration budget.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from . import minco
from .gridmap import OccupancyGrid, extract_obstacles
from .minco import MincoSpline, Trajectory
from .shape import RobotShape
from .sweep import continuous_check

_SAFETY_SAMPLES = 16
# midpoint rule: fixed per-piece time fractions
_SAFETY_NODES = (np.arange(_SAFETY_SAMPLES) + 0.5) / _SAFETY_SAMPLES
_SAFETY_WEIGHTS = np.full(_SAFETY_SAMPLES, 1.0 / _SAFETY_SAMPLES)
# spline waypoints seeded from a sub-problem's states
_MAX_WAYPOINTS = 9
# lbfgs stops once the solve has converged relative to the problem's own
# scale, by the two tests of LBFGS-Lite:
# - _G_TOL: ||g||_inf <= _G_TOL * max(1, ||x||_inf);
# - _F_REL_TOL: the decrease over the last _PAST accepted iterations,
#   (f_{k-_PAST} - f_k) / max(1, |f_k|), is below it.
# The accuracy target is the cost to five significant digits.  The costs are
# of order 1e2-1e4 and their time term alone weighs lam_t = 20 per second, so
# a solve stops when three more iterations would buy under 0.1 cost units,
# at most 5 ms of trajectory time.  An absolute threshold on |g| or on the
# decrease would be strict at one cost scale and loose at another.
_G_TOL = 1e-5
_F_REL_TOL = 1e-5
_PAST = 3
# number of curvature pairs kept
_MEMORY = 8


class DegenerateInputError(ValueError):
    """Raised when a sub-problem has no spatial extent to optimize."""


def smoothing_grad(x, mu: float):
    """Value and derivative of the C^2 smoothed ramp (vectorized): 0 for
    x <= 0, cubic blend on (0, mu), x - mu/2 after."""
    if mu <= 0:
        raise ValueError("mu must be > 0")
    x = np.asarray(x, dtype=float)
    v = np.where(x <= 0, 0.0,
                 np.where(x < mu, (mu - x / 2) * (x / mu) ** 3, x - mu / 2))
    d = np.where(x <= 0, 0.0,
                 np.where(x < mu, 3 * x**2 / mu**2 - 2 * x**3 / mu**3, 1.0))
    if v.ndim == 0:
        return float(v), float(d)
    return v, d


@dataclass(frozen=True)
class Weights:
    """Cost weights, smoothing width, safety margin, and dynamic limits."""

    lam_m: float = 1.0
    lam_t: float = 20.0
    lam_s: float = 1e4
    lam_d: float = 1e3
    lam_p: float = 1e3
    mu: float = 0.01
    d_safe: float = 0.02
    v_max: float = 1.0
    w_max: float = 1.5

    def __post_init__(self):
        # written as `not ...` so that NaN fails too
        for name in ("lam_m", "lam_t", "lam_s", "lam_d", "lam_p", "d_safe"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be >= 0 and finite")
        for name in ("mu", "v_max", "w_max"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be > 0 and finite")


@dataclass
class OptOutcome:
    """A sub-problem's solved trajectory, whether its last solve converged,
    the iterations summed over its solves, and (SE(2) solves only) the
    verdict of the zero-margin continuous check of the trajectory.  An SE(2)
    solve that fails its check is re-solved once, warm-started, with a
    tenfold safety weight; the verdict is that of the last solve.  The cost
    terms are not kept: minco.control_effort, _safety_penalty and
    _dynamics_penalty of the trajectory give its effort, safety and dynamics
    terms."""

    trajectory: Trajectory
    converged: bool
    iterations: int
    collision_free: bool | None = None


def lbfgs(fun, x0: np.ndarray, max_iter: int = 200):
    """Limited-memory quasi-Newton descent with Armijo backtracking.

    fun(x) -> (f, grad).  Accepted steps never increase f.  The descent has
    converged when ||g||_inf <= _G_TOL * max(1, ||x||_inf), or when the
    relative decrease of f over the last _PAST accepted iterations is below
    _F_REL_TOL; both tests are relative to the problem's own scale.  A line
    search that finds no acceptable step ends the descent at the last
    accepted point, unconverged.  Returns (x, f, iterations, converged).
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun(x)
    history: deque = deque(maxlen=_MEMORY)  # the last (s, y, 1 / s.y) curvature pairs
    past = deque([f], maxlen=_PAST + 1)  # f at the last accepted iterations
    it = 0
    converged = _stationary(x, g)
    while it < max_iter and not converged:
        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(history):
            a = rho * np.dot(s, q)
            alphas.append(a)
            q -= a * y
        if history:
            s, y, _ = history[-1]
            gamma = np.dot(s, y) / max(np.dot(y, y), 1e-300)
            q *= gamma
        for (s, y, rho), a in zip(history, reversed(alphas)):
            b = rho * np.dot(y, q)
            q += (a - b) * s
        d = -q
        slope = np.dot(g, d)
        if slope >= 0:
            d = -g
            slope = -np.dot(g, g)
        alpha = 1.0
        if not history:  # first step: conservative scale for steep gradients
            alpha = min(1.0, 1.0 / max(float(np.linalg.norm(g)), 1.0))
        accepted = False
        for _ in range(40):
            x_new = x + alpha * d
            f_new, g_new = fun(x_new)
            if np.isfinite(f_new) and f_new <= f + 1e-4 * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        it += 1
        if not accepted:
            break
        s_vec = x_new - x
        y_vec = g_new - g
        sy = np.dot(s_vec, y_vec)
        if sy > 1e-12:
            history.append((s_vec, y_vec, 1.0 / sy))
        x, f, g = x_new, f_new, g_new
        past.append(f)
        converged = _stationary(x, g) or (
            len(past) > _PAST and past[0] - f < _F_REL_TOL * max(abs(f), 1.0))
    return x, f, it, converged


def _stationary(x: np.ndarray, g: np.ndarray) -> bool:
    return bool(np.max(np.abs(g)) <= _G_TOL * max(1.0, float(np.max(np.abs(x)))))


def _dynamics_penalty(traj: Trajectory, weights: Weights):
    """Quadrature of the v/omega limit penalties with coefficient/duration
    partials (coefficients held fixed for the duration partial)."""
    def integrand(vel):
        pv, dv = smoothing_grad(vel[..., 0] ** 2 + vel[..., 1] ** 2 - weights.v_max**2,
                                weights.mu)
        dg = 2 * vel * dv[..., None]
        w = vel[..., 2]
        pw, dw = smoothing_grad(w**2 - weights.w_max**2, weights.mu)
        dg[..., 2] = 2 * w * dw
        return pv + pw, dg

    return minco.time_integral(traj, integrand, 1, *minco.GAUSS_16)


def _safety_penalty(traj: Trajectory, weights: Weights, shape: RobotShape,
                    obstacles: np.ndarray):
    """Time-integrated clearance penalty over fixed per-piece time fractions.

    J = sum_i (T_i / K) sum_j L_mu(d_safe - sdf(pose(s_j T_i), obstacle)) over
    all obstacles, with midpoint samples s_j.  Fixed relative sample locations
    keep the functional smooth in both waypoints and durations; formulations
    built on the minimum over time change their set of active grazing windows
    discontinuously, which the optimizer exploits by parking the trajectory
    exactly on a detection boundary where every step looks uphill.

    An obstacle with sdf >= d_safe has penalty and derivative exactly zero:
    only the (sample, obstacle) pairs within circumradius + d_safe of the
    pose, and then inside the body's bounding box grown by d_safe
    (RobotShape.near_pose), get the exact SDF."""
    reach2 = (shape.circumradius + weights.d_safe) ** 2

    def integrand(pose):
        flat = pose.reshape(-1, 3)
        d = obstacles[None, :, :] - flat[:, None, :2]  # (S, P, 2)
        k, p = np.nonzero(np.einsum("spc,spc->sp", d, d) < reach2)  # live pairs
        near = shape.near_pose(obstacles[p], flat[k, :2], flat[k, 2], weights.d_safe)
        k, p = k[near], p[near]
        val, dval = shape.sdf_at_pose(obstacles[p], flat[k, :2], flat[k, 2])
        pen, dpen = smoothing_grad(weights.d_safe - val, weights.mu)
        dpen_dpose = -dpen[:, None] * dval
        n = flat.shape[0]
        g = np.bincount(k, pen, minlength=n)
        dg = np.stack([np.bincount(k, dpen_dpose[:, c], minlength=n) for c in range(3)],
                      axis=-1)
        return g.reshape(pose.shape[:-1]), dg.reshape(pose.shape)

    return minco.time_integral(traj, integrand, 0, _SAFETY_NODES, _SAFETY_WEIGHTS)


def se2_cost(traj: Trajectory, weights: Weights, shape: RobotShape,
             obstacles: np.ndarray):
    """Weighted SE(2) cost and its partials w.r.t. coefficients and durations.

    Returns (cost, grad_c (M,6,m), grad_T (M,)).
    """
    jm, gc_m, gt_m = minco.control_effort_gradients(traj)
    jt = traj.total_duration
    js, gc_s, gt_s = _safety_penalty(traj, weights, shape,
                                     np.asarray(obstacles, dtype=float).reshape(-1, 2))
    jd, gc_d, gt_d = _dynamics_penalty(traj, weights)
    cost = weights.lam_m * jm + weights.lam_t * jt + weights.lam_s * js + weights.lam_d * jd
    grad_c = weights.lam_m * gc_m + weights.lam_s * gc_s + weights.lam_d * gc_d
    grad_t = weights.lam_m * gt_m + weights.lam_t + weights.lam_s * gt_s + weights.lam_d * gt_d
    return cost, grad_c, grad_t


def r2_cost(traj: Trajectory, weights: Weights, anchors: np.ndarray,
            anchor_fractions: np.ndarray):
    """Weighted R^2 cost: smoothness, time, and a position residual against
    the anchor curve, the piecewise-linear interpolation of the (K, 2) anchor
    positions placed at fixed fractions of the timeline; yaw has no residual.

    A sample at time t tracks the curve at u = t / T_total.  Changing a
    duration moves u, so the sample slides along the curve: that partial,
    dJ/dT_j -= (1/T_total) [sum_{i>j} sum_q h_iq + sum_q h_jq s_q
    - sum_iq h_iq u_iq] with h_iq = T_i w_q (dg/dx . da/du), is added to the
    one time_integral gives with the anchors held fixed.  The cost is thus
    continuous in the durations and its gradient exact.

    Returns (cost, grad_c, grad_T).
    """
    jm, gc_m, gt_m = minco.control_effort_gradients(traj)
    total = traj.total_duration
    # the position residual is a squared distance, so the ramp width must be
    # much tighter than mu: a dead band of mu on dist^2 would let the
    # trajectory drift sqrt(mu) (centimeters) off anchors routed along
    # tight-clearance corridors
    mu_p = weights.mu / 10
    nodes, wq = minco.GAUSS_16
    u = (traj.start_times[:, None] + traj.durations[:, None] * nodes) / total  # (M, Q)
    # da/du of each anchor segment, 0 on a zero-length one; side="right"
    # picks such a segment only for u past the last fraction
    rise, run = np.diff(anchors, axis=0), np.diff(anchor_fractions)[:, None]
    seg_slope = np.divide(rise, run, out=np.zeros_like(rise), where=run > 0)
    seg = np.clip(np.searchsorted(anchor_fractions, u, side="right") - 1,
                  0, len(anchor_fractions) - 2)
    slope = seg_slope[seg]  # (M, Q, 2)
    target = anchors[seg] + (u - anchor_fractions[seg])[..., None] * slope
    along = np.empty_like(u)  # dg/dx . da/du at each sample

    def residual(state):
        dp = state[..., :2] - target
        pv, dv = smoothing_grad(np.sum(dp * dp, axis=-1), mu_p)
        dg = np.zeros_like(state)
        dg[..., :2] = (weights.lam_p * dv * 2)[..., None] * dp
        along[...] = np.einsum("mqd,mqd->mq", dg[..., :2], slope)
        return weights.lam_p * pv, dg

    jg, gc_g, gt_g = minco.time_integral(traj, residual, 0, nodes, wq)
    h = traj.durations[:, None] * wq * along  # (M, Q)
    per_piece = h.sum(axis=1)
    later = per_piece.sum() - np.cumsum(per_piece)  # sum over pieces i > j
    gt_a = -(later + h @ nodes - np.sum(h * u)) / total
    cost = weights.lam_m * jm + weights.lam_t * total + jg
    grad_c = weights.lam_m * gc_m + gc_g
    grad_t = weights.lam_m * gt_m + weights.lam_t + gt_g + gt_a
    return cost, grad_c, grad_t


_T_FLOOR = 1e-3


def _softplus(tau):
    return np.logaddexp(0.0, tau) + _T_FLOOR


def _softplus_inv(t):
    t = np.maximum(t - _T_FLOOR, 1e-6)
    return np.where(t > 30, t, np.log(np.expm1(t)))


def _sigmoid(t: float) -> float:
    """1 / (1 + exp(-t)), 0 where exp(-t) overflows: expit's formula and libm exp."""
    try:
        return 1.0 / (1.0 + math.exp(-t))
    except OverflowError:
        return 0.0


def _decimate_indices(n: int, max_points: int) -> np.ndarray:
    if n <= max_points:
        return np.arange(n)
    return np.unique(np.round(np.linspace(0, n - 1, max_points)).astype(int))


def _arc_fractions(positions: np.ndarray) -> np.ndarray:
    seg = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    if arc[-1] > 1e-12:
        return arc / arc[-1]
    return np.linspace(0.0, 1.0, len(positions))


def _sub_geometry(sub, v_max: float, n_fixed: int):
    """A sub-problem's spline, packed initial parameters x, fixed block (the
    last n_fixed channels of the interior waypoints; x packs the others and
    the durations) and state positions.  Waypoints are decimated states, an
    R2 sub's yaws ramp in arc fraction between its junction yaws, and
    durations come from arc length at half v_max."""
    positions, yaws = sub.states[:, :2], sub.states[:, 2]
    if sub.kind == "R2":
        # translation-dominant slice: interior orientation picks are per-point
        # and can flip between symmetric aliases, so only the junction yaws
        # are meaningful
        yaws = yaws[0] + _arc_fractions(positions) * (yaws[-1] - yaws[0])
    idx = _decimate_indices(len(positions), _MAX_WAYPOINTS)
    pts = positions[idx]
    if np.all(np.linalg.norm(pts - pts[0], axis=1) < 1e-9):
        raise DegenerateInputError("sub-problem has no spatial extent")
    seg_len = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    durations = np.maximum(seg_len / (v_max / 2), 0.1)
    q = np.column_stack([pts, yaws[idx]])
    start = np.zeros((3, 3))
    end = np.zeros((3, 3))
    start[0] = q[0]
    end[0] = q[-1]
    free = q.shape[1] - n_fixed
    x = np.concatenate([q[1:-1, :free].ravel(), _softplus_inv(durations)])
    return MincoSpline(start, end, len(durations)), x, q[1:-1, free:], positions


def _solve(spline: MincoSpline, x: np.ndarray, fixed: np.ndarray, cost_fn, budget: int):
    """Minimize cost_fn(trajectory) over the spline's interior waypoints,
    less their (M-1, k) block of fixed trailing channels, and softplus-mapped
    durations, packed in x, from x.  Returns (x, trajectory, iterations, converged)."""
    free = spline.dim - fixed.shape[1]
    nq = (spline.n_pieces - 1) * free

    def trajectory(x):
        waypoints = np.hstack([x[:nq].reshape(-1, free), fixed])
        return spline.set_params(waypoints, _softplus(x[nq:]))

    def objective(x):
        cost, grad_c, grad_t = cost_fn(trajectory(x))
        gq, gt = spline.gradients(grad_c, grad_t)
        sig = np.array([_sigmoid(tau) for tau in x[nq:]])  # d softplus / d tau
        return cost, np.concatenate([gq[:, :free].ravel(), gt * sig])

    x, _, iterations, converged = lbfgs(objective, x, max_iter=budget)
    return x, trajectory(x), iterations, converged


def se2_optimize(sub, weights: Weights, shape: RobotShape, grid: OccupancyGrid,
                 budget: int) -> OptOutcome:
    """Optimize one sub-problem (of either kind) in full SE(2), yaw free, with
    swept-volume safety; the outcome's collision_free flag is set by an
    independent continuous collision check at zero margin."""
    spline, x, fixed, positions = _sub_geometry(sub, weights.v_max, 0)
    obstacles = extract_obstacles(grid, positions,
                                  shape.circumradius + weights.d_safe + 2 * grid.resolution)
    iterations = 0
    # when the strict check fails, re-solve once, warm-started, with a
    # tenfold safety weight; the millimetric residual penetrations a balanced
    # optimum leaves behind vanish once safety dominates the smoothness
    # trade-off
    for w in (weights, replace(weights, lam_s=weights.lam_s * 10.0)):
        # quadrature guidance only; the continuous check below stays strict
        x, traj, it, converged = _solve(
            spline, x, fixed, lambda t: se2_cost(t, w, shape, obstacles), budget)
        iterations += it
        clear = continuous_check(traj, shape, grid).clear
        if clear:
            break
    return OptOutcome(traj, converged, iterations, collision_free=clear)


def r2_optimize(sub, weights: Weights, budget: int) -> OptOutcome:
    """Optimize a low-risk sub-problem in R^2, its yaw waypoints fixed on
    their ramp, by position tracking only; final safety is certified by the
    pipeline's continuous check of the returned sub-trajectory."""
    spline, x, fixed, positions = _sub_geometry(sub, weights.v_max, 1)
    fractions = _arc_fractions(positions)
    _, traj, iterations, converged = _solve(
        spline, x, fixed, lambda t: r2_cost(t, weights, positions, fractions), budget)
    return OptOutcome(traj, converged, iterations)
