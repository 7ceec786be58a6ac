"""Back-end trajectory optimization.

SE(2) sub-problems minimize smoothness + total time + swept-volume safety +
dynamic-limit penalties over MINCO waypoint/duration parameters; R^2
sub-problems replace the safety term with position/heading residuals against
the motion-sequence anchors.  All penalty terms go through the same C^2
smoothed ramp so gradients stay continuous.  Each time-integrated term is an
integrand handed to minco.time_integral, which owns the chain rule to the
spline coefficients and durations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

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
# lbfgs: gradient tolerance, stall threshold on the relative decrease, and
# number of curvature pairs kept
_G_TOL = 1e-5
_F_REL_TOL = 1e-8
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
    lam_r: float = 1e3
    mu: float = 0.01
    d_safe: float = 0.02
    v_max: float = 1.0
    w_max: float = 1.5

    def __post_init__(self):
        for name in ("lam_m", "lam_t", "lam_s", "lam_d", "lam_p", "lam_r", "d_safe"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.mu <= 0:
            raise ValueError("mu must be > 0")


@dataclass
class OptOutcome:
    trajectory: Trajectory
    converged: bool
    terms: dict
    iterations: int
    collision_free: bool | None = None


def lbfgs(fun, x0: np.ndarray, max_iter: int = 200):
    """Limited-memory quasi-Newton descent with Armijo backtracking.

    fun(x) -> (f, grad).  Accepted steps never increase f.  Returns
    (x, f, iterations, converged).
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun(x)
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    it = 0
    stall = 0  # consecutive iterations with negligible relative decrease
    restarted = False
    converged = bool(np.max(np.abs(g)) < _G_TOL)
    while it < max_iter and not converged:
        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * np.dot(s, q)
            alphas.append(a)
            q -= a * y
        if y_hist:
            gamma = np.dot(s_hist[-1], y_hist[-1]) / max(np.dot(y_hist[-1], y_hist[-1]), 1e-300)
            q *= gamma
        for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            b = rho * np.dot(y, q)
            q += (a - b) * s
        d = -q
        slope = np.dot(g, d)
        if slope >= 0:
            d = -g
            slope = -np.dot(g, g)
        alpha = 1.0
        if not s_hist:  # first step: conservative scale for steep gradients
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
            if s_hist and not restarted:
                # stale curvature can poison the search direction; retry once
                # from a fresh steepest-descent state
                s_hist, y_hist, rho_hist = [], [], []
                restarted = True
                continue
            break
        s_vec = x_new - x
        y_vec = g_new - g
        sy = np.dot(s_vec, y_vec)
        if sy > 1e-12:
            s_hist.append(s_vec)
            y_hist.append(y_vec)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > _MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        rel_drop = abs(f - f_new) / max(abs(f), 1.0)
        stall = stall + 1 if rel_drop < _F_REL_TOL else 0
        x, f, g = x_new, f_new, g_new
        if np.max(np.abs(g)) < _G_TOL or stall >= 3:
            converged = True
    return x, f, it, converged


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

    An obstacle at least circumradius + d_safe from the pose has sdf >= d_safe,
    so its penalty and derivative are exactly zero: only the closer
    (sample, obstacle) pairs are evaluated."""
    reach2 = (shape.circumradius + weights.d_safe) ** 2

    def integrand(pose):
        flat = pose.reshape(-1, 3)
        d = obstacles[None, :, :] - flat[:, None, :2]  # (S, P, 2)
        k, p = np.nonzero(np.einsum("spc,spc->sp", d, d) < reach2)  # live pairs
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

    Returns (cost, terms, grad_c (M,6,m), grad_T (M,)).
    """
    jm, gc_m, gt_m = minco.control_effort_gradients(traj)
    jt = traj.total_duration
    js, gc_s, gt_s = _safety_penalty(traj, weights, shape,
                                     np.asarray(obstacles, dtype=float).reshape(-1, 2))
    jd, gc_d, gt_d = _dynamics_penalty(traj, weights)
    cost = weights.lam_m * jm + weights.lam_t * jt + weights.lam_s * js + weights.lam_d * jd
    grad_c = weights.lam_m * gc_m + weights.lam_s * gc_s + weights.lam_d * gc_d
    grad_t = weights.lam_m * gt_m + weights.lam_t + weights.lam_s * gt_s + weights.lam_d * gt_d
    terms = {"J_m": jm, "J_t": jt, "J_s": js, "J_d": jd}
    return cost, terms, grad_c, grad_t


def r2_cost(traj: Trajectory, weights: Weights, anchor_positions: np.ndarray,
            anchor_yaws: np.ndarray, anchor_fractions: np.ndarray):
    """Weighted R^2 cost: smoothness, time, and position/heading residuals
    against anchors placed at fixed arc-length fractions of the timeline.

    Returns (cost, terms, grad_c, grad_T).
    """
    jm, gc_m, gt_m = minco.control_effort_gradients(traj)
    jt = traj.total_duration
    # the position residual is a squared distance, so the ramp width must be
    # much tighter than mu: a dead band of mu on dist^2 would let the
    # trajectory drift sqrt(mu) (centimeters) off anchors routed along
    # tight-clearance corridors
    mu_p = weights.mu / 10
    nodes, wq = minco.GAUSS_16
    anchor_times = anchor_fractions * traj.total_duration
    times = traj.start_times[:, None] + traj.durations[:, None] * nodes  # (M, Q)
    idx = np.argmin(np.abs(times[:, :, None] - anchor_times), axis=2)  # nearest anchor

    def position(state):
        dp = state[..., :2] - anchor_positions[idx]
        pv, dv = smoothing_grad(np.sum(dp * dp, axis=-1), mu_p)
        dg = np.zeros_like(state)
        dg[..., :2] = (dv * 2)[..., None] * dp
        return pv, dg

    def heading(state):
        dyaw = state[..., 2] - anchor_yaws[idx]
        pr, dr = smoothing_grad(4 * (1 - np.cos(dyaw)), weights.mu)
        dg = np.zeros_like(state)
        dg[..., 2] = dr * 4 * np.sin(dyaw)
        return pr, dg

    gp_total, gc_p, gt_p = minco.time_integral(traj, position, 0, nodes, wq)
    gr_total, gc_r, gt_r = minco.time_integral(traj, heading, 0, nodes, wq)
    cost = weights.lam_m * jm + weights.lam_t * jt + weights.lam_p * gp_total + weights.lam_r * gr_total
    grad_c = weights.lam_m * gc_m + weights.lam_p * gc_p + weights.lam_r * gc_r
    grad_t = weights.lam_m * gt_m + weights.lam_t + weights.lam_p * gt_p + weights.lam_r * gt_r
    terms = {"J_m": jm, "J_t": jt, "G_p": gp_total, "G_R": gr_total}
    return cost, terms, grad_c, grad_t


_T_FLOOR = 1e-3


def _softplus(tau):
    return np.logaddexp(0.0, tau) + _T_FLOOR


def _softplus_inv(t):
    t = np.maximum(t - _T_FLOOR, 1e-6)
    return np.where(t > 30, t, np.log(np.expm1(t)))


def _decimate_indices(n: int, max_points: int) -> np.ndarray:
    if n <= max_points:
        return np.arange(n)
    return np.unique(np.round(np.linspace(0, n - 1, max_points)).astype(int))


def _prune_loops(positions: np.ndarray) -> np.ndarray:
    """Kept indices after removing out-and-back excursions: whenever the
    polyline wanders far and returns next to an earlier point, skip the
    excursion.  Segment-repair pushes can leave such loops in the state
    sequence, and seeding a spline with them strands the optimizer in a
    self-intersecting local minimum."""
    n = len(positions)
    gaps = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    if n < 4 or not np.any(gaps > 0):
        return np.arange(n)
    tol = 1.5 * float(np.median(gaps[gaps > 0]))
    arc = np.concatenate([[0.0], np.cumsum(gaps)])
    keep = []
    i = 0
    while i < n:
        keep.append(i)
        nxt = i + 1
        for j in range(n - 1, i + 1, -1):
            if (np.linalg.norm(positions[j] - positions[i]) < tol
                    and arc[j] - arc[i] > 4 * tol):
                nxt = j
                break
        i = nxt
    return np.array(keep)


def _arc_fractions(positions: np.ndarray) -> np.ndarray:
    seg = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    if arc[-1] > 1e-12:
        return arc / arc[-1]
    return np.linspace(0.0, 1.0, len(positions))


def _junction_yaw_ramp(positions: np.ndarray, yaws_raw: np.ndarray) -> np.ndarray:
    dy = (yaws_raw[-1] - yaws_raw[0] + np.pi) % (2 * np.pi) - np.pi
    return yaws_raw[0] + _arc_fractions(positions) * dy


def _sub_geometry(sub, v_max: float):
    """Initial (boundary states, waypoints, durations, yaw series) for a
    sub-problem: positions from decimated states, yaw unwrapped from the
    states' kernel yaws, durations from arc length at half v_max."""
    positions = np.array([s.position for s in sub.states])
    yaws_raw = np.array([s.yaw for s in sub.states])
    if sub.kind == "R2":
        # translation-dominant slice: interior orientation picks are per-point
        # and can flip between symmetric aliases, so only the junction yaws
        # are meaningful; take the shortest rotation between them
        yaws = _junction_yaw_ramp(positions, yaws_raw)
    else:
        # High-risk orientations are placeholders (no collision-free kernel
        # yaw exists there); seed them by interpolating between the
        # surrounding trusted yaws instead
        trusted = np.array([s.risk != "HighRisk" for s in sub.states])
        if trusted.any() and not trusted.all():
            idx_all = np.arange(len(yaws_raw))
            yaws = np.interp(idx_all, idx_all[trusted], np.unwrap(yaws_raw[trusted]))
        else:
            yaws = np.unwrap(yaws_raw)
    kept = _prune_loops(positions)
    positions, yaws = positions[kept], yaws[kept]
    idx = _decimate_indices(len(positions), _MAX_WAYPOINTS)
    pts = positions[idx]
    yw = yaws[idx]
    # drop coincident nodes
    keep = [0]
    for i in range(1, len(pts)):
        if np.linalg.norm(pts[i] - pts[keep[-1]]) > 1e-9 or i == len(pts) - 1:
            keep.append(i)
    pts, yw = pts[keep], yw[keep]
    if len(pts) < 2 or np.linalg.norm(pts[-1] - pts[0]) < 1e-9 and len(pts) == 2:
        raise DegenerateInputError("sub-problem has no spatial extent")
    seg_len = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    durations = np.maximum(seg_len / (v_max / 2), 0.1)
    q = np.column_stack([pts, yw])
    start = np.zeros((3, 3))
    end = np.zeros((3, 3))
    start[0] = q[0]
    end[0] = q[-1]
    return start, end, q[1:-1], durations


def _run_solver(spline: MincoSpline, waypoints0, durations0, stages, budget: int,
                accept=None):
    """Solve min cost over (waypoints, durations) through one or more cost
    stages, warm-starting each stage from the previous solution.  When an
    `accept` predicate is given, later stages (typically with escalated
    penalty weights) run only while it rejects the current trajectory, and
    its verdict on the returned trajectory is returned (None without one).
    Reported terms always come from the first stage's cost."""
    m = spline.n_pieces
    dim = spline.dim
    nq = (m - 1) * dim

    def unpack(x):
        q = x[:nq].reshape(m - 1, dim)
        t = _softplus(x[nq:])
        return q, t

    def make_objective(cost_fn):
        def objective(x):
            q, t = unpack(x)
            traj = spline.set_params(q, t)
            cost, _, grad_c, grad_t = cost_fn(traj)
            gq, gt = spline.gradients(grad_c, grad_t)
            sig = expit(x[nq:])  # d softplus / d tau
            return cost, np.concatenate([gq.ravel(), gt * sig])
        return objective

    x = np.concatenate([np.asarray(waypoints0, dtype=float).ravel(),
                        _softplus_inv(np.asarray(durations0, dtype=float))])
    iters = 0
    converged = False
    traj = None
    accepted = None
    for cost_fn in stages:
        x, _, it, converged = lbfgs(make_objective(cost_fn), x, max_iter=budget)
        iters += it
        q, t = unpack(x)
        traj = spline.set_params(q, t)
        if accept is not None:
            accepted = accept(traj)
            if accepted:
                break
    _, terms, _, _ = stages[0](traj)
    return traj, terms, iters, converged, accepted


def se2_optimize(sub, weights: Weights, shape: RobotShape, grid: OccupancyGrid,
                 budget: int) -> OptOutcome:
    """Optimize one high-risk sub-problem in full SE(2) with swept-volume
    safety; the outcome's collision_free flag is set by an independent
    continuous collision check at zero margin."""
    start, end, wps, durs = _sub_geometry(sub, weights.v_max)
    positions = np.array([s.position for s in sub.states])
    pad = shape.circumradius + weights.d_safe + 2 * grid.resolution
    lo = positions.min(axis=0) - pad
    hi = positions.max(axis=0) + pad
    center = (lo + hi) / 2
    obstacles = extract_obstacles(grid, center, float(np.max(hi - center)))
    spline = MincoSpline(start, end, len(durs))

    def make_stage(w):
        def cost_fn(traj):
            # quadrature guidance only; the continuous check below stays strict
            return se2_cost(traj, w, shape, obstacles)
        return cost_fn

    # escalate the safety weight while the strict check keeps failing; the
    # millimetric residual penetrations a balanced optimum leaves behind
    # vanish once safety dominates the smoothness trade-off
    stages = [make_stage(weights)]
    for boost in (10.0, 100.0):
        stages.append(make_stage(replace(weights, lam_s=weights.lam_s * boost)))

    def accept(traj):
        return continuous_check(traj, shape, grid, margin=0.0).clear

    traj, terms, iters, converged, clear = _run_solver(spline, wps, durs, stages, budget,
                                                       accept=accept)
    return OptOutcome(traj, converged, terms, iters, collision_free=clear)


def r2_optimize(sub, weights: Weights, budget: int) -> OptOutcome:
    """Optimize a low-risk sub-problem with residual tracking only; final
    safety is certified later by the pipeline's whole-trajectory check."""
    start, end, wps, durs = _sub_geometry(sub, weights.v_max)
    positions = np.array([s.position for s in sub.states])
    yaws_raw = np.array([s.yaw for s in sub.states])
    yaws = _junction_yaw_ramp(positions, yaws_raw)
    fractions = _arc_fractions(positions)
    spline = MincoSpline(start, end, len(durs))

    def cost_fn(traj):
        return r2_cost(traj, weights, positions, yaws, fractions)

    traj, terms, iters, converged, _ = _run_solver(spline, wps, durs, [cost_fn], budget)
    return OptOutcome(traj, converged, terms, iters, collision_free=None)
