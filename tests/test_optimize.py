import tracemalloc

import numpy as np
import pytest

from se2plan.minco import MincoSpline, construct, control_effort
from se2plan.optimize import (DegenerateInputError, Weights, lbfgs, r2_cost, r2_optimize,
                              se2_cost, se2_optimize, smoothing_grad)
from se2plan.sequence import HIGH_RISK, LOW_RISK, MotionState, SubProblem
from se2plan.sweep import continuous_check

from conftest import empty_grid, grid_from_cells


def test_smoothing_closed_form():
    mu = 0.01
    assert smoothing_grad(-1.0, mu)[0] == 0.0
    assert smoothing_grad(0.0, mu)[0] == 0.0
    assert smoothing_grad(mu, mu)[0] == pytest.approx(mu / 2)
    assert smoothing_grad(0.5, mu)[0] == pytest.approx(0.5 - mu / 2)
    with pytest.raises(ValueError):
        smoothing_grad(0.1, 0.0)


def test_smoothing_seams_are_c2():
    # the second derivative is zero on both sides of each seam; estimate it
    # by finite-differencing the analytic first derivative across the seam
    mu = 0.01
    h = 1e-6
    for seam in (0.0, mu):
        _, d_plus = smoothing_grad(seam + h, mu)
        _, d_minus = smoothing_grad(seam - h, mu)
        assert d_plus == pytest.approx(d_minus, abs=1e-4)  # C1
        fd2 = (d_plus - d_minus) / (2 * h)
        assert abs(fd2) < 0.05  # C2: curvature vanishes at the seams


def test_smoothing_grad_matches_fd(rng):
    mu = 0.01
    xs = rng.uniform(-0.02, 0.05, 50)
    h = 1e-8
    for x in xs:
        if min(abs(x), abs(x - mu)) < 10 * h:
            continue
        _, d = smoothing_grad(float(x), mu)
        fd = (smoothing_grad(x + h, mu)[0] - smoothing_grad(x - h, mu)[0]) / (2 * h)
        assert d == pytest.approx(fd, abs=1e-5)


def test_weights_validation():
    with pytest.raises(ValueError):
        Weights(lam_s=-1.0)
    with pytest.raises(ValueError):
        Weights(mu=0.0)


def test_lbfgs_quadratic():
    target = np.array([1.0, -2.0, 3.0])

    def fun(x):
        d = x - target
        return float(d @ d), 2 * d

    x, f, it, converged = lbfgs(fun, np.zeros(3))
    assert converged and f < 1e-8
    assert np.allclose(x, target, atol=1e-4)


def test_lbfgs_rosenbrock():
    def fun(x):
        a, b = x
        f = (1 - a) ** 2 + 100 * (b - a**2) ** 2
        g = np.array([-2 * (1 - a) - 400 * a * (b - a**2), 200 * (b - a**2)])
        return f, g

    x, f, it, converged = lbfgs(fun, np.array([-1.2, 1.0]), max_iter=500)
    assert f < 1e-6
    assert np.allclose(x, [1.0, 1.0], atol=1e-2)


def random_se2_setup(rng, n_pieces=2):
    start = np.zeros((3, 3))
    end = np.zeros((3, 3))
    start[0] = [0.0, 0.0, 0.1]
    end[0] = [1.2, 0.5, 0.4]
    waypoints = rng.uniform(0.1, 1.0, (n_pieces - 1, 3))
    durations = rng.uniform(0.8, 1.6, n_pieces)
    spline = MincoSpline(start, end, n_pieces)
    return spline, waypoints, durations


def test_se2_cost_free_space_terms(rng, slim_rect):
    spline, wps, durs = random_se2_setup(rng)
    traj = spline.set_params(wps, durs)
    weights = Weights(v_max=50.0, w_max=50.0)
    cost, terms, _, _ = se2_cost(traj, weights, slim_rect, np.zeros((0, 2)))
    assert terms["J_s"] == 0.0
    assert terms["J_d"] == pytest.approx(0.0, abs=1e-12)
    expected = weights.lam_m * terms["J_m"] + weights.lam_t * terms["J_t"]
    assert cost == pytest.approx(expected)


def test_se2_cost_dead_zone(rng, slim_rect):
    spline, wps, durs = random_se2_setup(rng)
    traj = spline.set_params(wps, durs)
    weights = Weights(d_safe=0.02)
    far = np.array([[50.0, 50.0]])
    _, terms, gc, gt = se2_cost(traj, weights, slim_rect, far)
    _, terms0, gc0, gt0 = se2_cost(traj, weights, slim_rect, np.zeros((0, 2)))
    assert terms["J_s"] == 0.0
    assert np.allclose(gc, gc0) and np.allclose(gt, gt0)


def _fd_check_cost(spline, wps, durs, cost_of, rel_tol=1e-3, h=1e-6, rng=None):
    """Finite-difference the cost through the MINCO parameterization."""
    traj = spline.set_params(wps, durs)
    cost, _, grad_c, grad_t = cost_of(traj)
    gq, gt = spline.gradients(grad_c, grad_t)

    def value(w, t):
        c, _, _, _ = cost_of(spline.set_params(w, t))
        return c

    flat = np.concatenate([gq.ravel(), gt])
    n_q = gq.size
    idx_all = np.arange(flat.size)
    picks = idx_all if rng is None else rng.choice(idx_all, min(6, flat.size), replace=False)
    for i in picks:
        wp = wps.copy()
        tp = durs.copy()
        if i < n_q:
            wp.ravel()[i] += h
            fp = value(wp, tp)
            wp.ravel()[i] -= 2 * h
            fm = value(wp, tp)
        else:
            tp[i - n_q] += h
            fp = value(wp, tp)
            tp[i - n_q] -= 2 * h
            fm = value(wp, tp)
        fd = (fp - fm) / (2 * h)
        if abs(fd) > 1e-5:
            assert abs(flat[i] - fd) / abs(fd) < rel_tol, (i, flat[i], fd)
        else:
            assert abs(flat[i] - fd) < 1e-4


def test_se2_cost_gradients_match_fd(rng, slim_rect):
    obstacles = np.array([[0.6, 0.6], [0.9, 0.1], [0.3, 0.8]])
    weights = Weights(d_safe=0.05, lam_s=10.0, lam_d=5.0, v_max=0.8, w_max=1.0)
    for _ in range(5):
        spline, wps, durs = random_se2_setup(rng)

        def cost_of(traj):
            return se2_cost(traj, weights, slim_rect, obstacles)

        _fd_check_cost(spline, wps, durs, cost_of, rng=rng)


def test_r2_cost_exact_anchor_tracking_zero_residual(slim_rect):
    # trajectory that sits exactly on a straight constant-yaw anchor line;
    # anchors dense enough that nearest-anchor residuals are negligible
    n_anchors = 201
    anchors = np.stack([np.linspace(0, 1, n_anchors), np.zeros(n_anchors)], axis=1)
    yaws = np.zeros(n_anchors)
    start = np.zeros((3, 3))
    end = np.zeros((3, 3))
    start[0] = [0, 0, 0]
    end[0] = [1, 0, 0]
    start[1, 0] = end[1, 0] = 0.5  # constant-velocity straight line
    _, traj = construct(start, end, np.array([[0.5, 0.0, 0.0]]), [1.0, 1.0])
    fractions = np.linspace(0, 1, n_anchors)
    _, terms, _, _ = r2_cost(traj, Weights(), anchors, yaws, fractions)
    assert terms["G_p"] == pytest.approx(0.0, abs=1e-9)
    assert terms["G_R"] == pytest.approx(0.0, abs=1e-9)


def test_r2_cost_gradients_match_fd(rng):
    anchors = rng.uniform(0, 1, (4, 2))
    yaws = rng.uniform(-0.5, 0.5, 4)
    fractions = np.linspace(0, 1, 4)
    weights = Weights(lam_p=10.0, lam_r=10.0)
    for _ in range(5):
        spline, wps, durs = random_se2_setup(rng)

        def cost_of(traj):
            return r2_cost(traj, weights, anchors, yaws, fractions)

        _fd_check_cost(spline, wps, durs, cost_of, rng=rng)


def make_sub(kind, positions, yaws=None, risks=None):
    n = len(positions)
    if yaws is None:
        yaws = [0.0] * n
    if risks is None:
        risks = [HIGH_RISK if kind == "SE2" else LOW_RISK] * n
    states = tuple(MotionState(np.asarray(p, float), k, r)
                   for p, k, r in zip(positions, yaws, risks))
    return SubProblem(kind, states, 0)


def test_r2_optimize_straight_line(slim_rect):
    positions = np.stack([np.linspace(0.3, 2.0, 12), np.full(12, 1.0)], axis=1)
    sub = make_sub("R2", positions)
    out = r2_optimize(sub, Weights(), budget=100)
    assert out.converged
    assert out.collision_free is None
    start = out.trajectory.eval(0.0, 0)
    end = out.trajectory.eval(out.trajectory.total_duration, 0)
    assert np.allclose(start[:2], [0.3, 1.0], atol=1e-9)
    assert np.allclose(end[:2], [2.0, 1.0], atol=1e-9)


def test_degenerate_subproblem_raises():
    sub = make_sub("R2", [(1.0, 1.0), (1.0, 1.0)])
    with pytest.raises(DegenerateInputError):
        r2_optimize(sub, Weights(), budget=100)


def test_se2_optimize_free_corridor_near_min_jerk(slim_rect):
    grid = empty_grid(30)
    positions = np.stack([np.linspace(0.6, 2.4, 12), np.full(12, 1.5)], axis=1)
    sub = make_sub("SE2", positions, risks=[LOW_RISK] * 12)
    weights = Weights()
    out = se2_optimize(sub, weights, slim_rect, grid, budget=120)
    assert out.collision_free
    report = continuous_check(out.trajectory, slim_rect, grid)
    assert report.clear
    # compare against the unconstrained min-jerk spline on the same geometry
    durations = np.array(out.trajectory.durations)
    edges = np.cumsum(durations)[:-1]
    wps = out.trajectory.eval_many(edges, 0)
    start = np.zeros((3, 3))
    end = np.zeros((3, 3))
    start[0] = out.trajectory.eval(0.0, 0)
    end[0] = out.trajectory.eval(out.trajectory.total_duration, 0)
    _, free = construct(start, end, wps, durations)
    assert control_effort(out.trajectory) <= 1.1 * control_effort(free) + 1e-9


def test_se2_optimize_impossible_gap_fails_cleanly(slim_rect):
    # a 0.1 m slit is narrower than the robot's 0.2 m cross-section
    cells = np.ones((30, 30), dtype=bool)
    cells[:, 0:10] = False
    cells[:, 20:30] = False
    cells[14, 10:20] = False
    grid = grid_from_cells(cells)
    xs = np.linspace(0.5, 2.5, 15)
    positions = np.stack([xs, np.full(15, 1.45)], axis=1)
    sub = make_sub("SE2", positions)
    out = se2_optimize(sub, Weights(), slim_rect, grid, budget=40)
    assert out.collision_free is False


def test_se2_cost_memory_stays_below_the_per_piece_loop(slim_rect):
    # one 8-piece x 512-obstacle evaluation; the per-piece loop this replaced
    # peaked at 4.9 MB, and vectorising across pieces without the exact-zero
    # cull of far (sample, obstacle) pairs would peak near 29 MB
    rng = np.random.default_rng(0)
    start = np.zeros((3, 3))
    end = np.zeros((3, 3))
    start[0] = [0.7, 1.25, 0.0]
    end[0] = [3.4, 1.85, 0.0]
    fractions = np.linspace(0.0, 1.0, 9)[1:-1, None]
    waypoints = start[0] + fractions * (end[0] - start[0]) + rng.normal(0.0, 0.05, (7, 3))
    _, traj = construct(start, end, waypoints, np.full(8, 0.6))
    obstacles = np.random.default_rng(5).uniform(0.0, 4.0, (512, 2))
    weights = Weights()
    se2_cost(traj, weights, slim_rect, obstacles)
    tracemalloc.start()
    try:
        se2_cost(traj, weights, slim_rect, obstacles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.9e6
