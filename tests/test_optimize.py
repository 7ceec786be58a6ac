import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

import se2plan.optimize
from se2plan.minco import MincoSpline, Trajectory, construct, control_effort
from se2plan.optimize import (DegenerateInputError, Weights, _dynamics_penalty,
                              _safety_penalty, _sigmoid, lbfgs, r2_cost, r2_optimize, se2_cost,
                              se2_optimize, smoothing_grad)
from se2plan.sequence import SubProblem
from se2plan.sweep import CollisionReport, continuous_check

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


def test_sigmoid_matches_expit_bit_for_bit(rng):
    # the duration chain rule used scipy's expit; any other rounding changes
    # every solve's iterates, and so every plan
    t = np.concatenate([rng.normal(0.0, 5.0, 20000), rng.uniform(-800.0, 800.0, 20000),
                        [np.inf, -np.inf, 1000.0, -1000.0, 709.9, -709.9, 0.0, -0.0, np.nan]])
    ours = np.array([_sigmoid(tau) for tau in t])
    assert np.array_equal(ours.view(np.int64), expit(t).view(np.int64))


def test_weights_validation():
    with pytest.raises(ValueError):
        Weights(lam_s=-1.0)
    with pytest.raises(ValueError):
        Weights(mu=0.0)
    # a limit of 0 used to fail inside the solver, a negative one planned as
    # its absolute value, and NaN compares false to everything
    for name in ("v_max", "w_max"):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match=f"{name} must be > 0"):
                Weights(**{name: bad})
    # NaN and infinite values fail here, not inside the solver
    for name in ("lam_m", "lam_t", "lam_s", "lam_d", "lam_p", "d_safe"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be >= 0 and finite"):
                Weights(**{name: bad})
    for name in ("mu", "v_max", "w_max"):
        with pytest.raises(ValueError, match=f"{name} must be > 0 and finite"):
            Weights(**{name: float("inf")})


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


def test_lbfgs_stops_converged_on_a_large_noisy_objective():
    # an ill-conditioned bowl of order 1e4 in 30 parameters (the cost scale
    # and size of an R^2 solve) whose gradient carries noise of 1e-3, so
    # max|g| never falls below 1e-5: the solve converges relative to its own
    # scale, well before its budget, and close to the minimum
    rng = np.random.default_rng(0)
    target = np.linspace(-2.0, 3.0, 30)
    curvature = np.geomspace(1.0, 1e-4, 30)

    def fun(x):
        d = x - target
        return (1e4 * (1.0 + d @ (curvature * d)),
                2e4 * curvature * d + rng.uniform(-1e-3, 1e-3, d.size))

    x, f, it, converged = lbfgs(fun, np.zeros(30), max_iter=200)
    assert converged and it < 150
    assert f - 1e4 < 1e-3 * 1e4


def test_lbfgs_failed_line_search_returns_the_last_accepted_point():
    # an anisotropic quadratic whose value turns NaN after four evaluations,
    # so every trial step of the line search after them fails
    points = []

    def fun(x):
        points.append(x.copy())
        f = (x[0] - 3.0) ** 2 + 10 * (x[1] + 1.0) ** 2
        g = np.array([2 * (x[0] - 3.0), 20 * (x[1] + 1.0)])
        return (f if len(points) <= 4 else float("nan")), g

    x, f, it, converged = lbfgs(fun, np.zeros(2), max_iter=200)
    assert not converged
    assert np.isfinite(f)
    assert f == (x[0] - 3.0) ** 2 + 10 * (x[1] + 1.0) ** 2
    assert any(np.array_equal(x, p) for p in points[1:4])  # an accepted step
    assert it < 200


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
    no_obstacles = np.zeros((0, 2))
    cost, _, _ = se2_cost(traj, weights, slim_rect, no_obstacles)
    assert _safety_penalty(traj, weights, slim_rect, no_obstacles)[0] == 0.0
    assert _dynamics_penalty(traj, weights)[0] == pytest.approx(0.0, abs=1e-12)
    expected = weights.lam_m * control_effort(traj) + weights.lam_t * traj.total_duration
    assert cost == pytest.approx(expected)


def test_se2_cost_dead_zone(rng, slim_rect):
    spline, wps, durs = random_se2_setup(rng)
    traj = spline.set_params(wps, durs)
    weights = Weights(d_safe=0.02)
    far = np.array([[50.0, 50.0]])
    _, gc, gt = se2_cost(traj, weights, slim_rect, far)
    _, gc0, gt0 = se2_cost(traj, weights, slim_rect, np.zeros((0, 2)))
    assert _safety_penalty(traj, weights, slim_rect, far)[0] == 0.0
    assert np.allclose(gc, gc0) and np.allclose(gt, gt0)


def _fd_check_cost(spline, wps, durs, cost_of, rel_tol=1e-3, h=1e-6, rng=None):
    """Finite-difference the cost through the MINCO parameterization."""
    traj = spline.set_params(wps, durs)
    cost, grad_c, grad_t = cost_of(traj)
    gq, gt = spline.gradients(grad_c, grad_t)

    def value(w, t):
        c, _, _ = cost_of(spline.set_params(w, t))
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
    # trajectory that sits exactly on a straight anchor line; the
    # interpolated anchor curve is the trajectory's own line
    n_anchors = 201
    anchors = np.stack([np.linspace(0, 1, n_anchors), np.zeros(n_anchors)], axis=1)
    start = np.zeros((3, 3))
    end = np.zeros((3, 3))
    start[0] = [0, 0, 0]
    end[0] = [1, 0, 0]
    start[1, 0] = end[1, 0] = 0.5  # constant-velocity straight line
    _, traj = construct(start, end, np.array([[0.5, 0.0, 0.0]]), [1.0, 1.0])
    fractions = np.linspace(0, 1, n_anchors)
    # the residual alone: the cost with every other weight zeroed
    g_p, _, _ = r2_cost(traj, Weights(lam_m=0.0, lam_t=0.0, lam_p=1.0), anchors, fractions)
    assert g_p == pytest.approx(0.0, abs=1e-9)


def test_r2_cost_gradients_match_fd(rng):
    anchors = rng.uniform(0, 1, (4, 2))
    fractions = np.linspace(0, 1, 4)
    weights = Weights(lam_p=10.0)
    for _ in range(5):
        spline, wps, durs = random_se2_setup(rng)

        def cost_of(traj):
            return r2_cost(traj, weights, anchors, fractions)

        _fd_check_cost(spline, wps, durs, cost_of, rng=rng)


def test_r2_cost_is_continuous_in_the_durations():
    # move the durations +-0.2 % along a fixed direction (coefficients held,
    # as in r2_cost's duration partial) at 4001 points: every step of the cost
    # matches the trapezoid of its duration gradient to rounding, so no
    # anchor switch makes the cost jump where the gradient does not see it
    rng = np.random.default_rng(26)
    m = 6
    start = np.zeros((3, 3))
    end = np.zeros((3, 3))
    end[0] = [3.0, 1.0, 0.8]
    waypoints = np.column_stack([np.linspace(0.0, 3.0, m + 1)[1:-1],
                                 rng.uniform(-0.3, 1.3, m - 1), rng.uniform(-0.5, 1.0, m - 1)])
    _, traj = construct(start, end, waypoints, rng.uniform(0.5, 1.5, m))
    ts = np.linspace(0.0, traj.total_duration, 24)
    anchors = traj.eval_many(ts, 0) + rng.uniform(-0.15, 0.15, (24, 3))
    # a repeated anchor: a zero-length segment of the anchor curve
    anchors = np.insert(anchors, 10, anchors[10], axis=0)
    fractions = np.insert(ts / ts[-1], 10, ts[10] / ts[-1])
    direction = rng.normal(size=m)
    direction /= np.linalg.norm(direction)
    durations = traj.durations * (1 + np.linspace(-0.002, 0.002, 4001)[:, None] * direction)
    costs, grads = [], []
    for t in durations:
        cost, _, grad_t = r2_cost(Trajectory(t, traj.coeffs), Weights(), anchors[:, :2],
                                  fractions)
        costs.append(cost)
        grads.append(grad_t)
    costs, grads = np.array(costs), np.array(grads)
    assert np.all(np.isfinite(grads)) and costs.min() > 100.0
    predicted = 0.5 * np.sum((grads[1:] + grads[:-1]) * np.diff(durations, axis=0), axis=1)
    assert np.max(np.abs(np.diff(costs) - predicted)) <= 1e-12 * costs.max()


def make_sub(kind, positions, yaws=None):
    if yaws is None:
        yaws = [0.0] * len(positions)
    states = np.column_stack([np.asarray(positions, float), yaws])
    return SubProblem(kind, states)


def test_r2_optimize_straight_line(slim_rect):
    positions = np.stack([np.linspace(0.3, 2.0, 12), np.full(12, 1.0)], axis=1)
    sub = make_sub("R2", positions)
    out = r2_optimize(sub, Weights(), budget=100)
    assert out.converged
    assert out.collision_free is None
    start = out.trajectory.eval_many([0.0], 0)[0]
    end = out.trajectory.eval_many([out.trajectory.total_duration], 0)[0]
    assert np.allclose(start[:2], [0.3, 1.0], atol=1e-9)
    assert np.allclose(end[:2], [2.0, 1.0], atol=1e-9)


def test_r2_solve_fixes_yaw_on_its_ramp_and_se2_re_solve_keeps_it_free(monkeypatch,
                                                                      slim_rect):
    # an R^2 solve packs the (x, y) waypoints and the durations, 2(M-1) + M
    # variables, and holds each interior yaw waypoint on the ramp in arc
    # fraction between the junction yaws; the SE(2) re-solve of the same R2
    # sub (as after a failed check) packs all 3(M-1) + M
    sizes = []
    solve = se2plan.optimize.lbfgs

    def recording_lbfgs(fun, x0, **kwargs):
        sizes.append(len(x0))
        return solve(fun, x0, **kwargs)

    monkeypatch.setattr(se2plan.optimize, "lbfgs", recording_lbfgs)
    # nine states, so every state is a waypoint; the junction yaws 3.0 and
    # 2 pi - 3.0 are 0.283 apart through pi, as the sequence's continuous yaw
    # column stores them, and the interior yaws are ignored
    n = 9
    positions = np.column_stack([np.linspace(0.4, 2.4, n),
                                 1.5 + 0.2 * np.sin(np.linspace(0.0, 3.0, n))])
    yaws = np.concatenate([[3.0], np.random.default_rng(7).uniform(-np.pi, np.pi, n - 2),
                           [2 * np.pi - 3.0]])
    sub = make_sub("R2", positions, yaws)
    traj = r2_optimize(sub, Weights(), budget=40).trajectory
    m = traj.n_pieces
    assert m == n - 1 and sizes == [2 * (m - 1) + m]
    arc = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(positions, axis=0).T))])
    ramp = 3.0 + arc / arc[-1] * (2 * np.pi - 6.0)
    at_waypoints = traj.eval_many(np.cumsum(traj.durations)[:-1], 0)[:, 2]
    assert np.max(np.abs(at_waypoints - ramp[1:-1])) <= 1e-9
    sizes.clear()
    se2_optimize(sub, Weights(), slim_rect, empty_grid(30), budget=20)
    assert sizes and set(sizes) == {3 * (m - 1) + m}


def test_degenerate_subproblem_raises():
    for positions in ([(1.0, 1.0), (1.0, 1.0)], [(1.0, 1.0)] * 3):
        with pytest.raises(DegenerateInputError):
            r2_optimize(make_sub("R2", positions), Weights(), budget=100)


def test_se2_optimize_free_corridor_near_min_jerk(slim_rect):
    grid = empty_grid(30)
    positions = np.stack([np.linspace(0.6, 2.4, 12), np.full(12, 1.5)], axis=1)
    sub = make_sub("SE2", positions)
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
    start[0] = out.trajectory.eval_many([0.0], 0)[0]
    end[0] = out.trajectory.eval_many([out.trajectory.total_duration], 0)[0]
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


@pytest.fixture
def se2_rungs(monkeypatch, slim_rect):
    """se2_optimize on a free corridor with its continuous check returning the
    verdicts in `verdicts` in turn; records the lam_s of every se2_cost
    evaluation and the iterations of every lbfgs solve."""
    record = {"lam_s": [], "iterations": [], "verdicts": []}
    cost = se2plan.optimize.se2_cost
    solve = se2plan.optimize.lbfgs

    def recording_cost(traj, weights, *args):
        record["lam_s"].append(weights.lam_s)
        return cost(traj, weights, *args)

    def recording_lbfgs(*args, **kwargs):
        out = solve(*args, **kwargs)
        record["iterations"].append(out[2])
        return out

    def scripted_check(*args):
        return CollisionReport("clear" if record["verdicts"].pop(0) else "colliding")

    monkeypatch.setattr(se2plan.optimize, "se2_cost", recording_cost)
    monkeypatch.setattr(se2plan.optimize, "continuous_check", scripted_check)
    monkeypatch.setattr(se2plan.optimize, "lbfgs", recording_lbfgs)
    positions = np.stack([np.linspace(0.6, 2.4, 12), np.full(12, 1.5)], axis=1)
    sub = make_sub("SE2", positions)

    def run(verdicts):
        record["lam_s"].clear()
        record["iterations"].clear()
        record["verdicts"] = list(verdicts)
        return se2_optimize(sub, Weights(), slim_rect, empty_grid(30), budget=30)
    return record, run


def test_se2_optimize_clear_first_solve_is_not_re_solved(se2_rungs):
    record, run = se2_rungs
    out = run([True])
    assert out.collision_free is True
    assert set(record["lam_s"]) == {Weights().lam_s}
    assert record["verdicts"] == []
    assert out.iterations == record["iterations"][0] and len(record["iterations"]) == 1


def test_se2_optimize_re_solves_a_rejected_solve_with_tenfold_safety(se2_rungs):
    record, run = se2_rungs
    lam_s = Weights().lam_s
    out = run([False, True])
    assert out.collision_free is True
    n_first = record["lam_s"].index(10 * lam_s)
    assert set(record["lam_s"][:n_first]) == {lam_s}
    assert set(record["lam_s"][n_first:]) == {10 * lam_s}
    assert len(record["iterations"]) == 2
    assert out.iterations == sum(record["iterations"])


def test_se2_optimize_rejected_twice_is_not_collision_free(se2_rungs):
    record, run = se2_rungs
    out = run([False, False])
    assert out.collision_free is False
    assert record["lam_s"][-1] == 10 * Weights().lam_s
    assert record["verdicts"] == []
