"""Acceptance gate: one test (and one pass/fail line under pytest -v) per
release criterion, with pinned tolerances.  Every check is validated against
an independent oracle (brute-force geometry, central finite differences,
closed-form solutions, or dense time-grid collision sampling) rather than
against the implementation itself.
"""

import itertools
import time

import numpy as np
import pytest

from se2plan.cli import EXIT_OK, main
from se2plan.gridmap import dump_map, inflate
from se2plan.minco import MincoSpline, basis, construct, control_effort, control_effort_gradients
from se2plan.optimize import Weights, r2_cost, se2_cost, smoothing, smoothing_grad
from se2plan.pipeline import PlanConfig, plan
from se2plan.shape import (build_kernel, inscribed_radius, kernel_collides, polygon_sdf,
                           rectangle, rotation, sdf_gradient_world)
from se2plan.sweep import swept_sdf_batch
from se2plan.topo import build_roadmap, dedup_paths, extract_paths, simplify_path

from conftest import baffle_grid, random_obstacle_grid, random_simple_polygon, wall_grid
from test_shape import brute_force_sdf


def dense_min_sdf(traj, shape, points, n_samples):
    """Independent oracle: min over a dense time grid of the body SDF at the
    pose-transformed points.  points is (P, 2); returns the scalar minimum."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    ts = np.linspace(0.0, traj.total_duration, n_samples)
    states = traj.eval_many(ts, 0)
    pos, yaw = states[:, :2], states[:, 2]
    cs, sn = np.cos(yaw), np.sin(yaw)
    d = points[None, :, :] - pos[:, None, :]
    body = np.stack([cs[:, None] * d[..., 0] + sn[:, None] * d[..., 1],
                     -sn[:, None] * d[..., 0] + cs[:, None] * d[..., 1]], axis=-1)
    return float(np.min(shape.sdf(body)))


def test_criterion_01_sdf_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(20):
        shape = random_simple_polygon(rng)
        pts = rng.uniform(-1.5, 1.5, (1000, 2))
        vals = polygon_sdf(shape.vertices, pts)
        for p, v in zip(pts, vals):
            assert abs(v - brute_force_sdf(shape.vertices, p)) < 1e-9
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_gradient_suite_matches_finite_differences():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    h = 1e-6
    rel = 1e-3

    def close(analytic, fd):
        if abs(fd) > 1e-5:
            assert abs(analytic - fd) / abs(fd) < rel, (analytic, fd)
        else:
            assert abs(analytic - fd) < 1e-4

    # family 1: smoothed ramp derivative
    checked = 0
    while checked < 50:
        mu = float(rng.uniform(0.005, 0.05))
        x = float(rng.uniform(-mu, 3 * mu))
        if min(abs(x), abs(x - mu)) < 10 * h:
            continue
        _, d = smoothing_grad(x, mu)
        close(d, (smoothing(x + h, mu) - smoothing(x - h, mu)) / (2 * h))
        checked += 1

    # family 2: composed world gradient of the exact body SDF (skip queries
    # whose FD stencil would come near the boundary or, inside, the medial
    # axis, the square's diagonals, where the SDF is not differentiable)
    square = rectangle(1.0, 1.0)
    checked = 0
    while checked < 50:
        pos = rng.uniform(-0.1, 0.1, 2)
        yaw = float(rng.uniform(-np.pi, np.pi))
        x_obs = pos + rotation(yaw) @ rng.uniform(-0.6, 0.6, 2)
        bx, by = np.abs(rotation(yaw).T @ (x_obs - pos))
        if abs(max(bx, by) - 0.5) < 10 * h or (max(bx, by) < 0.5 and abs(bx - by) < 10 * h):
            continue
        _, grad = sdf_gradient_world(square, x_obs, pos, yaw)
        for ax in range(2):
            e = np.zeros(2)
            e[ax] = h
            fp, _ = sdf_gradient_world(square, x_obs + e, pos, yaw)
            fm, _ = sdf_gradient_world(square, x_obs - e, pos, yaw)
            close(grad[ax], (fp - fm) / (2 * h))
        checked += 1

    # families 3-5: MINCO effort, SE(2) cost, R^2 cost through the spline
    # parameterization (waypoints and durations)
    shape = rectangle(1.0, 0.2)
    obstacles = np.array([[0.6, 0.6], [0.9, 0.1], [0.3, 0.8]])
    se2_weights = Weights(d_safe=0.05, lam_s=10.0, lam_d=5.0, v_max=0.8, w_max=1.0)
    r2_weights = Weights(lam_p=10.0, lam_r=10.0)
    anchors = rng.uniform(0, 1, (4, 2))
    anchor_yaws = rng.uniform(-0.5, 0.5, 4)
    fractions = np.linspace(0, 1, 4)

    def effort_cost(traj):
        jm, gc, gt = control_effort_gradients(traj)
        return jm, gc, gt

    def se2_full(traj):
        cost, _, gc, gt = se2_cost(traj, se2_weights, shape, obstacles)
        return cost, gc, gt

    def r2_full(traj):
        cost, _, gc, gt = r2_cost(traj, r2_weights, anchors, anchor_yaws, fractions)
        return cost, gc, gt

    for cost_of in (effort_cost, se2_full, r2_full):
        for _ in range(50):
            start = np.zeros((3, 3))
            end = np.zeros((3, 3))
            start[0] = [0.0, 0.0, 0.1]
            end[0] = [1.2, 0.5, 0.4]
            wps = rng.uniform(0.1, 1.0, (1, 3))
            durs = rng.uniform(0.8, 1.6, 2)
            spline = MincoSpline(start, end, 2)
            traj = spline.set_params(wps, durs)
            _, grad_c, grad_t = cost_of(traj)
            gq, gt = spline.gradients(grad_c, grad_t)
            flat = np.concatenate([gq.ravel(), gt])
            i = int(rng.integers(0, flat.size))

            def value(w, t):
                c, _, _ = cost_of(spline.set_params(w, t))
                return c

            wp, tp = wps.copy(), durs.copy()
            if i < gq.size:
                wp.ravel()[i] += h
                fp = value(wp, tp)
                wp.ravel()[i] -= 2 * h
                fm = value(wp, tp)
            else:
                tp[i - gq.size] += h
                fp = value(wp, tp)
                tp[i - gq.size] -= 2 * h
                fm = value(wp, tp)
            close(flat[i], (fp - fm) / (2 * h))
    assert time.perf_counter() - t0 < 30.0


def test_criterion_03_minco_exactness():
    # rest-to-rest unit displacement is the classic min-jerk quintic
    start = np.zeros((3, 1))
    end = np.zeros((3, 1))
    end[0] = 1.0
    _, traj = construct(start, end, np.zeros((0, 1)), [1.0])
    assert np.max(np.abs(traj.coeffs[0, :, 0]
                         - [0.0, 0.0, 0.0, 10.0, -15.0, 6.0])) < 1e-9
    for T in (0.5, 1.0, 2.0):
        _, tr = construct(start, end, np.zeros((0, 1)), [T])
        assert abs(control_effort(tr) - 720 / T**5) / (720 / T**5) < 1e-6
    # junction continuity on random 5-piece splines
    rng = np.random.default_rng(303)
    for _ in range(5):
        _, tr = construct(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)),
                          rng.standard_normal((4, 2)), rng.uniform(0.5, 2.0, 5))
        for i in range(4):
            for order in range(5):
                left = basis(tr.durations[i], order) @ tr.coeffs[i]
                right = basis(0.0, order) @ tr.coeffs[i + 1]
                assert np.max(np.abs(left - right)) < 1e-8


def test_criterion_04_swept_sdf_oracle():
    rng = np.random.default_rng(404)
    shape = rectangle(1.0, 0.2)
    for _ in range(20):
        start = np.zeros((3, 3))
        end = np.zeros((3, 3))
        start[0] = rng.uniform(-0.3, 0.3, 3) * [1, 1, 1.3]
        end[0] = start[0] + rng.uniform(-0.3, 0.3, 3) * [1, 1, 1.3]
        _, traj = construct(start, end, np.zeros((0, 3)),
                            [float(rng.uniform(0.5, 0.8))])
        x_obs = rng.uniform(-1.2, 1.2, 2)
        (value,), _ = swept_sdf_batch(traj, shape, x_obs[None], 0.02)
        oracle = dense_min_sdf(traj, shape, x_obs, 10_000)
        assert value <= oracle + 1e-9  # the true minimum lower-bounds samples
        assert abs(value - oracle) < 1e-4
    # capsule analytic case: pure translation of a centered regular polygon
    ang = np.pi / 2 + 2 * np.pi * np.arange(16) / 16
    from se2plan.shape import RobotShape
    disc = RobotShape(0.3 * np.stack([np.cos(ang), np.sin(ang)], axis=1), np.zeros(2))
    start = np.zeros((3, 3))
    end = np.zeros((3, 3))
    end[0] = [2.0, 0.0, 0.0]
    _, traj = construct(start, end, np.zeros((0, 3)), [2.0])
    for d in (0.5, 0.8, 1.1):
        (value,), _ = swept_sdf_batch(traj, disc, np.array([[1.0, d]]), 0.02)
        assert abs(value - (d - 0.3)) < 1e-6


def test_criterion_05_kernel_convolution_oracle():
    rng = np.random.default_rng(505)
    shape = rectangle(0.6, 0.3)
    kernel = build_kernel(shape, 12, 0.1)
    from conftest import grid_from_cells
    for _ in range(100):
        grid = grid_from_cells(rng.random((30, 30)) < 0.05)
        occ = grid.occupied_centers()
        p = rng.uniform(1.0, 2.0, 2)
        k = int(rng.integers(0, 12))
        ix, iy = grid.world_to_cell(p)
        anchor = grid.cell_center(ix, iy)
        body = (occ - anchor) @ rotation(kernel.yaw_of(k))
        expected = bool(np.any(shape.sdf(body) < 0)) if occ.size else False
        assert kernel_collides(kernel, grid, p, k) == expected


def _front_end_classes(grid, shape, seed):
    inflated = inflate(grid, inscribed_radius(shape))
    roadmap = build_roadmap(inflated, (0.5, 1.5), (2.5, 1.5), budget=300,
                            rng=np.random.default_rng(seed))
    paths = extract_paths(roadmap, max_paths=10)
    taut = [simplify_path(p, inflated) for p in paths]
    return len(dedup_paths(taut, inflated))


def test_criterion_06_topology_fixture_class_counts():
    shape = rectangle(0.3, 0.2)
    two_gaps = wall_grid(30, wall_ix=15, gaps=((5, 10), (20, 25)))
    one_gap = wall_grid(30, wall_ix=15, gaps=((12, 18),))
    for seed in range(10):
        assert _front_end_classes(two_gaps, shape, seed) >= 2
        assert _front_end_classes(one_gap, shape, seed) == 1


def test_criterion_07_end_to_end_slit_fixture():
    grid = baffle_grid()
    shape = rectangle(1.0, 0.2)
    for seed in range(10):
        config = PlanConfig(roadmap_budget=600, connection_radius=0.7,
                            max_candidates=2, seed=seed)
        t0 = time.perf_counter()
        result = plan(grid, shape, (0.7, 1.25, 0.0), (3.4, 1.85, 0.0), config)
        elapsed = time.perf_counter() - t0
        assert result.status == "success", (seed, result.failures)
        assert result.certificate is not None and result.certificate.clear
        has_se2 = any(kind in ("SE2", "R2-reoptimized")
                      for kinds in result.survivor_provenance for kind in kinds)
        assert has_se2, (seed, result.survivor_provenance)
        assert elapsed < 10.0, (seed, elapsed)


def test_criterion_08_certification_soundness_fuzz():
    rng = np.random.default_rng(808)
    shape = rectangle(0.3, 0.16)
    kernel = build_kernel(shape, 12, 0.1)
    config_base = PlanConfig(roadmap_budget=80, max_paths=6, max_candidates=2,
                             n_orientations=12, se2_budget=60, r2_budget=40)

    def free_pose(grid):
        for _ in range(100):
            p = rng.uniform(0.3, 1.7, 2)
            yaw = float(rng.uniform(-np.pi, np.pi))
            if not kernel_collides(kernel, grid, p, kernel.index_of(yaw)):
                return np.array([p[0], p[1], yaw])
        return None

    from dataclasses import replace
    successes = 0
    for i in range(200):
        grid = random_obstacle_grid(rng, n=20, n_boxes=4, max_side=3)
        start = free_pose(grid)
        goal = free_pose(grid)
        if start is None or goal is None:
            continue
        result = plan(grid, shape, start, goal, replace(config_base, seed=i))
        if result.status != "success":
            continue
        successes += 1
        assert result.certificate.clear
        occ = grid.occupied_centers()
        if occ.size:
            # zero false-clears: the dense oracle must find no penetration
            assert dense_min_sdf(result.trajectory, shape, occ, 2000) >= -1e-9, i
    assert successes >= 100  # the fuzz corpus must actually exercise successes


def test_criterion_09_determinism_byte_identical_outputs(tmp_path):
    from conftest import empty_grid
    grid = empty_grid(30)
    (tmp_path / "world.map").write_text(dump_map(grid))
    (tmp_path / "robot.shape").write_text(
        "vertex: -0.25 -0.125\nvertex: 0.25 -0.125\n"
        "vertex: 0.25 0.125\nvertex: -0.25 0.125\nreference: 0 0\n")
    (tmp_path / "run.cfg").write_text(
        "[files]\nmap = world.map\nshape = robot.shape\n"
        "[query]\nstart = 0.5 0.5 0\ngoal = 2.5 2.5 0\n"
        "[planner]\nroadmap_budget = 120\nmax_candidates = 1\nseed = 3\n")
    outputs = []
    for rep in range(2):
        counter = itertools.count()
        out = tmp_path / f"out{rep}"
        code = main(["plan", str(tmp_path / "run.cfg"), "--out", str(out)],
                    clock=lambda: next(counter) * 1e-3)
        assert code == EXIT_OK
        outputs.append({name: (out / name).read_bytes()
                        for name in ("metrics.txt", "trajectory.txt")})
    assert outputs[0] == outputs[1]


def test_criterion_10_metrics_reporting_structure():
    from conftest import box_grid
    grid = box_grid(30, box=(12, 18, 12, 18))
    shape = rectangle(0.5, 0.25)
    result = plan(grid, shape, (0.5, 0.5, 0.0), (2.5, 2.5, 0.0),
                  PlanConfig(roadmap_budget=120, max_candidates=1))
    assert result.status == "success"
    required = {"time.r2", "time.se2", "time.certify", "time.total",
                "len.r2", "len.se2", "len.total"}
    assert required <= set(result.metrics)
    assert result.metrics["len.total"] == pytest.approx(
        result.metrics["len.r2"] + result.metrics["len.se2"])
    assert result.metrics["time.total"] >= 0.0
