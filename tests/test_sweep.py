import numpy as np
import pytest

from se2plan.minco import construct
from se2plan.shape import (RobotShape, build_kernel, kernel_collides, parse_shape,
                           rectangle, rotation)
from se2plan.sweep import continuous_check, swept_boundary_samples, swept_sdf_batch

from conftest import grid_from_cells
from test_acceptance import dense_min_sdf


def composed_at(traj, shape, x_obs, t):
    """Reference: body SDF of x_obs at the trajectory's pose at time t."""
    x, y, yaw = traj.eval(t, 0)
    return float(shape.sdf(rotation(yaw).T @ (np.asarray(x_obs, dtype=float) - [x, y])))


def swept_value(traj, shape, x_obs, spacing_target):
    values, _ = swept_sdf_batch(traj, shape, np.asarray(x_obs, dtype=float)[None],
                                spacing_target)
    return float(values[0])


def regular_polygon(n=16, radius=0.3, top_vertex=True):
    offset = np.pi / 2 if top_vertex else 0.0
    ang = offset + 2 * np.pi * np.arange(n) / n
    verts = np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=1)
    return RobotShape(verts, np.zeros(2))


def straight_se2_trajectory(start_xy, end_xy, yaw=0.0, T=2.0):
    start = np.zeros((3, 3))
    end = np.zeros((3, 3))
    start[0] = [start_xy[0], start_xy[1], yaw]
    end[0] = [end_xy[0], end_xy[1], yaw]
    _, traj = construct(start, end, np.zeros((0, 3)), [T])
    return traj


def random_se2_trajectory(rng, n_pieces=2, box=1.0):
    start = np.zeros((3, 3))
    end = np.zeros((3, 3))
    start[0] = rng.uniform(-box, box, 3)
    end[0] = rng.uniform(-box, box, 3)
    waypoints = rng.uniform(-box, box, (n_pieces - 1, 3))
    durations = rng.uniform(0.5, 1.5, n_pieces)
    _, traj = construct(start, end, waypoints, durations)
    return traj


def test_stationary_swept_equals_body_sdf(unit_square):
    traj = straight_se2_trajectory((0.3, 0.2), (0.3, 0.2), yaw=0.0)
    for x_obs in ((1.2, 0.2), (0.3, 0.2), (0.3, 1.5)):
        value = swept_value(traj, unit_square, x_obs, 0.05)
        assert value == pytest.approx(composed_at(traj, unit_square, x_obs, 0.0), abs=1e-9)


def test_capsule_translation_analytic():
    shape = regular_polygon(16, radius=0.3)
    traj = straight_se2_trajectory((0.0, 0.0), (2.0, 0.0))
    for d in (0.5, 0.8, 1.1):
        assert swept_value(traj, shape, (1.0, d), 0.02) == pytest.approx(d - 0.3, abs=1e-6)


def test_swept_point_on_start_boundary(unit_square):
    traj = straight_se2_trajectory((0.0, 0.0), (2.0, 0.0))
    assert swept_value(traj, unit_square, (-0.5, 0.0), 0.02) == pytest.approx(0.0, abs=1e-6)


def test_min_property_upper_bound(rng, slim_rect):
    for _ in range(10):
        traj = random_se2_trajectory(rng)
        x_obs = rng.uniform(-1.5, 1.5, 2)
        value = swept_value(traj, slim_rect, x_obs, 0.05)
        ts = rng.uniform(0, traj.total_duration, 64)
        for t in ts:
            assert value <= composed_at(traj, slim_rect, x_obs, t) + 1e-9


def test_refinement_monotone_in_sampling(rng, slim_rect):
    for _ in range(5):
        traj = random_se2_trajectory(rng)
        x_obs = rng.uniform(-1.5, 1.5, 2)
        coarse = swept_value(traj, slim_rect, x_obs, 0.1)
        fine = swept_value(traj, slim_rect, x_obs, 0.05)
        assert fine <= coarse + 1e-6


def test_time_reversal_symmetry(rng, slim_rect):
    start = np.zeros((3, 3))
    end = np.zeros((3, 3))
    start[0] = [0.0, 0.0, 0.0]
    end[0] = [1.0, 0.8, 1.2]
    waypoints = rng.uniform(-0.5, 1.0, (2, 3))
    durations = rng.uniform(0.5, 1.5, 3)
    _, fwd = construct(start, end, waypoints, durations)
    _, rev = construct(end, start, waypoints[::-1], durations[::-1])
    for _ in range(10):
        x_obs = rng.uniform(-1.0, 2.0, 2)
        a = swept_value(fwd, slim_rect, x_obs, 0.05)
        b = swept_value(rev, slim_rect, x_obs, 0.05)
        assert a == pytest.approx(b, abs=1e-6)


def test_every_sampled_local_minimum_is_refined():
    # the point's sampled minimum lies near t = 1.35, but a second local
    # minimum near t = 0.63, in another bracket, is 0.9 mm deeper
    start = np.zeros((3, 3))
    end = np.zeros((3, 3))
    start[0] = [-0.043553494912651924, -0.9380582280927752, 0.9906394985112565]
    end[0] = [0.9363830500084089, -0.346206750782861, -0.30011680519254114]
    waypoints = np.array([[0.18303512729689264, 0.5164193734318805, -0.15374443245794245],
                          [0.13352576575968844, -0.7025942007331518, -0.9932538503749415]])
    _, traj = construct(start, end, waypoints,
                        [0.723354399243159, 1.0050678192753573, 1.1376542046995008])
    point = np.array([-0.20194427208611648, 0.41368819784676053])
    shape = rectangle(0.6, 0.3)
    (value,), (t_star,) = swept_sdf_batch(traj, shape, point[None], 0.05)
    oracle = dense_min_sdf(traj, shape, point, 20_000)
    assert value <= oracle + 1e-9
    assert abs(value - oracle) < 1e-6
    assert t_star == pytest.approx(0.635, abs=0.01)


def test_continuous_check_empty_grid(unit_square):
    traj = straight_se2_trajectory((1.0, 1.0), (2.0, 1.0))
    grid = grid_from_cells(np.zeros((30, 30), dtype=bool))
    report = continuous_check(traj, unit_square, grid)
    assert report.clear and report.hits == ()


def test_continuous_check_through_wall(slim_rect):
    cells = np.zeros((30, 30), dtype=bool)
    cells[:, 15] = True
    grid = grid_from_cells(cells)
    traj = straight_se2_trajectory((0.7, 1.5), (2.3, 1.5))
    report = continuous_check(traj, slim_rect, grid)
    assert not report.clear
    (interval, witness, depth), *_ = report.hits
    assert depth > 0
    assert witness[0] == pytest.approx(1.55, abs=1e-9)
    # dense time-grid oracle confirms a real penetration at the witness
    ts = np.linspace(0, traj.total_duration, 2000)
    dense = min(composed_at(traj, slim_rect, witness, t) for t in ts)
    assert dense < 0


def test_continuous_check_clear_with_clearance(slim_rect):
    cells = np.zeros((30, 30), dtype=bool)
    cells[27, :] = True  # wall well above the motion
    grid = grid_from_cells(cells)
    traj = straight_se2_trajectory((0.7, 1.0), (2.3, 1.0))
    margin = 0.1
    report = continuous_check(traj, slim_rect, grid, margin=margin)
    assert report.clear
    with pytest.raises(ValueError):
        continuous_check(traj, slim_rect, grid, margin=-0.1)


def test_continuous_check_places_the_reference_point():
    # a bar drawn from the origin, reference at its centroid (0.5, 0.1); the
    # pose puts the centroid at (1.05, 2.05), so the bar spans x 0.55..1.55
    # and covers the obstacle cell centred at (0.65, 2.05)
    bar = parse_shape("vertex: 0 0\nvertex: 1 0\nvertex: 1 0.2\nvertex: 0 0.2\n")
    cells = np.zeros((30, 30), dtype=bool)
    cells[20, 6] = True
    grid = grid_from_cells(cells)
    assert np.allclose(grid.occupied_centers(), [[0.65, 2.05]])
    traj = straight_se2_trajectory((1.05, 2.05), (1.05, 2.05))
    outline = bar.outline_world((1.05, 2.05), 0.0)
    assert np.all(outline.min(axis=0) < [0.65, 2.05]) and np.all(outline.max(axis=0) > [0.65, 2.05])
    assert kernel_collides(build_kernel(bar, 12, 0.1), grid, (1.05, 2.05), 0)
    report = continuous_check(traj, bar, grid)
    assert not report.clear
    (_, witness, depth), = report.hits
    assert np.allclose(witness, [0.65, 2.05]) and depth == pytest.approx(0.1, abs=1e-9)


def test_swept_boundary_samples(unit_square):
    stationary = straight_se2_trajectory((0.5, 0.5), (0.5, 0.5))
    outlines = swept_boundary_samples(stationary, unit_square, 5)
    assert len(outlines) == 5
    for outline in outlines[1:]:
        assert np.allclose(outline, outlines[0], atol=1e-9)
    translated = swept_boundary_samples(
        straight_se2_trajectory((0.0, 0.0), (1.0, 0.0)), unit_square, 3)
    shift = translated[-1] - translated[0]
    assert np.allclose(shift, shift[0], atol=1e-9)  # rigid translation
    single = swept_boundary_samples(stationary, unit_square, 1)
    assert len(single) == 1
    with pytest.raises(ValueError):
        swept_boundary_samples(stationary, unit_square, 0)
