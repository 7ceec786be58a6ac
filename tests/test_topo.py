import numpy as np
import pytest

from se2plan.gridmap import inflate, is_visible
from se2plan.shape import build_kernel, inscribed_radius, kernel_collides
from se2plan.topo import (InfeasibleEndpointError, Roadmap, Se2Path, Se2Waypoint,
                          build_roadmap, dedup_paths, discretize_polyline,
                          extract_paths, orientation_interp, push_away, shortcut,
                          simplify_path, uvd_equivalent, wrap_angle)

from conftest import box_grid, empty_grid, grid_from_cells, wall_grid


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(np.deg2rad(370)) == pytest.approx(np.deg2rad(10))


def test_orientation_interp():
    assert orientation_interp(0.7, 0.7, 0.3) == pytest.approx(0.7)
    assert orientation_interp(0.0, np.pi / 2, 0.5) == pytest.approx(np.pi / 4)
    # wraps the short way across the pi seam
    mid = orientation_interp(np.deg2rad(170), np.deg2rad(-170), 0.5)
    assert mid == pytest.approx(np.pi)
    assert orientation_interp(0.0, 1.0, 0.0) == pytest.approx(0.0)
    assert orientation_interp(0.0, 1.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        orientation_interp(0.0, 1.0, 1.5)


def test_build_roadmap_direct_connection():
    grid = empty_grid(20)
    rm = build_roadmap(grid, (0.3, 0.3), (1.7, 1.7), budget=50,
                       rng=np.random.default_rng(0))
    assert np.allclose(rm.nodes[0], [0.3, 0.3])
    assert np.allclose(rm.nodes[1], [1.7, 1.7])
    # start and goal are mutually reachable (direct edge or via samples)
    assert extract_paths(rm, max_paths=1)


def test_build_roadmap_occupied_endpoint():
    grid = box_grid(30, box=(10, 20, 10, 20))
    with pytest.raises(InfeasibleEndpointError):
        build_roadmap(grid, (1.5, 1.5), (2.8, 2.8), budget=10)


def test_roadmap_disconnected_by_full_wall():
    grid = wall_grid(30, wall_ix=15, gaps=())
    rm = build_roadmap(grid, (0.5, 1.5), (2.5, 1.5), budget=200,
                       rng=np.random.default_rng(1))
    assert extract_paths(rm, max_paths=5) == []


def test_extract_paths_diverse_square():
    # four corners of a square; two routes around it
    nodes = np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 2.0]])
    rm = Roadmap(nodes=nodes, adjacency=[[2, 3], [2, 3], [0, 1], [0, 1]])
    paths = extract_paths(rm, max_paths=4)
    assert len(paths) == 2
    routes = {tuple(map(tuple, p)) for p in paths}
    assert ((0.0, 0.0), (2.0, 0.0), (2.0, 2.0)) in routes
    assert ((0.0, 0.0), (0.0, 2.0), (2.0, 2.0)) in routes


def test_extract_paths_prefers_shortest_first():
    nodes = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.1], [1.0, 3.0]])
    rm = Roadmap(nodes=nodes, adjacency=[[2, 3], [2, 3], [0, 1], [0, 1]])
    paths = extract_paths(rm, max_paths=2)
    assert np.allclose(paths[0][1], [1.0, 0.1])


def test_extract_paths_direct_edge():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0]])
    rm = Roadmap(nodes=nodes, adjacency=[[1], [0]])
    paths = extract_paths(rm, max_paths=3)
    assert len(paths) == 1 and len(paths[0]) == 2


def test_push_away_already_safe(unit_square):
    grid = empty_grid(30)
    pos, yaw, safe, attempts = push_away(unit_square, (1.5, 1.5), 0.2, grid, margin=0.05)
    assert safe and attempts == 0
    assert np.allclose(pos, [1.5, 1.5]) and yaw == pytest.approx(0.2)


def test_push_away_translates_to_margin(unit_square):
    cells = np.zeros((40, 40), dtype=bool)
    cells[20, 24] = True  # point 0.1 inside the robot's right edge
    grid = grid_from_cells(cells)
    start = np.array([2.05, 2.05])  # obstacle center (2.45, 2.05) sits inside
    pos, yaw, safe, _ = push_away(unit_square, start, 0.0, grid, margin=0.05)
    assert safe
    obstacle = np.array([2.45, 2.05])
    body = obstacle - pos  # yaw stays ~0
    assert unit_square.sdf(body) >= 0.05 - 1e-9


def test_push_away_symmetric_stall(unit_square):
    cells = np.zeros((40, 40), dtype=bool)
    cells[20, 16] = True  # (1.65, 2.05): inside left edge
    cells[20, 24] = True  # (2.45, 2.05): inside right edge, symmetric
    grid = grid_from_cells(cells)
    _, _, safe, attempts = push_away(unit_square, (2.05, 2.05), 0.0, grid, margin=0.05,
                                     max_attempts=5)
    assert not safe and attempts == 5


def test_push_away_validation(unit_square):
    grid = empty_grid(10)
    with pytest.raises(ValueError):
        push_away(unit_square, (0.5, 0.5), 0.0, grid, margin=-1)
    with pytest.raises(ValueError):
        push_away(unit_square, (0.5, 0.5), 0.0, grid, margin=0.1, max_attempts=0)


def test_discretize_polyline():
    pts = discretize_polyline(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.3)
    assert np.allclose(pts[0], [0, 0]) and np.allclose(pts[-1], [1, 0])
    assert np.all(np.linalg.norm(np.diff(pts, axis=0), axis=1) <= 0.3 + 1e-12)


def test_shortcut_straight_visible_path(slim_rect):
    grid = empty_grid(30)
    path = np.array([[0.5, 0.5], [1.0, 0.9], [2.5, 2.0]])
    out = shortcut(path, slim_rect, grid)
    assert len(out.waypoints) == 2
    assert out.waypoints[0].provenance == "start"
    assert out.waypoints[-1].provenance == "goal"
    assert np.allclose(out.waypoints[0].position, [0.5, 0.5])
    assert np.allclose(out.waypoints[-1].position, [2.5, 2.0])
    assert out.length() == pytest.approx(np.linalg.norm([2.0, 1.5]), rel=1e-9)


def test_shortcut_around_box(slim_rect):
    grid = box_grid(30, box=(12, 18, 12, 18))
    r_in = inscribed_radius(slim_rect)
    inflated = inflate(grid, r_in)
    kernel = build_kernel(slim_rect, 18, grid.resolution)
    # zigzag that goes around the box through the lower-right corridor
    path = np.array([[0.5, 0.5], [1.5, 0.7], [2.3, 1.0], [2.5, 2.5]])
    out = shortcut(path, slim_rect, grid, inflated=inflated)
    dense = discretize_polyline(path, grid.resolution)
    assert len(out.waypoints) < len(dense)
    assert np.allclose(out.waypoints[0].position, path[0])
    assert np.allclose(out.waypoints[-1].position, path[-1])
    for wp in out.waypoints:
        if wp.safe and wp.provenance == "pushed":
            k = kernel.index_of(wp.yaw)
            assert not kernel_collides(kernel, grid, wp.position, k)


def test_se2_path_validation():
    with pytest.raises(ValueError):
        Se2Path((Se2Waypoint(np.zeros(2), 0.0),))
    with pytest.raises(ValueError):
        Se2Path((Se2Waypoint(np.zeros(2), 0.0), Se2Waypoint(np.zeros(2), 0.1)))


def test_uvd_identical_paths():
    grid = empty_grid(20)
    p = np.array([[0.2, 0.2], [1.0, 1.3], [1.8, 1.8]])
    assert uvd_equivalent(p, p, grid)


def test_uvd_opposite_sides_of_box_distinct():
    grid = box_grid(30, box=(12, 18, 12, 18))
    below = np.array([[0.5, 1.5], [1.5, 0.8], [2.5, 1.5]])
    above = np.array([[0.5, 1.5], [1.5, 2.2], [2.5, 1.5]])
    assert not uvd_equivalent(below, above, grid)
    wiggle = np.array([[0.5, 1.5], [1.4, 0.85], [1.6, 0.8], [2.5, 1.5]])
    assert uvd_equivalent(below, wiggle, grid)


def test_uvd_endpoint_mismatch():
    grid = empty_grid(10)
    with pytest.raises(ValueError):
        uvd_equivalent(np.array([[0.1, 0.1], [0.5, 0.5]]),
                       np.array([[0.2, 0.1], [0.5, 0.5]]), grid)


def test_dedup_paths():
    grid = box_grid(30, box=(12, 18, 12, 18))
    below = np.array([[0.5, 1.5], [1.5, 0.8], [2.5, 1.5]])
    below_long = np.array([[0.5, 1.5], [1.5, 0.6], [2.5, 1.5]])
    above = np.array([[0.5, 1.5], [1.5, 2.2], [2.5, 1.5]])
    kept = dedup_paths([below_long, above, below], grid)
    assert len(kept) == 2
    # the shorter representative of the equivalent pair survives
    assert any(np.array_equal(k, below) for k in kept)
    assert not any(np.array_equal(k, below_long) for k in kept)
    assert dedup_paths([], grid) == []
    assert len(dedup_paths([below], grid)) == 1


def test_simplify_path():
    grid = empty_grid(30)
    pts = np.array([[0.5, 0.5], [1.0, 0.5], [1.5, 0.5], [2.0, 0.5]])
    out = simplify_path(pts, grid)
    assert len(out) == 2
    blocked = box_grid(30, box=(12, 18, 0, 10))
    detour = np.array([[0.5, 0.5], [1.5, 1.2], [2.5, 0.5]])
    out2 = simplify_path(detour, blocked)
    assert len(out2) == 3  # corner is load-bearing, cannot be removed
