import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

import se2plan.topo
from se2plan.gridmap import inflate, is_visible
from se2plan.shape import build_kernel, inscribed_radius, kernel_collides, rectangle
from se2plan.topo import (InfeasibleEndpointError, Roadmap, build_roadmap, candidate_neighbours,
                          dedup_paths, discretize_polyline, extract_paths, shortcut,
                          simplify_path, uvd_equivalent)

from conftest import (box_grid, cell_center, empty_grid, grid_from_cells, random_obstacle_grid,
                      wall_grid)


def test_build_roadmap_direct_connection():
    grid = empty_grid(20)
    rm = build_roadmap(grid, (0.3, 0.3), (1.7, 1.7), budget=50,
                       rng=np.random.default_rng(0))
    assert np.allclose(rm.nodes[0], [0.3, 0.3])
    assert np.allclose(rm.nodes[1], [1.7, 1.7])
    # start and goal are mutually reachable (direct edge or via samples)
    assert extract_paths(rm, grid, max_paths=1)


def test_build_roadmap_occupied_endpoint():
    grid = box_grid(30, box=(10, 20, 10, 20))
    with pytest.raises(InfeasibleEndpointError):
        build_roadmap(grid, (1.5, 1.5), (2.8, 2.8), budget=10, rng=np.random.default_rng(0))


def test_roadmap_disconnected_by_full_wall():
    grid = wall_grid(30, wall_ix=15, gaps=())
    rm = build_roadmap(grid, (0.5, 1.5), (2.5, 1.5), budget=200,
                       rng=np.random.default_rng(1))
    assert extract_paths(rm, grid, max_paths=5) == []


def test_extract_paths_diverse_square():
    # four corners of a square; two routes around it
    nodes = np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 2.0]])
    rm = Roadmap(nodes=nodes, adjacency=[[2, 3], [2, 3], [0, 1], [0, 1]])
    paths = extract_paths(rm, empty_grid(30), max_paths=4)
    assert len(paths) == 2
    routes = {tuple(map(tuple, p)) for p in paths}
    assert ((0.0, 0.0), (2.0, 0.0), (2.0, 2.0)) in routes
    assert ((0.0, 0.0), (0.0, 2.0), (2.0, 2.0)) in routes


def test_extract_paths_prefers_shortest_first():
    nodes = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.1], [1.0, 3.0]])
    rm = Roadmap(nodes=nodes, adjacency=[[2, 3], [2, 3], [0, 1], [0, 1]])
    paths = extract_paths(rm, empty_grid(40), max_paths=2)
    assert np.allclose(paths[0][1], [1.0, 0.1])


def test_extract_paths_direct_edge():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0]])
    rm = Roadmap(nodes=nodes, adjacency=[[1], [0]])
    paths = extract_paths(rm, empty_grid(20), max_paths=3)
    assert len(paths) == 1 and len(paths[0]) == 2


def _eager_paths(roadmap, inflated, max_paths):
    """Reference extraction: check every candidate pair first, then run the
    penalized Dijkstra over the visible graph alone."""
    nodes = roadmap.nodes
    n = len(nodes)
    visible = [[] for _ in range(n)]
    for i, nbrs in enumerate(roadmap.adjacency):
        for j in nbrs:
            if i < j and is_visible(inflated, nodes[i], nodes[j]):
                visible[i].append(j)
                visible[j].append(i)
    rows = np.array([i for i, nbrs in enumerate(visible) for _ in nbrs], dtype=int)
    cols = np.array([j for nbrs in visible for j in sorted(nbrs)], dtype=int)
    if not len(rows):
        return []
    base = np.linalg.norm(nodes[rows] - nodes[cols], axis=1)
    factor = np.ones(n)
    paths, seen = [], set()
    for _ in range(max_paths):
        weights = base * np.maximum(factor[rows], factor[cols])
        graph = csr_matrix((weights, (rows, cols)), shape=(n, n))
        dist, pred = dijkstra(graph, directed=False, indices=0, return_predecessors=True)
        if not np.isfinite(dist[1]):
            break
        path = [1]
        while path[-1] != 0:
            path.append(int(pred[path[-1]]))
        path.reverse()
        if tuple(path) not in seen:
            seen.add(tuple(path))
            paths.append(nodes[np.array(path)].copy())
        if len(path) <= 2:
            break
        factor[path[1:-1]] *= 10.0
    return paths


def _assert_lazy_matches_eager(inflated, start, goal, budget, seed, max_paths,
                               connection_radius=None):
    roadmap = build_roadmap(inflated, start, goal, budget=budget,
                            rng=np.random.default_rng(seed), connection_radius=connection_radius)
    lazy = extract_paths(roadmap, inflated, max_paths=max_paths)
    eager = _eager_paths(roadmap, inflated, max_paths)
    assert len(lazy) == len(eager)
    for a, b in zip(lazy, eager):
        assert np.array_equal(a, b)
    return roadmap, lazy


def test_lazy_extraction_matches_eager_when_disconnected():
    grid = wall_grid(30, wall_ix=15, gaps=())
    _, lazy = _assert_lazy_matches_eager(grid, (0.5, 1.5), (2.5, 1.5), 200, 1, 5)
    assert lazy == []


def test_lazy_extraction_matches_eager_with_blocked_direct_edge():
    grid = box_grid(30, box=(12, 18, 8, 22))
    start, goal = np.array([0.5, 1.5]), np.array([2.5, 1.5])
    roadmap, lazy = _assert_lazy_matches_eager(grid, start, goal, 150, 3, 6,
                                               connection_radius=2.5)
    # the direct edge is a candidate, but the box blocks it
    assert 1 in roadmap.adjacency[0]
    assert not is_visible(grid, start, goal)
    assert lazy and all(len(p) > 2 for p in lazy)


def test_lazy_extraction_matches_eager_beyond_the_corridor_count():
    grid = wall_grid(30, wall_ix=15, gaps=((5, 10), (20, 25)))
    _, lazy = _assert_lazy_matches_eager(grid, (0.5, 1.5), (2.5, 1.5), 200, 2, 30)
    taut = [simplify_path(p, grid) for p in lazy]
    assert len(dedup_paths(taut, grid, len(taut))) == 2


def test_lazy_extraction_matches_eager_on_random_grids(rng):
    compared = 0
    for _ in range(20):
        grid = random_obstacle_grid(rng, n=30, n_boxes=10, max_side=6)
        free = np.argwhere(~grid.cells)
        (ya, xa), (yb, xb) = free[rng.choice(len(free), 2, replace=False)]
        _, lazy = _assert_lazy_matches_eager(
            grid, cell_center(grid, xa, ya), cell_center(grid, xb, yb), 80,
            int(rng.integers(1 << 16)), 8)
        compared += len(lazy)
    assert compared >= 20


def test_extract_paths_checks_each_edge_at_most_once(monkeypatch):
    grid = wall_grid(30, wall_ix=15, gaps=((5, 10), (20, 25)))
    roadmap = build_roadmap(grid, (0.5, 1.5), (2.5, 1.5), budget=200,
                            rng=np.random.default_rng(2))
    checked = []
    original = se2plan.topo.is_visible

    def counting(g, a, b):
        checked.append((tuple(a), tuple(b)))
        return original(g, a, b)

    monkeypatch.setattr(se2plan.topo, "is_visible", counting)
    assert len(extract_paths(roadmap, grid, max_paths=10)) >= 2
    pairs = sum(len(a) for a in roadmap.adjacency) // 2
    assert checked
    assert len(set(checked)) == len(checked)
    assert len(checked) < pairs


def test_build_roadmap_checks_no_edge(monkeypatch):
    monkeypatch.setattr(se2plan.topo, "is_visible", lambda *args: pytest.fail("checked"))
    roadmap = build_roadmap(box_grid(30), (0.5, 0.5), (2.5, 2.5), budget=50,
                            rng=np.random.default_rng(0))
    assert sum(len(a) for a in roadmap.adjacency) > 0


@pytest.mark.parametrize("radius", [-1.0, 0.0, float("nan")])
def test_build_roadmap_rejects_a_nonpositive_radius(radius):
    with pytest.raises(ValueError, match="connection_radius"):
        build_roadmap(empty_grid(20), (0.3, 0.3), (1.7, 1.7), budget=30,
                      rng=np.random.default_rng(0), connection_radius=radius)


def test_candidate_neighbours_match_kdtree_pairs(rng):
    for n, radius in ((2, 0.5), (40, 0.3), (300, 0.15), (600, 0.08)):
        nodes = rng.random((n, 2))
        adjacency = candidate_neighbours(nodes, radius)
        pairs = {(i, int(j)) for i, nbrs in enumerate(adjacency) for j in nbrs if i < j}
        assert pairs == cKDTree(nodes).query_pairs(radius)
        for i, nbrs in enumerate(adjacency):
            assert np.all(np.diff(nbrs) > 0)
            assert all(i in adjacency[j] for j in nbrs)


def test_discretize_polyline():
    pts = discretize_polyline(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.3)
    assert np.allclose(pts[0], [0, 0]) and np.allclose(pts[-1], [1, 0])
    assert np.all(np.linalg.norm(np.diff(pts, axis=0), axis=1) <= 0.3 + 1e-12)


def test_shortcut_straight_visible_path(slim_rect):
    grid = empty_grid(30)
    path = np.array([[0.5, 0.5], [1.0, 0.9], [2.5, 2.0]])
    out = shortcut(path, inflate(grid, inscribed_radius(slim_rect)))
    assert isinstance(out, np.ndarray) and out.shape == (2, 2)
    assert np.allclose(out[0], [0.5, 0.5])
    assert np.allclose(out[-1], [2.5, 2.0])


def test_shortcut_around_box(slim_rect):
    grid = box_grid(30, box=(12, 18, 12, 18))
    r_in = inscribed_radius(slim_rect)
    inflated = inflate(grid, r_in)
    kernel = build_kernel(slim_rect, 18, grid.resolution)
    # zigzag that goes around the box through the lower-right corridor
    path = np.array([[0.5, 0.5], [1.5, 0.7], [2.3, 1.0], [2.5, 2.5]])
    out = shortcut(path, inflated)
    dense = discretize_polyline(path, grid.resolution)
    assert len(out) < len(dense)
    assert np.allclose(out[0], path[0])
    assert np.allclose(out[-1], path[-1])
    for wp in out:
        assert any(not kernel_collides(kernel, grid, wp, k) for k in range(kernel.n_orientations))


def test_shortcut_rejects_coinciding_points():
    grid = empty_grid(30)  # free, so inflating it changes nothing
    with pytest.raises(ValueError, match="at least 2 waypoints"):
        shortcut(np.array([[0.5, 0.5], [0.5, 0.5]]), grid)


def test_shortcut_keeps_waypoints_on_the_map():
    # the path hugs the map's bottom edge next to a box: every corner stays
    # on the map
    cells = np.zeros((20, 20), dtype=bool)
    cells[2:4, 16:18] = True
    grid = grid_from_cells(cells)
    path = np.array([[1.5, 0.1], [1.9, 0.1], [1.95, 0.5]])
    shape = rectangle(0.3, 0.16)
    out = shortcut(path, inflate(grid, inscribed_radius(shape)))
    assert all(grid.in_bounds(p) for p in out)
    assert np.allclose(out[0], path[0]) and np.allclose(out[-1], path[-1])


def _greedy_walk(path, inflated):
    """Reference shortcut: walk the dense path and keep the last visible
    sample whenever the next one is blocked from the last kept waypoint."""
    dense = discretize_polyline(path, inflated.resolution)
    kept = [dense[0]]
    last_visible = dense[0]
    for p_d in dense[1:]:
        back = kept[-1]
        if np.linalg.norm(p_d - back) < 1e-12:
            continue
        if is_visible(inflated, back, p_d):
            last_visible = p_d
            continue
        if np.linalg.norm(last_visible - back) > 1e-12:
            kept.append(last_visible)
        last_visible = p_d if is_visible(inflated, kept[-1], p_d) else kept[-1]
    if np.linalg.norm(dense[-1] - kept[-1]) > 1e-12:
        kept.append(dense[-1])
    return np.array(kept)


def test_shortcut_matches_the_greedy_walk(rng):
    shape = rectangle(0.3, 0.16)
    compared = 0
    for _ in range(12):
        grid = random_obstacle_grid(rng, n=30, n_boxes=8, max_side=5)
        inflated = inflate(grid, inscribed_radius(shape))
        free = np.argwhere(~inflated.cells)
        if len(free) < 2:
            continue
        (ya, xa), (yb, xb) = free[rng.choice(len(free), 2, replace=False)]
        start, goal = cell_center(inflated, xa, ya), cell_center(inflated, xb, yb)
        roadmap = build_roadmap(inflated, start, goal, budget=60, rng=rng)
        for raw in extract_paths(roadmap, inflated, max_paths=4):
            for path in (raw, simplify_path(raw, inflated)):
                assert np.array_equal(shortcut(path, inflated), _greedy_walk(path, inflated))
                compared += 1
    assert compared >= 10


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
    kept = dedup_paths([below_long, above, below], grid, 3)
    assert len(kept) == 2
    # the shorter representative of the equivalent pair survives
    assert any(np.array_equal(k, below) for k in kept)
    assert not any(np.array_equal(k, below_long) for k in kept)
    assert dedup_paths([], grid, 0) == []
    assert len(dedup_paths([below], grid, 1)) == 1


def test_dedup_paths_stops_at_max_candidates(monkeypatch):
    grid = box_grid(30, box=(12, 18, 12, 18))
    paths = [np.array([[0.5, 1.5], [1.5, y], [2.5, 1.5]])
             for y in (0.6, 2.2, 0.8, 2.6, 1.5, 0.3)]
    full = dedup_paths(paths, grid, len(paths))
    assert len(full) >= 3
    for k in range(1, len(paths) + 1):
        kept = dedup_paths(paths, grid, k)
        assert len(kept) == min(k, len(full))
        assert all(a is b for a, b in zip(kept, full))
    calls = []
    original = se2plan.topo.uvd_equivalent
    monkeypatch.setattr(se2plan.topo, "uvd_equivalent",
                        lambda *args: calls.append(args) or original(*args))
    kept = dedup_paths(paths, grid, 1)
    assert len(kept) == 1 and kept[0] is full[0]
    assert calls == []


def test_simplify_path():
    grid = empty_grid(30)
    pts = np.array([[0.5, 0.5], [1.0, 0.5], [1.5, 0.5], [2.0, 0.5]])
    out = simplify_path(pts, grid)
    assert len(out) == 2
    blocked = box_grid(30, box=(12, 18, 0, 10))
    detour = np.array([[0.5, 0.5], [1.5, 1.2], [2.5, 0.5]])
    out2 = simplify_path(detour, blocked)
    assert len(out2) == 3  # corner is load-bearing, cannot be removed
