import numpy as np
import pytest

from se2plan.gridmap import OccupancyGrid
from se2plan.shape import (GeometryError, RobotShape, build_kernel, inscribed_radius,
                           kernel_collides, parse_shape, polygon_sdf, rectangle,
                           rotation, sdf_gradient_world)

from conftest import grid_from_cells, random_simple_polygon


def brute_force_sdf(vertices, q):
    """Min point-segment distance with winding-number sign (crossing rule)."""
    q = np.asarray(q, dtype=float)
    n = len(vertices)
    best = np.inf
    wn = 0
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        e = b - a
        t = np.clip(np.dot(q - a, e) / max(np.dot(e, e), 1e-300), 0, 1)
        best = min(best, float(np.linalg.norm(q - (a + t * e))))
        left = e[0] * (q[1] - a[1]) - (q[0] - a[0]) * e[1]
        if a[1] <= q[1] < b[1] and left > 0:
            wn += 1
        elif b[1] <= q[1] < a[1] and left < 0:
            wn -= 1
    if best <= 1e-12:
        return 0.0
    return -best if wn != 0 else best


def test_square_sdf_values(unit_square):
    assert unit_square.sdf((0.0, 0.0)) == pytest.approx(-0.5)
    assert unit_square.sdf((1.0, 0.0)) == pytest.approx(0.5)
    assert unit_square.sdf((0.5, 0.5)) == pytest.approx(0.0)  # corner on boundary


def test_sdf_batched_shapes(unit_square):
    pts = np.zeros((4, 7, 2))
    vals = unit_square.sdf(pts)
    assert vals.shape == (4, 7)
    assert np.allclose(vals, -0.5)


def test_sdf_matches_brute_force(rng):
    for _ in range(20):
        shape = random_simple_polygon(rng)
        pts = rng.uniform(-1.5, 1.5, (50, 2))
        vals = polygon_sdf(shape.vertices, pts)
        for p, v in zip(pts, vals):
            assert v == pytest.approx(brute_force_sdf(shape.vertices, p), abs=1e-9)


def test_inscribed_radius_square(unit_square):
    assert inscribed_radius(unit_square) == pytest.approx(0.5)


def test_inscribed_radius_hexagon():
    ang = np.arange(6) * np.pi / 3
    verts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    hexagon = RobotShape(verts, np.zeros(2))
    assert inscribed_radius(hexagon) == pytest.approx(np.sqrt(3) / 2, abs=1e-12)


def test_inscribed_radius_t_shape():
    # T made of a horizontal bar on top of a vertical stem
    verts = np.array([[-0.1, -0.5], [0.1, -0.5], [0.1, 0.1], [0.5, 0.1],
                      [0.5, 0.3], [-0.5, 0.3], [-0.5, 0.1], [-0.1, 0.1]])
    shape = RobotShape(verts, np.array([0.0, 0.0]))
    expected = min(np.linalg.norm(np.array([0, 0]) - _closest_on_segment(a, b))
                   for a, b in zip(verts, np.roll(verts, -1, axis=0)))
    assert inscribed_radius(shape) == pytest.approx(expected, abs=1e-12)


def _closest_on_segment(a, b, q=np.zeros(2)):
    e = b - a
    t = np.clip(np.dot(q - a, e) / np.dot(e, e), 0, 1)
    return a + t * e


def test_shape_validation():
    with pytest.raises(GeometryError):
        RobotShape(np.array([[0, 0], [1, 0]]), np.zeros(2))  # too few vertices
    bowtie = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=float)
    with pytest.raises(GeometryError):
        RobotShape(bowtie, np.array([0.5, 0.5]))
    with pytest.raises(GeometryError):
        rectangle(1.0, 1.0, reference=(2.0, 0.0))  # reference outside


def test_parse_shape():
    shape = parse_shape("vertex: 0 0\nvertex: 1 0\nvertex: 1 1\nvertex: 0 1\n"
                        "reference: 0.5 0.5\n")
    assert shape.vertices.shape == (4, 2)
    assert np.allclose(shape.reference, [0.5, 0.5])
    centroid = parse_shape("vertex: 0 0\nvertex: 1 0\nvertex: 0 1\n")
    assert np.allclose(centroid.reference, [1 / 3, 1 / 3])
    with pytest.raises(GeometryError):
        parse_shape("vertex: 0 0\nnonsense line\n")


def test_sdf_gradient_on_boundary_is_outward_normal(unit_square):
    on_edges = np.array([[0.5, 0.1], [-0.2, 0.5], [-0.5, -0.3], [0.0, -0.5]])
    normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    clockwise = RobotShape(unit_square.vertices[::-1].copy(), np.zeros(2))
    for shape in (unit_square, clockwise):
        values, grads = shape.sdf_gradient(on_edges)
        assert np.all(values == 0.0)
        assert np.allclose(grads, normals, atol=1e-12)


def test_sdf_gradient_world_axis_case(unit_square):
    value, grad = sdf_gradient_world(unit_square, np.array([[0.7, 0.0]]), (0.0, 0.0), 0.0)
    assert value[0] == pytest.approx(0.2, abs=1e-12)
    assert np.allclose(grad[0], [1.0, 0.0], atol=1e-12)


def test_sdf_gradient_world_rotates_with_yaw(unit_square):
    # same body-frame geometry, robot rotated 90 degrees
    value0, grad0 = sdf_gradient_world(unit_square, np.array([[0.7, 0.0]]), (0.0, 0.0), 0.0)
    value1, grad1 = sdf_gradient_world(unit_square, np.array([[0.0, 0.7]]), (0.0, 0.0),
                                       np.pi / 2)
    assert value1[0] == pytest.approx(value0[0], abs=1e-9)
    assert np.allclose(rotation(np.pi / 2) @ grad0[0], grad1[0], atol=1e-9)


def test_sdf_gradient_world_matches_fd(unit_square, rng):
    # the exact SDF is smooth away from the boundary and, inside, from the
    # medial axis (the square's diagonals); keep FD stencils clear of both
    h = 1e-7
    checked = 0
    for _ in range(60):
        pos = rng.uniform(-0.1, 0.1, 2)
        yaw = rng.uniform(-np.pi, np.pi)
        x_obs = pos + rotation(yaw) @ rng.uniform(-0.6, 0.6, 2)
        bx, by = np.abs(rotation(yaw).T @ (x_obs - pos))
        if abs(max(bx, by) - 0.5) < 10 * h or (max(bx, by) < 0.5 and abs(bx - by) < 10 * h):
            continue
        value, grad = sdf_gradient_world(unit_square, x_obs[None], pos, yaw)
        fd = np.zeros(2)
        for ax in range(2):
            e = np.zeros(2)
            e[ax] = h
            fp, _ = sdf_gradient_world(unit_square, (x_obs + e)[None], pos, yaw)
            fm, _ = sdf_gradient_world(unit_square, (x_obs - e)[None], pos, yaw)
            fd[ax] = (fp[0] - fm[0]) / (2 * h)
        if np.linalg.norm(fd) > 1e-6:
            assert np.linalg.norm(grad[0] - fd) / np.linalg.norm(fd) < 1e-3
            checked += 1
    assert checked >= 20


def test_reference_point_value(unit_square):
    value, _ = sdf_gradient_world(unit_square, np.zeros((1, 2)), (0.0, 0.0), 0.3)
    assert value[0] == pytest.approx(-inscribed_radius(unit_square), abs=1e-12)


def test_build_kernel_angular_step(slim_rect):
    kernel = build_kernel(slim_rect, 18, 0.1)
    assert kernel.angular_step == pytest.approx(np.deg2rad(20))
    assert kernel.yaw_of(3) == pytest.approx(np.deg2rad(60))
    assert kernel.index_of(np.deg2rad(59)) == 3


def test_build_kernel_tiny_polygon_keeps_reference_cell():
    tiny = RobotShape(np.array([[-0.01, -0.01], [0.01, -0.01], [0.0, 0.01]]),
                      np.array([0.0, -0.001]))
    kernel = build_kernel(tiny, 4, 0.1)
    for offsets in kernel.offsets:
        assert offsets.shape == (1, 2)
        assert np.array_equal(offsets[0], [0, 0])


def test_build_kernel_rectangle_cell_count(slim_rect):
    kernel = build_kernel(slim_rect, 18, 0.1)
    # 1.0 x 0.2 rectangle covers about 20 cells at 0.1 resolution; allow
    # rasterization slack proportional to the perimeter
    slack = (2 * (1.0 + 0.2)) / 0.1
    for offsets in kernel.offsets:
        assert abs(len(offsets) - 20) <= slack


def test_kernel_collides_cases(slim_rect):
    kernel = build_kernel(slim_rect, 18, 0.1)
    empty = grid_from_cells(np.zeros((30, 30), dtype=bool))
    assert not kernel_collides(kernel, empty, (1.5, 1.5), 0)
    under = np.zeros((30, 30), dtype=bool)
    under[15, 15] = True
    occupied = grid_from_cells(under)
    assert kernel_collides(kernel, occupied, (1.55, 1.55), 0)
    # out of bounds counts occupied
    assert kernel_collides(kernel, empty, (0.05, 0.05), 0)
    with pytest.raises(ValueError):
        kernel_collides(kernel, empty, (1.5, 1.5), 18)


def _assert_kernel_matches_sdf(shape, rng):
    """Kernel convolution against the exact SDF at every occupied cell centre,
    both placing the reference point at the pose (criterion 05 style)."""
    kernel = build_kernel(shape, 12, 0.1)
    grid_cells = rng.random((30, 30)) < 0.05
    grid = grid_from_cells(grid_cells)
    occ = grid.occupied_centers()
    for _ in range(50):
        p = rng.uniform(1.0, 2.0, 2)
        k = int(rng.integers(0, 12))
        ix, iy = grid.world_to_cell(p)
        anchor = grid.cell_center(ix, iy)
        body = (occ - anchor) @ rotation(kernel.yaw_of(k))
        expected = bool(np.any(shape.sdf(body) < 0)) if occ.size else False
        assert kernel_collides(kernel, grid, p, k) == expected


def test_kernel_matches_point_in_polygon_oracle(rng):
    _assert_kernel_matches_sdf(rectangle(0.6, 0.3), rng)


def test_kernel_matches_sdf_with_off_origin_reference(rng):
    # a bar drawn from the origin: its reference defaults to the centroid
    # (0.5, 0.1), so the SDF must take points relative to the reference
    bar = parse_shape("vertex: 0 0\nvertex: 1 0\nvertex: 1 0.2\nvertex: 0 0.2\n")
    assert np.allclose(bar.reference, [0.5, 0.1])
    _assert_kernel_matches_sdf(bar, rng)
    assert bar.sdf(np.zeros(2)) == pytest.approx(-0.1, abs=1e-12)
