import numpy as np
import pytest

from se2plan.gridmap import OccupancyGrid
from se2plan.shape import (GeometryError, RobotShape, build_kernel, inscribed_radius,
                           kernel_collides, parse_shape, polygon_sdf, polygon_sdf_gradient,
                           rectangle, rotation)

from conftest import cell_center, grid_from_cells, random_simple_polygon


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
    def sdf(q):  # the body at the origin pose
        return unit_square.sdf_at_pose(np.asarray(q, dtype=float), np.zeros(2), 0.0)[0]

    assert sdf((0.0, 0.0)) == pytest.approx(-0.5)
    assert sdf((1.0, 0.0)) == pytest.approx(0.5)
    assert sdf((0.5, 0.5)) == pytest.approx(0.0)  # corner on boundary


def test_sdf_batched_shapes(unit_square):
    pts = np.zeros((4, 7, 2))
    vals, grads = unit_square.sdf_at_pose(pts, np.zeros(2), 0.0)
    assert vals.shape == (4, 7) and grads.shape == (4, 7, 3)
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
    square = "vertex: 0 0\nvertex: 1 0\nvertex: 1 1\nvertex: 0 1\n"
    for text in (square.replace("vertex: 1 0", "vertex: nan 0"),
                 square + "reference: nan 0.5\n", square + "reference: 0.5 inf\n"):
        with pytest.raises(GeometryError, match="must be finite"):
            parse_shape(text)


def test_sdf_gradient_on_boundary_is_outward_normal(unit_square):
    on_edges = np.array([[0.5, 0.1], [-0.2, 0.5], [-0.5, -0.3], [0.0, -0.5]])
    normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    clockwise = RobotShape(unit_square.vertices[::-1].copy(), np.zeros(2))
    for shape in (unit_square, clockwise):
        values, grads = polygon_sdf_gradient(shape.vertices, on_edges)
        assert np.all(values == 0.0)
        assert np.allclose(grads, normals, atol=1e-12)


def test_sdf_gradient_world_axis_case(unit_square):
    value, grad = unit_square.sdf_at_pose(np.array([[0.7, 0.0]]), (0.0, 0.0), 0.0)
    assert value[0] == pytest.approx(0.2, abs=1e-12)
    assert np.allclose(-grad[0, :2], [1.0, 0.0], atol=1e-12)


def test_sdf_gradient_world_rotates_with_yaw(unit_square):
    # same body-frame geometry, robot rotated 90 degrees
    value0, grad0 = unit_square.sdf_at_pose(np.array([[0.7, 0.0]]), (0.0, 0.0), 0.0)
    value1, grad1 = unit_square.sdf_at_pose(np.array([[0.0, 0.7]]), (0.0, 0.0), np.pi / 2)
    assert value1[0] == pytest.approx(value0[0], abs=1e-9)
    assert np.allclose(rotation(np.pi / 2) @ -grad0[0, :2], -grad1[0, :2], atol=1e-9)


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
        value, grad = unit_square.sdf_at_pose(x_obs[None], pos, yaw)
        fd = np.zeros(2)
        for ax in range(2):
            e = np.zeros(2)
            e[ax] = h
            fp, _ = unit_square.sdf_at_pose((x_obs + e)[None], pos, yaw)
            fm, _ = unit_square.sdf_at_pose((x_obs - e)[None], pos, yaw)
            fd[ax] = (fp[0] - fm[0]) / (2 * h)
        if np.linalg.norm(fd) > 1e-6:
            assert np.linalg.norm(-grad[0, :2] - fd) / np.linalg.norm(fd) < 1e-3
            checked += 1
    assert checked >= 20


def test_sdf_at_pose_broadcasts_like_single_pose_calls(rng):
    shape = rectangle(1.0, 0.4, reference=[0.1, -0.05])
    positions = rng.uniform(-0.5, 0.5, (5, 1, 2))
    yaws = rng.uniform(-np.pi, np.pi, (5, 1))
    points = rng.uniform(-1.0, 1.0, (7, 2))
    values, grads = shape.sdf_at_pose(points, positions, yaws)
    assert values.shape == (5, 7) and grads.shape == (5, 7, 3)
    for t in range(5):
        value, grad = shape.sdf_at_pose(points, positions[t, 0], yaws[t, 0])
        assert np.max(np.abs(values[t] - value)) <= 1e-12
        assert np.max(np.abs(grads[t] - grad)) <= 1e-12


def test_sdf_at_pose_pose_gradient_matches_fd(rng):
    # unit square with an off-origin reference: keep FD stencils clear of the
    # boundary and, inside, of the medial axis (the square's diagonals)
    ref = np.array([0.1, -0.05])
    shape = rectangle(1.0, 1.0, reference=ref)
    h = 1e-7
    checked = 0
    for _ in range(60):
        pose = np.append(rng.uniform(-0.1, 0.1, 2), rng.uniform(-np.pi, np.pi))
        x_obs = pose[:2] + rotation(pose[2]) @ (rng.uniform(-0.6, 0.6, 2) - ref)
        qx, qy = np.abs(rotation(pose[2]).T @ (x_obs - pose[:2]) + ref)
        if abs(max(qx, qy) - 0.5) < 10 * h or (max(qx, qy) < 0.5 and abs(qx - qy) < 10 * h):
            continue
        _, grad = shape.sdf_at_pose(x_obs, pose[:2], pose[2])
        fd = np.zeros(3)
        for ax in range(3):
            e = np.zeros(3)
            e[ax] = h
            fp, _ = shape.sdf_at_pose(x_obs, (pose + e)[:2], (pose + e)[2])
            fm, _ = shape.sdf_at_pose(x_obs, (pose - e)[:2], (pose - e)[2])
            fd[ax] = (fp - fm) / (2 * h)
        if np.linalg.norm(fd) > 1e-6:
            assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-3
            checked += 1
    assert checked >= 20


def test_near_pose_rejects_only_points_farther_than_the_margin(rng):
    # a point the broad phase rejects has signed distance > margin, and the
    # box is not vacuous: it rejects most points of a wide sample
    margin = 0.05
    rejected = 0
    for _ in range(20):
        shape = random_simple_polygon(rng)
        shape = RobotShape(shape.vertices, rng.uniform(-0.05, 0.05, 2))
        position = rng.uniform(-1.0, 1.0, 2)
        yaw = float(rng.uniform(-np.pi, np.pi))
        points = position + rng.uniform(-3.0, 3.0, (500, 2))
        near = shape.near_pose(points, position, yaw, margin)
        values, _ = shape.sdf_at_pose(points, position, yaw)
        assert np.all(values[~near] > margin)
        assert near.shape == (500,) and near.any()
        rejected += int(np.sum(~near))
    assert rejected > 20 * 500 / 2


def test_reference_point_value(unit_square):
    value, _ = unit_square.sdf_at_pose(np.zeros((1, 2)), (0.0, 0.0), 0.3)
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


def test_kernel_collides_rejects_a_kernel_for_other_cells():
    shape = rectangle(0.6, 0.3)
    cells = np.zeros((40, 40), dtype=bool)
    cells[20, 25] = True  # centre (1.275, 1.025)
    fine = grid_from_cells(cells, resolution=0.05)
    p = cell_center(fine, 20, 20)
    # the obstacle lies 5 cm inside the body at yaw 0
    inside = polygon_sdf(shape.vertices, cell_center(fine, 25, 20)[None] - p)[0]
    assert inside == pytest.approx(-0.05)
    assert kernel_collides(build_kernel(shape, 18, 0.05), fine, p, 0)
    with pytest.raises(ValueError, match="cells"):
        kernel_collides(build_kernel(shape, 18, 0.1), fine, p, 0)


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
        anchor = cell_center(grid, ix, iy)
        body = (occ - anchor) @ rotation(kernel.yaw_of(k))
        expected = (bool(np.any(polygon_sdf(shape.vertices, body + shape.reference) < 0))
                    if occ.size else False)
        assert kernel_collides(kernel, grid, p, k) == expected


def test_kernel_matches_point_in_polygon_oracle(rng):
    _assert_kernel_matches_sdf(rectangle(0.6, 0.3), rng)


def test_kernel_matches_sdf_with_off_origin_reference(rng):
    # a bar drawn from the origin: its reference defaults to the centroid
    # (0.5, 0.1), so the SDF must take points relative to the reference
    bar = parse_shape("vertex: 0 0\nvertex: 1 0\nvertex: 1 0.2\nvertex: 0 0.2\n")
    assert np.allclose(bar.reference, [0.5, 0.1])
    _assert_kernel_matches_sdf(bar, rng)
    assert polygon_sdf(bar.vertices, bar.reference) == pytest.approx(-0.1, abs=1e-12)
