from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from se2plan.gridmap import (MalformedMapError, OccupancyGrid, dump_map,
                             extract_obstacles, inflate, is_visible, load_map)

from conftest import cell_center, grid_from_cells

MAP_3X3 = """\
resolution: 0.1
origin: 0 0
...
.#.
...
"""


def test_load_map_single_occupied_center():
    grid = load_map(MAP_3X3)
    assert grid.width == 3 and grid.height == 3
    assert grid.resolution == pytest.approx(0.1)
    iy, ix = np.nonzero(grid.cells)
    assert list(zip(ix, iy)) == [(1, 1)]


def test_load_map_all_free():
    grid = load_map("resolution: 0.5\n...\n...\n")
    assert not grid.cells.any()
    assert np.allclose(grid.origin, 0.0)


def test_load_map_first_row_is_top():
    grid = load_map("resolution: 1\n#..\n...\n")
    # raster row 0 is the top of the map, i.e. the largest iy
    assert grid.cells[1, 0] and not grid.cells[0, 0]


def test_load_map_errors():
    with pytest.raises(MalformedMapError):
        load_map("resolution: 0.1\n...\n....\n")  # ragged
    with pytest.raises(MalformedMapError):
        load_map("resolution: 0.1\n..x\n")  # unknown character
    with pytest.raises(MalformedMapError):
        load_map("resolution: -1\n...\n")
    with pytest.raises(MalformedMapError):
        load_map("...\n...\n")  # missing resolution
    with pytest.raises(MalformedMapError):
        load_map("resolution: 0.1\n")  # no raster
    # non-finite numbers fail here, not as an internal error inside a plan
    for header in ("resolution: nan\n", "resolution: inf\n", "resolution: 0.1\norigin: nan 0\n"):
        with pytest.raises(MalformedMapError):
            load_map(header + "...\n")


def test_dump_map_round_trip():
    grid = load_map(MAP_3X3)
    again = load_map(dump_map(grid))
    assert np.array_equal(grid.cells, again.cells)
    assert again.resolution == grid.resolution
    assert np.allclose(again.origin, grid.origin)


def test_world_cell_round_trip():
    grid = load_map(MAP_3X3)
    for ix in range(3):
        for iy in range(3):
            center = cell_center(grid, ix, iy)
            assert grid.world_to_cell(center) == (ix, iy)


def test_inflate_radius_zero_identity():
    grid = load_map(MAP_3X3)
    out = inflate(grid, 0.0)
    assert np.array_equal(out.cells, grid.cells)


def test_inflate_single_cell_disc_count():
    cells = np.zeros((9, 9), dtype=bool)
    cells[4, 4] = True
    grid = grid_from_cells(cells, resolution=0.1)
    out = inflate(grid, 0.2)  # 2 cells: offsets with dx^2 + dy^2 <= 4
    assert int(out.cells.sum()) == 13


def test_inflate_empty_grid():
    grid = grid_from_cells(np.zeros((5, 5), dtype=bool))
    assert not inflate(grid, 1.0).cells.any()


def test_inflate_negative_radius():
    grid = load_map(MAP_3X3)
    with pytest.raises(ValueError):
        inflate(grid, -0.1)


def test_inflate_monotone_and_matches_brute_force(rng):
    for _ in range(5):
        cells = rng.random((20, 20)) < 0.08
        grid = grid_from_cells(cells, resolution=0.1)
        prev = np.zeros_like(cells)
        for radius in (0.1, 0.25, 0.4):
            out = inflate(grid, radius)
            assert np.all(prev <= out.cells)  # monotone in radius
            prev = out.cells
            occ = np.argwhere(cells)  # (N, 2) as (iy, ix)
            expected = np.zeros_like(cells)
            if occ.size:
                for iy in range(20):
                    for ix in range(20):
                        d2 = ((occ[:, 0] - iy) ** 2 + (occ[:, 1] - ix) ** 2) * 0.1**2
                        expected[iy, ix] = np.min(d2) <= radius**2 + 1e-12
            assert np.array_equal(out.cells, expected)


def test_inflate_matches_binary_dilation(rng):
    for _ in range(30):
        h, w = (int(v) for v in rng.integers(1, 40, 2))
        resolution = float(rng.choice([0.05, 0.1, 0.25]))
        cells = rng.random((h, w)) < rng.uniform(0.0, 0.2)
        grid = grid_from_cells(cells, resolution=resolution)
        radius = float(rng.uniform(0.0, 12 * resolution))
        r_cells = int(np.floor(radius / resolution + 1e-9))
        out = inflate(grid, radius).cells
        if r_cells == 0:
            assert np.array_equal(out, cells)
            continue
        dy, dx = np.mgrid[-r_cells : r_cells + 1, -r_cells : r_cells + 1]
        disc = (dx * dx + dy * dy) * resolution**2 <= radius**2 + 1e-12
        assert np.array_equal(out, ndimage.binary_dilation(cells, structure=disc))


def test_extract_obstacles():
    grid = load_map(MAP_3X3)
    pts = extract_obstacles(grid, (0.15, 0.15), 0.2)
    assert pts.shape == (1, 2)
    assert np.allclose(pts[0], [0.15, 0.15])
    # box far away excludes the cell
    assert extract_obstacles(grid, (0.15 + 0.3, 0.15), 0.2).shape == (0, 2)
    empty = grid_from_cells(np.zeros((3, 3), dtype=bool))
    assert extract_obstacles(empty, (0.15, 0.15), 1.0).shape == (0, 2)
    with pytest.raises(ValueError):
        extract_obstacles(grid, (0, 0), 0.0)


def test_extract_obstacles_around_several_positions():
    grid = grid_from_cells(np.ones((10, 10), dtype=bool))
    for positions, xs, ys in (
            # the bounding box grown by the pad: x in [0.13, 0.57],
            # y in [0.13, 0.47]
            ([[0.25, 0.25], [0.45, 0.35], [0.3, 0.3]],
             (0.15, 0.25, 0.35, 0.45, 0.55), (0.15, 0.25, 0.35, 0.45)),
            # a wide, flat box: x in [0.13, 0.97], y in [0.13, 0.47]; the
            # square around it would reach y in [-0.12, 0.72]
            ([[0.25, 0.25], [0.85, 0.35]],
             (0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95),
             (0.15, 0.25, 0.35, 0.45))):
        positions = np.array(positions)
        pts = extract_obstacles(grid, positions, 0.12)
        assert sorted(map(tuple, np.round(pts, 9))) == sorted((x, y) for x in xs for y in ys)
        # every centre within pad of some position is in the box
        centers = grid.occupied_centers()
        near = np.min(np.linalg.norm(centers[:, None] - positions, axis=2), axis=1) <= 0.12
        assert {tuple(c) for c in centers[near]} <= {tuple(p) for p in pts}


def test_replaced_grid_does_not_share_the_occupied_centre_cache():
    grid = load_map(MAP_3X3)
    assert grid.occupied_centers().shape == (1, 2)  # fills the cache
    cleared = replace(grid, cells=np.zeros((3, 3), dtype=bool))
    assert cleared.occupied_centers().shape == (0, 2)
    full = replace(grid, cells=np.ones((3, 3), dtype=bool))
    assert full.occupied_centers().shape == (9, 2)
    assert grid.occupied_centers().shape == (1, 2)


def test_visibility_trivial_cases():
    grid = load_map(MAP_3X3)
    p = np.array([0.05, 0.05])
    assert is_visible(grid, p, p)
    assert is_visible(grid, (0.05, 0.05), (0.25, 0.05))  # free bottom row


def test_visibility_blocked_by_a_wall():
    cells = np.zeros((5, 5), dtype=bool)
    cells[:, 2] = True
    grid = grid_from_cells(cells, resolution=1.0)
    assert not is_visible(grid, (0.5, 2.5), (4.5, 2.5))
    assert is_visible(grid, (0.5, 0.5), (1.5, 4.5))  # beside the wall


def test_visibility_symmetric_verdict(rng):
    for _ in range(20):
        cells = rng.random((15, 15)) < 0.15
        grid = grid_from_cells(cells, resolution=0.2)
        a = rng.uniform(0.05, 2.95, 2)
        b = rng.uniform(0.05, 2.95, 2)
        assert is_visible(grid, a, b) == is_visible(grid, b, a)


def test_visibility_thin_diagonal_wall_not_tunneled():
    # occupied diagonal; a segment crossing the shared lattice corner must hit
    cells = np.zeros((4, 4), dtype=bool)
    for i in range(4):
        cells[i, i] = True
    grid = grid_from_cells(cells, resolution=1.0)
    assert not is_visible(grid, (0.5, 1.5), (1.5, 0.5))


def test_visibility_out_of_bounds_error():
    grid = load_map(MAP_3X3)
    with pytest.raises(ValueError):
        is_visible(grid, (-1.0, 0.0), (0.05, 0.05))


def test_grid_validation():
    with pytest.raises(MalformedMapError):
        OccupancyGrid(0.0, np.zeros(2), np.zeros((3, 3), dtype=bool))
    with pytest.raises(MalformedMapError):
        OccupancyGrid(0.1, np.zeros(2), np.zeros((0, 3), dtype=bool))
