"""Shared fixtures: crafted maps and randomized geometry generators."""

from __future__ import annotations

import numpy as np
import pytest

from se2plan.gridmap import OccupancyGrid
from se2plan.shape import RobotShape, rectangle


def grid_from_cells(cells, resolution=0.1, origin=(0.0, 0.0)) -> OccupancyGrid:
    return OccupancyGrid(resolution, np.asarray(origin, dtype=float),
                         np.asarray(cells, dtype=bool))


def cell_center(grid: OccupancyGrid, ix: int, iy: int) -> np.ndarray:
    """World coordinate of the center of cell (ix, iy)."""
    return grid.origin + (np.array([ix, iy], dtype=float) + 0.5) * grid.resolution


def empty_grid(n=20, resolution=0.1) -> OccupancyGrid:
    return grid_from_cells(np.zeros((n, n), dtype=bool), resolution)


def box_grid(n=30, resolution=0.1, box=(12, 18, 12, 18)) -> OccupancyGrid:
    """Free map with one occupied box; box = (ix_lo, ix_hi, iy_lo, iy_hi)."""
    cells = np.zeros((n, n), dtype=bool)
    ix_lo, ix_hi, iy_lo, iy_hi = box
    cells[iy_lo:iy_hi, ix_lo:ix_hi] = True
    return grid_from_cells(cells, resolution)


def wall_grid(n=30, resolution=0.1, wall_ix=15, gaps=((5, 10),)) -> OccupancyGrid:
    """Vertical one-cell wall at column wall_ix with the given open iy ranges."""
    cells = np.zeros((n, n), dtype=bool)
    cells[:, wall_ix] = True
    for lo, hi in gaps:
        cells[lo:hi, wall_ix] = False
    return grid_from_cells(cells, resolution)


def baffle_grid(n=40, resolution=0.1, wall_top=2.9, ax=1.95, slot_a=(1.1, 1.4),
                bx=2.45, slot_b=(1.65, 2.05)) -> OccupancyGrid:
    """Two staggered baffle walls with offset slots.

    Threading the slots needs a diagonal whole-body maneuver (the slot pair is
    offset by (0.5, 0.6) m, an angle deliberately far from every kernel yaw),
    while the region above wall_top stays open as a long detour.
    """
    cells = np.zeros((n, n), dtype=bool)
    xs = (np.arange(n) + 0.5) * resolution
    ys = (np.arange(n) + 0.5) * resolution
    gx, gy = np.meshgrid(xs, ys)
    wall_a = (np.abs(gx - ax) < 0.05 + 1e-9) & (gy < wall_top) \
        & ~((gy > slot_a[0]) & (gy < slot_a[1]))
    wall_b = (np.abs(gx - bx) < 0.05 + 1e-9) & (gy < wall_top) \
        & ~((gy > slot_b[0]) & (gy < slot_b[1]))
    cells[wall_a | wall_b] = True
    return grid_from_cells(cells, resolution)


def random_simple_polygon(rng, n_vertices=None, r_min=0.2, r_max=1.0) -> RobotShape:
    """Star-shaped polygon around the origin (random radius per angle), which
    is always simple and always contains the origin strictly."""
    if n_vertices is None:
        n_vertices = int(rng.integers(3, 10))
    # stratified angles: one vertex per sector keeps every angular gap < pi,
    # so the origin stays strictly inside
    jitter = rng.uniform(0.3, 0.7, n_vertices)
    angles = 2 * np.pi * (np.arange(n_vertices) + jitter) / n_vertices
    radii = rng.uniform(r_min, r_max, n_vertices)
    verts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    return RobotShape(vertices=verts, reference=np.zeros(2))


def random_obstacle_grid(rng, n=20, resolution=0.1, n_boxes=4, max_side=3) -> OccupancyGrid:
    """Random small boxes scattered over an n x n grid."""
    cells = np.zeros((n, n), dtype=bool)
    for _ in range(n_boxes):
        w = int(rng.integers(1, max_side + 1))
        h = int(rng.integers(1, max_side + 1))
        ix = int(rng.integers(0, n - w))
        iy = int(rng.integers(0, n - h))
        cells[iy : iy + h, ix : ix + w] = True
    return grid_from_cells(cells, resolution)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def unit_square() -> RobotShape:
    return rectangle(1.0, 1.0)


@pytest.fixture
def slim_rect() -> RobotShape:
    return rectangle(1.0, 0.2)
