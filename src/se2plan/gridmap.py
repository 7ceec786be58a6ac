"""2D occupancy grid environment: loading, inflation, obstacle extraction,
and grid-line visibility.

World convention: the grid origin is the world coordinate of the lower-left
corner of cell (0, 0); cell (ix, iy) has its center at
``origin + ((ix + 0.5) * res, (iy + 0.5) * res)``.  In map text files the
first raster row is the *top* of the map (largest y), so fixtures read the
way they look.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MalformedMapError(ValueError):
    """Raised when a map document cannot be parsed into a valid grid."""


@dataclass(frozen=True)
class OccupancyGrid:
    """Immutable boolean occupancy field.

    cells has shape (height, width), indexed cells[iy, ix]; True = occupied.
    """

    resolution: float
    origin: np.ndarray  # (2,) world coordinate of the corner of cell (0, 0)
    cells: np.ndarray  # bool, shape (height, width)
    # not an init field, so dataclasses.replace starts an empty cache
    _occupied_centers: list = field(default_factory=list, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        # written as `not ...` so that NaN fails too
        if not 0 < self.resolution < np.inf:
            raise MalformedMapError(f"resolution must be positive and finite, got {self.resolution}")
        if self.cells.ndim != 2 or self.cells.shape[0] < 1 or self.cells.shape[1] < 1:
            raise MalformedMapError(f"grid must be 2D and non-empty, got shape {self.cells.shape}")
        origin = np.asarray(self.origin, dtype=float)
        if not np.all(np.isfinite(origin)):
            raise MalformedMapError(f"origin must be finite, got {self.origin}")
        object.__setattr__(self, "origin", origin)
        cells = np.asarray(self.cells, dtype=bool)
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    def world_to_cell(self, p) -> tuple[int, int]:
        """Cell index (ix, iy) containing world point p."""
        u = (np.asarray(p, dtype=float) - self.origin) / self.resolution
        return int(np.floor(u[0])), int(np.floor(u[1]))

    def in_bounds(self, p) -> bool:
        ix, iy = self.world_to_cell(p)
        return 0 <= ix < self.width and 0 <= iy < self.height

    def is_occupied(self, p) -> bool:
        """Occupancy of the cell containing p; out-of-bounds counts occupied."""
        ix, iy = self.world_to_cell(p)
        if not (0 <= ix < self.width and 0 <= iy < self.height):
            return True
        return bool(self.cells[iy, ix])

    def occupied_centers(self) -> np.ndarray:
        """World centers of all occupied cells, shape (N, 2). Cached."""
        if not self._occupied_centers:
            iy, ix = np.nonzero(self.cells)
            centers = self.origin + (np.stack([ix, iy], axis=1) + 0.5) * self.resolution
            centers.flags.writeable = False
            self._occupied_centers.append(centers)
        return self._occupied_centers[0]

    @property
    def diagonal(self) -> float:
        return float(np.hypot(self.width, self.height) * self.resolution)


def load_map(text: str) -> OccupancyGrid:
    """Parse a map document.

    Format: header lines ``resolution: <f>`` and ``origin: <x> <y>``, then a
    rectangular raster of '#' (occupied) and '.' (free).  The first raster
    row is the top of the map.
    """
    resolution = None
    origin = None
    raster: list[str] = []
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line.strip():
            continue
        if line.startswith("resolution:"):
            try:
                resolution = float(line.split(":", 1)[1])
            except ValueError as e:
                raise MalformedMapError(f"bad resolution line: {line!r}") from e
        elif line.startswith("origin:"):
            parts = line.split(":", 1)[1].split()
            if len(parts) != 2:
                raise MalformedMapError(f"bad origin line: {line!r}")
            try:
                origin = np.array([float(parts[0]), float(parts[1])])
            except ValueError as e:
                raise MalformedMapError(f"bad origin line: {line!r}") from e
        else:
            raster.append(line.strip())
    if resolution is None:
        raise MalformedMapError("missing 'resolution:' header")
    if origin is None:
        origin = np.zeros(2)
    if not raster:
        raise MalformedMapError("missing raster rows")
    widths = {len(row) for row in raster}
    if len(widths) != 1:
        raise MalformedMapError(f"ragged raster rows, widths {sorted(widths)}")
    bad = set("".join(raster)) - {"#", "."}
    if bad:
        raise MalformedMapError(f"unknown raster characters {sorted(bad)}")
    # first text row is the top row (largest y)
    rows = [[c == "#" for c in row] for row in reversed(raster)]
    return OccupancyGrid(resolution=resolution, origin=origin, cells=np.array(rows, dtype=bool))


def dump_map(grid: OccupancyGrid) -> str:
    """Inverse of load_map (useful for fixtures built in code)."""
    lines = [f"resolution: {float(grid.resolution)!r}",
             f"origin: {float(grid.origin[0])!r} {float(grid.origin[1])!r}"]
    for iy in range(grid.height - 1, -1, -1):
        lines.append("".join("#" if c else "." for c in grid.cells[iy]))
    return "\n".join(lines) + "\n"


def inflate(grid: OccupancyGrid, radius: float) -> OccupancyGrid:
    """Dilate occupancy so a cell is occupied iff some source occupied cell
    center lies within `radius` (world meters, center-to-center)."""
    if radius < 0:
        raise ValueError(f"inflation radius must be >= 0, got {radius}")
    r_cells = int(np.floor(radius / grid.resolution + 1e-9))
    if r_cells == 0:
        return OccupancyGrid(grid.resolution, grid.origin, grid.cells)
    dy, dx = np.mgrid[-r_cells : r_cells + 1, -r_cells : r_cells + 1]
    disc = (dx * dx + dy * dy) * grid.resolution**2 <= radius**2 + 1e-12
    # binary dilation by the disc, cells beyond the map counting free: OR
    # the shifted views of a zero-padded copy, one view per disc offset
    h, w = grid.cells.shape
    padded = np.zeros((h + 2 * r_cells, w + 2 * r_cells), dtype=bool)
    padded[r_cells : r_cells + h, r_cells : r_cells + w] = grid.cells
    cells = np.zeros((h, w), dtype=bool)
    for oy, ox in np.argwhere(disc):
        cells |= padded[oy : oy + h, ox : ox + w]
    return OccupancyGrid(grid.resolution, grid.origin, cells)


def extract_obstacles(grid: OccupancyGrid, positions, pad: float) -> np.ndarray:
    """Centers of occupied cells inside the axis-aligned bounding box of
    `positions` ((N, 2), or one (2,) point) grown by pad on every side.  The
    box contains every point within pad of a position.

    Returns an (N, 2) array (possibly empty).
    """
    if pad <= 0:
        raise ValueError(f"pad must be > 0, got {pad}")
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    lo = positions.min(axis=0) - pad - 1e-12
    hi = positions.max(axis=0) + pad + 1e-12
    pts = grid.occupied_centers()
    return pts[np.all((pts >= lo) & (pts <= hi), axis=1)]


def _supercover_cells(grid: OccupancyGrid, a, b) -> np.ndarray:
    """All cells the segment a->b touches, in no particular order, shape
    (N, 2) columns (ix, iy).  Passing exactly through a lattice corner
    includes both side cells so thin diagonal walls cannot be tunneled
    through."""
    res = grid.resolution
    u0 = (np.asarray(a, dtype=float) - grid.origin) / res
    u1 = (np.asarray(b, dtype=float) - grid.origin) / res
    d = u1 - u0
    events = [np.array([0.0, 1.0])]
    for ax in (0, 1):
        if abs(d[ax]) > 1e-15:
            lo, hi = sorted((u0[ax], u1[ax]))
            ks = np.arange(np.ceil(lo - 1e-12), np.floor(hi + 1e-12) + 1)
            t = (ks - u0[ax]) / d[ax]
            events.append(t[(t > 1e-12) & (t < 1 - 1e-12)])
    t_all = np.sort(np.concatenate(events))
    mid = (t_all[:-1] + t_all[1:]) / 2
    mid = mid[(t_all[1:] - t_all[:-1]) > 1e-13]
    cells = np.floor(u0[None, :] + mid[:, None] * d[None, :]).astype(int)
    # An exact lattice-corner crossing shows up as a diagonal jump between
    # consecutive cells; add both side cells of each
    corner = np.nonzero((np.diff(cells[:, 0]) != 0) & (np.diff(cells[:, 1]) != 0))[0]
    if corner.size:
        cells = np.concatenate([cells, np.column_stack([cells[corner + 1, 0], cells[corner, 1]]),
                                np.column_stack([cells[corner, 0], cells[corner + 1, 1]])])
    np.clip(cells[:, 0], 0, grid.width - 1, out=cells[:, 0])
    np.clip(cells[:, 1], 0, grid.height - 1, out=cells[:, 1])
    return cells


def is_visible(grid: OccupancyGrid, a, b) -> bool:
    """True iff every cell the segment a->b touches is free; both endpoints
    must lie inside the grid."""
    if not grid.in_bounds(a) or not grid.in_bounds(b):
        raise ValueError("visibility endpoints must lie inside grid bounds")
    cells = _supercover_cells(grid, a, b)
    return not grid.cells[cells[:, 1], cells[:, 0]].any()
