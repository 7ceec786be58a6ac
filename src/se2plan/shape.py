"""Robot geometry: simple-polygon footprint, exact signed distance queries,
and the per-orientation rasterized kernel used for fast occupancy convolution
checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gridmap import OccupancyGrid


class GeometryError(ValueError):
    """Raised for invalid robot shapes."""


_BOUNDARY_TOL = 1e-12


def _segments(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return vertices, np.roll(vertices, -1, axis=0)


def polygon_sdf(vertices: np.ndarray, q) -> np.ndarray:
    """Signed distance from points q (..., 2) to the polygon boundary.

    Negative strictly inside (nonzero winding number), positive outside,
    exactly-on-boundary points report +0.0.
    """
    f, _ = polygon_sdf_gradient(vertices, q)
    return f


def polygon_sdf_gradient(vertices: np.ndarray, q):
    """Signed distance and its steepest-ascent gradient.

    The gradient points from the closest boundary point toward the query when
    outside, and toward the boundary when inside; exactly on the boundary it
    is the closest edge's outward normal.  Returns (f, g) with shapes
    (...,) and (..., 2).
    """
    q = np.asarray(q, dtype=float)
    single = q.ndim == 1
    pts = q.reshape(-1, 2)
    a, b = _segments(vertices)
    e = b - a  # (V, 2)
    e_len2 = np.maximum(np.sum(e * e, axis=1), 1e-300)
    rel = pts[:, None, :] - a[None, :, :]  # (P, V, 2)
    t = np.clip(np.einsum("pvk,vk->pv", rel, e) / e_len2, 0.0, 1.0)
    closest = a[None, :, :] + t[:, :, None] * e[None, :, :]
    diff = pts[:, None, :] - closest
    d2 = np.sum(diff * diff, axis=2)
    best = np.argmin(d2, axis=1)
    idx = np.arange(pts.shape[0])
    d = np.sqrt(d2[idx, best])
    cp = closest[idx, best]
    # winding number (crossing form); nonzero => inside
    x, y = pts[:, 0], pts[:, 1]
    ax, ay = a[None, :, 0], a[None, :, 1]
    bx, by = b[None, :, 0], b[None, :, 1]
    left = (bx - ax) * (y[:, None] - ay) - (x[:, None] - ax) * (by - ay)
    up = (ay <= y[:, None]) & (by > y[:, None]) & (left > 0)
    down = (ay > y[:, None]) & (by <= y[:, None]) & (left < 0)
    wn = np.sum(up.astype(int) - down.astype(int), axis=1)
    on = d <= _BOUNDARY_TOL
    inside = (wn != 0) & ~on
    sign = np.where(inside, -1.0, 1.0)
    f = sign * d
    f[on] = 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        g = sign[:, None] * (pts - cp) / np.maximum(d, 1e-300)[:, None]
    if np.any(on):
        # on the boundary, report the gradient's limit from outside: the
        # closest edge's outward normal (a zero here stalls any descent that
        # lands a point exactly on an edge)
        area2 = np.sum(a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1])  # twice the signed area
        e_on = e[best[on]]
        g[on] = (np.sign(area2) * np.stack([e_on[:, 1], -e_on[:, 0]], axis=1)
                 / np.sqrt(e_len2[best[on]])[:, None])
    if single:
        return float(f[0]), g[0]
    return f.reshape(q.shape[:-1]), g.reshape(q.shape)


def _edges_intersect(p1, p2, p3, p4) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(p3, p4, p1), orient(p3, p4, p2)
    d3, d4 = orient(p1, p2, p3), orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


@dataclass(frozen=True)
class RobotShape:
    """Simple-polygon robot footprint in the body frame.

    reference is the rotation center; it must lie strictly inside the polygon.
    """

    vertices: np.ndarray  # (V, 2)
    reference: np.ndarray  # (2,)

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[0] < 3 or verts.shape[1] != 2:
            raise GeometryError("polygon needs at least 3 (x, y) vertices")
        ref = np.asarray(self.reference, dtype=float)
        if not (np.all(np.isfinite(verts)) and np.all(np.isfinite(ref))):
            raise GeometryError("vertices and reference must be finite")
        a, b = _segments(verts)
        n = verts.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue
                if _edges_intersect(a[i], b[i], a[j], b[j]):
                    raise GeometryError("polygon is self-intersecting")
        if polygon_sdf(verts, ref) >= 0:
            raise GeometryError("reference point must lie strictly inside the polygon")
        verts.flags.writeable = False
        ref.flags.writeable = False
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "reference", ref)

    @property
    def circumradius(self) -> float:
        """Max distance from the reference point to any vertex."""
        return float(np.max(np.linalg.norm(self.vertices - self.reference, axis=1)))

    def _to_body(self, points, position, yaw):
        """World points seen from a pose (reference point at `position`, body
        turned by `yaw`), in the polygon's frame; also returns the world
        offsets (dx, dy) from the pose and cos/sin of the yaw.  The only
        place a world point is taken into the body frame."""
        d = np.asarray(points, dtype=float) - np.asarray(position, dtype=float)
        dx, dy = d[..., 0], d[..., 1]
        c, s = np.cos(yaw), np.sin(yaw)
        body = np.stack([c * dx + s * dy, -s * dx + c * dy], axis=-1) + self.reference
        return body, dx, dy, c, s

    def near_pose(self, points, position, yaw, margin: float) -> np.ndarray:
        """Broad phase for sdf_at_pose: False where a world point lies outside
        the polygon's body-frame bounding box grown by `margin`.  The distance
        to a polygon is at least the distance to its bounding box, so such a
        point has signed distance > margin.  Arguments broadcast as in
        sdf_at_pose."""
        body = self._to_body(points, position, yaw)[0]
        lo = self.vertices.min(axis=0) - margin
        hi = self.vertices.max(axis=0) + margin
        return np.all((body >= lo) & (body <= hi), axis=-1)

    def sdf_at_pose(self, points, position, yaw):
        """Signed distance from world points to the body at a pose (reference
        point at `position`, body turned by `yaw`) and its pose gradient.

        points (..., 2), position (..., 2) and yaw (...) broadcast together;
        returns values (...) and d value / d (x, y, yaw) (..., 3).
        """
        body, dx, dy, c, s = self._to_body(points, position, yaw)
        value, g = polygon_sdf_gradient(self.vertices, body)
        gx, gy = g[..., 0], g[..., 1]
        # d body / d yaw = R(yaw)^T S d, S the 90 degree rotation: u = (dy, -dx)
        ux, uy = dy, -dx
        d_yaw = gx * (c * ux + s * uy) + gy * (-s * ux + c * uy)
        # moving the pose moves the point the other way in the body frame
        return value, np.stack([-(c * gx - s * gy), -(s * gx + c * gy), d_yaw], axis=-1)

    def outline_world(self, position, yaw: float) -> np.ndarray:
        """Polygon vertices placed at a world pose (reference at `position`)."""
        rel = self.vertices - self.reference
        return np.asarray(position, dtype=float) + rel @ rotation(yaw).T


def rotation(yaw: float) -> np.ndarray:
    """Body-to-world rotation matrix."""
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([[c, -s], [s, c]])


def parse_shape(text: str) -> RobotShape:
    """Parse a shape document of ``vertex: <x> <y>`` lines plus an optional
    ``reference: <x> <y>`` line (default: vertex centroid)."""
    verts = []
    ref = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("vertex:"):
            parts = line.split(":", 1)[1].split()
            if len(parts) != 2:
                raise GeometryError(f"bad vertex line: {line!r}")
            verts.append([float(parts[0]), float(parts[1])])
        elif line.startswith("reference:"):
            parts = line.split(":", 1)[1].split()
            if len(parts) != 2:
                raise GeometryError(f"bad reference line: {line!r}")
            ref = np.array([float(parts[0]), float(parts[1])])
        else:
            raise GeometryError(f"unknown shape line: {line!r}")
    verts = np.array(verts, dtype=float)
    if ref is None:
        ref = verts.mean(axis=0)
    return RobotShape(vertices=verts, reference=ref)


def rectangle(length: float, width: float, reference=None) -> RobotShape:
    """Axis-aligned rectangle centered on the origin (long axis = body x)."""
    hl, hw = length / 2, width / 2
    verts = np.array([[-hl, -hw], [hl, -hw], [hl, hw], [-hl, hw]])
    if reference is None:
        reference = np.zeros(2)
    return RobotShape(vertices=verts, reference=np.asarray(reference, dtype=float))


def inscribed_radius(shape: RobotShape) -> float:
    """Largest disc radius around the reference point contained in the polygon."""
    d = polygon_sdf(shape.vertices, shape.reference)
    if d >= 0:
        raise GeometryError("reference point is not inside the polygon")
    return float(-d)


@dataclass(frozen=True)
class RobotKernel:
    """Rasterized footprints at n_orientations evenly spaced yaws.

    offsets[k] is an (N_k, 2) int array of (dx, dy) cell offsets relative to
    the reference cell, covering yaw k * 2*pi / n_orientations.
    """

    n_orientations: int
    resolution: float
    offsets: tuple = field(repr=False)

    @property
    def angular_step(self) -> float:
        return 2 * np.pi / self.n_orientations

    def yaw_of(self, k: int) -> float:
        return k * self.angular_step

    def index_of(self, yaw: float) -> int:
        """Nearest orientation index for a yaw."""
        return int(np.round(yaw / self.angular_step)) % self.n_orientations


def build_kernel(shape: RobotShape, n_orientations: int, resolution: float) -> RobotKernel:
    """Rasterize the polygon at each orientation: a cell offset belongs to the
    footprint iff its center lies inside the rotated polygon (reference at the
    reference-cell center).  An empty rasterization keeps the reference cell
    so checks are never vacuously safe."""
    if n_orientations < 1:
        raise ValueError("n_orientations must be >= 1")
    rel = shape.vertices - shape.reference
    offsets = []
    for k in range(n_orientations):
        verts = rel @ rotation(k * 2 * np.pi / n_orientations).T
        lo = np.floor(verts.min(axis=0) / resolution).astype(int) - 1
        hi = np.ceil(verts.max(axis=0) / resolution).astype(int) + 1
        dx, dy = np.meshgrid(np.arange(lo[0], hi[0] + 1), np.arange(lo[1], hi[1] + 1))
        cand = np.stack([dx.ravel(), dy.ravel()], axis=1)
        inside = polygon_sdf(verts, cand * resolution) < 0
        cells = cand[inside]
        if cells.shape[0] == 0:
            cells = np.zeros((1, 2), dtype=int)
        cells = np.ascontiguousarray(cells)
        cells.flags.writeable = False
        offsets.append(cells)
    return RobotKernel(n_orientations=n_orientations, resolution=resolution, offsets=tuple(offsets))


def kernel_collides(kernel: RobotKernel, grid: OccupancyGrid, p, k: int) -> bool:
    """Boolean convolution check: True iff any footprint cell (translated to
    the cell containing p) is occupied or out of bounds.  The kernel must be
    built for the grid's cell size."""
    if kernel.resolution != grid.resolution:
        raise ValueError(f"kernel built for {kernel.resolution} m cells, "
                         f"grid has {grid.resolution} m cells")
    if not 0 <= k < kernel.n_orientations:
        raise ValueError(f"orientation index {k} out of range")
    ix, iy = grid.world_to_cell(p)
    cells = kernel.offsets[k] + [ix, iy]
    oob = (cells[:, 0] < 0) | (cells[:, 0] >= grid.width) | (cells[:, 1] < 0) | (cells[:, 1] >= grid.height)
    if np.any(oob):
        return True
    return bool(np.any(grid.cells[cells[:, 1], cells[:, 0]]))
