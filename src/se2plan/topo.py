"""Topological front end: roadmap construction on the inflated grid,
penalized-shortest-path multi-path extraction, geometry-aware path shortcut
with body-SDF push-away, and uniform-visibility-deformation path filtering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from .gridmap import OccupancyGrid, extract_obstacles, is_visible, visibility
from .shape import RobotShape

# edge-weight factor on a found path's interior nodes in later extraction rounds
_AVOID_FACTOR = 10.0
# yaw tried on each side of the current one by push_away: a quarter of the
# 18-orientation kernel step
_YAW_TWEAK = (2 * np.pi / 18) / 4


class InfeasibleEndpointError(ValueError):
    """Raised when a query endpoint lies in inflated occupancy."""


def wrap_angle(theta: float) -> float:
    """Normalize to (-pi, pi]."""
    w = (theta + np.pi) % (2 * np.pi) - np.pi
    return np.pi if w == -np.pi else w


def orientation_interp(theta_a: float, theta_b: float, s: float) -> float:
    """Cubic Hermite blend along the shortest angular arc, zero end rates."""
    if not 0.0 <= s <= 1.0:
        raise ValueError("blend fraction must be in [0, 1]")
    delta = wrap_angle(theta_b - theta_a)
    return wrap_angle(theta_a + delta * (3 * s**2 - 2 * s**3))


@dataclass(frozen=True)
class Se2Waypoint:
    position: np.ndarray  # (2,)
    yaw: float  # normalized to (-pi, pi]
    provenance: str = "passthrough"  # start | goal | pushed | passthrough
    safe: bool = True

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "yaw", wrap_angle(float(self.yaw)))


@dataclass(frozen=True)
class Se2Path:
    waypoints: tuple  # of Se2Waypoint

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise ValueError("a path needs at least 2 waypoints")
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            if np.linalg.norm(a.position - b.position) < 1e-12:
                raise ValueError("consecutive waypoints must not coincide")

    @property
    def positions(self) -> np.ndarray:
        return np.array([w.position for w in self.waypoints])

    def length(self) -> float:
        p = self.positions
        return float(np.sum(np.linalg.norm(np.diff(p, axis=0), axis=1)))


@dataclass
class Roadmap:
    nodes: np.ndarray  # (N, 2); node 0 = start, node 1 = goal
    adjacency: list  # adjacency[i] = sorted list of neighbor indices


def build_roadmap(inflated: OccupancyGrid, start, goal, budget: int,
                  rng=None, connection_radius: float | None = None) -> Roadmap:
    """Uniform free-space PRM with visibility edges within a radius.

    Node 0 is the start, node 1 the goal; both must be free in the inflated
    grid.
    """
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    for name, p in (("start", start), ("goal", goal)):
        if not inflated.in_bounds(p) or inflated.is_occupied(p):
            raise InfeasibleEndpointError(f"{name} point {p} is occupied in the inflated grid")
    if rng is None:
        rng = np.random.default_rng(0)
    if connection_radius is None:
        connection_radius = 0.25 * inflated.diagonal
    lo = inflated.origin
    hi = inflated.origin + np.array([inflated.width, inflated.height]) * inflated.resolution
    samples = [start, goal]
    attempts = 0
    while len(samples) - 2 < budget and attempts < budget * 20:
        attempts += 1
        p = lo + rng.random(2) * (hi - lo)
        if not inflated.is_occupied(p):
            samples.append(p)
    nodes = np.array(samples)
    tree = cKDTree(nodes)
    pairs = sorted(tree.query_pairs(connection_radius))
    adjacency = [[] for _ in range(len(nodes))]
    for i, j in pairs:
        if is_visible(inflated, nodes[i], nodes[j]):
            adjacency[i].append(j)
            adjacency[j].append(i)
    return Roadmap(nodes=nodes, adjacency=[sorted(a) for a in adjacency])


def extract_paths(roadmap: Roadmap, max_paths: int) -> list[np.ndarray]:
    """Up to max_paths diverse simple start->goal point paths.

    Repeated shortest-path extraction with node-avoidance penalties: after
    each round every edge touching the found path's interior is penalized by
    _AVOID_FACTOR, so later rounds prefer genuinely different corridors instead
    of small variations of the first one.  Returns [] when start and goal are
    disconnected.
    """
    if max_paths < 1:
        raise ValueError("max_paths must be >= 1")
    n = len(roadmap.nodes)
    rows, cols = [], []
    for i, nbrs in enumerate(roadmap.adjacency):
        rows.extend([i] * len(nbrs))
        cols.extend(nbrs)
    if not rows:
        return []
    rows = np.array(rows)
    cols = np.array(cols)
    base = np.linalg.norm(roadmap.nodes[rows] - roadmap.nodes[cols], axis=1)
    factor = np.ones(n)
    paths: list[np.ndarray] = []
    seen: set = set()
    for _ in range(max_paths):
        weights = base * np.maximum(factor[rows], factor[cols])
        graph = csr_matrix((weights, (rows, cols)), shape=(n, n))
        dist, pred = dijkstra(graph, directed=False, indices=0,
                              return_predecessors=True)
        if not np.isfinite(dist[1]):
            break
        path = [1]
        while path[-1] != 0:
            path.append(int(pred[path[-1]]))
        path.reverse()
        key = tuple(path)
        if key not in seen:
            seen.add(key)
            paths.append(roadmap.nodes[np.array(path)].copy())
        if len(path) <= 2:
            break
        factor[path[1:-1]] *= _AVOID_FACTOR
    return paths


def push_away(shape: RobotShape, position, yaw: float,
              grid: OccupancyGrid, margin: float | None = None, max_attempts: int = 20):
    """Iteratively translate (and slightly rotate) a pose until every nearby
    obstacle point clears the body SDF by `margin` (default: one map
    resolution).

    Each attempt sums the position gradients (RobotShape.sdf_at_pose) of all
    violating obstacle points, weighted by their penetration (margin - value),
    caps the translation at one map resolution, and tries a _YAW_TWEAK in
    whichever direction raises the worst clearance.  Returns (position, yaw,
    safe, attempts).
    """
    if margin is None:
        margin = grid.resolution
    if margin < 0:
        raise ValueError("margin must be >= 0")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    position = np.asarray(position, dtype=float).copy()
    yaw = float(yaw)
    half_extent = shape.circumradius + margin + grid.resolution

    def min_clearance(pos, th):
        obs = extract_obstacles(grid, pos, half_extent)
        if obs.shape[0] == 0:
            return np.inf
        return float(np.min(shape.sdf_at_pose(obs, pos, th)[0]))

    for attempt in range(max_attempts + 1):
        obstacles = extract_obstacles(grid, position, half_extent)
        values, dval = shape.sdf_at_pose(obstacles, position, yaw)
        violating = values < margin
        if not np.any(violating):
            return position, wrap_angle(yaw), True, attempt
        if attempt == max_attempts:
            break
        step = np.sum(dval[violating, :2] * (margin - values[violating])[:, None], axis=0)
        norm = np.linalg.norm(step)
        if norm > grid.resolution:
            step *= grid.resolution / norm
        position = position + step
        base = min_clearance(position, yaw)
        plus = min_clearance(position, yaw + _YAW_TWEAK)
        minus = min_clearance(position, yaw - _YAW_TWEAK)
        if plus > base and plus >= minus:
            yaw += _YAW_TWEAK
        elif minus > base:
            yaw -= _YAW_TWEAK
    return position, wrap_angle(yaw), False, max_attempts


def discretize_polyline(points: np.ndarray, step: float) -> np.ndarray:
    """Uniformly resample a polyline at roughly `step` spacing, keeping the
    original vertices' geometry (samples lie on the polyline)."""
    points = np.asarray(points, dtype=float)
    out = [points[0]]
    for a, b in zip(points[:-1], points[1:]):
        seg = np.linalg.norm(b - a)
        if seg < 1e-12:
            continue
        n = max(int(np.ceil(seg / step)), 1)
        for k in range(1, n + 1):
            out.append(a + (b - a) * (k / n))
    return np.array(out)


def shortcut(path: np.ndarray, shape: RobotShape, grid: OccupancyGrid,
             inflated: OccupancyGrid | None = None) -> Se2Path:
    """Greedy geometry-aware path shortcut.

    The input point path is uniformly discretized at grid resolution; each
    discrete point is tested for visibility from the last kept waypoint (on
    the inflated grid when given, since the topological path lives there).
    On blockage the last visible sample becomes a corner waypoint; the
    obstruction point is additionally seeded with an interpolated yaw and
    pushed away from the real occupancy, and the pushed pose is kept as an
    extra SE(2) waypoint when the push succeeded without breaking the
    visibility chain.
    """
    path = np.asarray(path, dtype=float)
    vis_grid = inflated if inflated is not None else grid
    dense = discretize_polyline(path, grid.resolution)
    start_yaw = _heading(dense[0], dense[min(1, len(dense) - 1)])
    kept = [Se2Waypoint(dense[0], start_yaw, "start")]
    last_visible = dense[0]
    for p_d in dense[1:]:
        back = kept[-1]
        if np.linalg.norm(p_d - back.position) < 1e-12:
            continue
        p_c = visibility(vis_grid, back.position, p_d)
        if p_c is None:
            last_visible = p_d
            continue
        chord = np.linalg.norm(p_d - back.position)
        s = float(np.clip(np.linalg.norm(p_c - back.position) / max(chord, 1e-12), 0.0, 1.0))
        seg_heading = _heading(back.position, p_d)
        seed_yaw = orientation_interp(back.yaw, seg_heading, s)
        if np.linalg.norm(last_visible - back.position) > 1e-12:
            kept.append(Se2Waypoint(last_visible, seg_heading, "corner"))
            back = kept[-1]
        new_pos, new_yaw, safe, _ = push_away(shape, p_c, seed_yaw, grid)
        if (safe
                and np.linalg.norm(new_pos - back.position) > 1e-12
                and is_visible(vis_grid, back.position, new_pos)
                and is_visible(vis_grid, new_pos, p_d)):
            kept.append(Se2Waypoint(new_pos, new_yaw, "pushed", True))
        last_visible = p_d if is_visible(vis_grid, kept[-1].position, p_d) else kept[-1].position
    goal = dense[-1]
    if np.linalg.norm(goal - kept[-1].position) > 1e-12:
        goal_yaw = _heading(kept[-1].position, goal)
        kept.append(Se2Waypoint(goal, goal_yaw, "goal"))
    else:
        last = kept[-1]
        kept[-1] = Se2Waypoint(last.position, last.yaw, "goal", last.safe)
    return Se2Path(tuple(kept))


def _heading(a, b) -> float:
    d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    if np.linalg.norm(d) < 1e-12:
        return 0.0
    return float(np.arctan2(d[1], d[0]))


def simplify_path(points: np.ndarray, grid: OccupancyGrid) -> np.ndarray:
    """Greedy visibility simplification of a point path: from each kept vertex
    jump to the farthest directly visible vertex.  Keeps endpoints; useful for
    tautening raw roadmap paths before topological comparison."""
    points = np.asarray(points, dtype=float)
    if len(points) <= 2:
        return points.copy()
    kept = [0]
    i = 0
    while i < len(points) - 1:
        j = i + 1
        while j + 1 < len(points) and is_visible(grid, points[i], points[j + 1]):
            j += 1
        kept.append(j)
        i = j
    return points[kept]


def _resample_by_arc(points: np.ndarray, n: int) -> np.ndarray:
    """n samples uniformly spaced in arc fraction along a polyline."""
    points = np.asarray(points, dtype=float)
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    if total < 1e-12:
        return np.repeat(points[:1], n, axis=0)
    targets = np.linspace(0.0, total, n)
    idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(seg) - 1)
    frac = (targets - cum[idx]) / np.maximum(seg[idx], 1e-300)
    return points[idx] + frac[:, None] * (points[idx + 1] - points[idx])


def path_points(path) -> np.ndarray:
    if isinstance(path, Se2Path):
        return path.positions
    return np.asarray(path, dtype=float)


def uvd_equivalent(path_a, path_b, grid: OccupancyGrid) -> bool:
    """Uniform visibility deformation test: True iff corresponding
    arc-fraction samples of the two paths are mutually visible."""
    pa = path_points(path_a)
    pb = path_points(path_b)
    if np.linalg.norm(pa[0] - pb[0]) > 1e-9 or np.linalg.norm(pa[-1] - pb[-1]) > 1e-9:
        raise ValueError("UVD requires paths sharing start and goal")
    la = float(np.sum(np.linalg.norm(np.diff(pa, axis=0), axis=1)))
    lb = float(np.sum(np.linalg.norm(np.diff(pb, axis=0), axis=1)))
    n = max(int(np.ceil(max(la, lb) / grid.resolution)), 2)
    sa = _resample_by_arc(pa, n)
    sb = _resample_by_arc(pb, n)
    for a, b in zip(sa, sb):
        if not is_visible(grid, a, b):
            return False
    return True


def dedup_paths(paths: list, grid: OccupancyGrid) -> list:
    """Keep the shortest representative of each UVD class (greedy pairwise
    filtering; UVD is not transitive, so classes are approximate)."""
    def length(p):
        pts = path_points(p)
        return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))

    order = sorted(range(len(paths)), key=lambda i: (length(paths[i]), i))
    kept: list = []
    for i in order:
        if not any(uvd_equivalent(paths[i], k, grid) for k in kept):
            kept.append(paths[i])
    return kept
