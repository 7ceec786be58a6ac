"""Topological front end: roadmap construction on the inflated grid,
penalized-shortest-path multi-path extraction, uniform-visibility-deformation
path filtering, and a grid-resolution visibility shortcut that yields
waypoint positions.  Everything here is grid and visibility on the inflated
map: the motion sequence picks every heading and labels where the body does
not fit, and the SE(2) optimizer deals with the body there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from .gridmap import OccupancyGrid, is_visible

# edge-weight factor on a found path's interior nodes in later extraction rounds
_AVOID_FACTOR = 10.0


class InfeasibleEndpointError(ValueError):
    """Raised when a query endpoint lies in inflated occupancy."""


@dataclass
class Roadmap:
    nodes: np.ndarray  # (N, 2); node 0 = start, node 1 = goal
    adjacency: list  # adjacency[i] = sorted list of neighbor indices


def build_roadmap(inflated: OccupancyGrid, start, goal, budget: int, rng,
                  connection_radius: float | None = None) -> Roadmap:
    """Uniform free-space PRM with visibility edges within a radius (default:
    a quarter of the map diagonal), sampled from the numpy Generator `rng`.

    Node 0 is the start, node 1 the goal; both must be free in the inflated
    grid.
    """
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    for name, p in (("start", start), ("goal", goal)):
        if not inflated.in_bounds(p) or inflated.is_occupied(p):
            raise InfeasibleEndpointError(f"{name} point {p} is occupied in the inflated grid")
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


def simplify_path(points: np.ndarray, grid: OccupancyGrid) -> np.ndarray:
    """Greedy visibility simplification of a point path: from each kept vertex
    advance while the next vertex is directly visible, and keep the last one
    reached.  Keeps endpoints; tautens raw roadmap paths before topological
    comparison and, over a dense resampling, is the shortcut."""
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


def shortcut(path: np.ndarray, inflated: OccupancyGrid) -> np.ndarray:
    """Visibility shortcut of a candidate path; returns the kept waypoint
    positions as a (K, 2) array, start and goal included.

    The path is discretized at grid resolution and simplified on the inflated
    grid: each kept waypoint is the last dense sample of the run that the
    waypoint before it sees.
    """
    kept = simplify_path(discretize_polyline(path, inflated.resolution), inflated)
    if len(kept) < 2:
        raise ValueError("a path needs at least 2 waypoints")
    if np.any(np.linalg.norm(np.diff(kept, axis=0), axis=1) < 1e-12):
        raise ValueError("consecutive waypoints must not coincide")
    return kept


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


def uvd_equivalent(path_a, path_b, grid: OccupancyGrid) -> bool:
    """Uniform visibility deformation test: True iff corresponding
    arc-fraction samples of the two paths are mutually visible."""
    pa = np.asarray(path_a, dtype=float)
    pb = np.asarray(path_b, dtype=float)
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


def dedup_paths(paths: list, grid: OccupancyGrid, max_candidates: int) -> list:
    """The shortest representatives of up to max_candidates UVD classes, in
    order of length (greedy pairwise filtering; UVD is not transitive, so
    classes are approximate).  Each path is judged only against the paths
    already kept, so stopping at max_candidates keeps the same prefix."""
    def length(p):
        return float(np.sum(np.linalg.norm(np.diff(p, axis=0), axis=1)))

    order = sorted(range(len(paths)), key=lambda i: (length(paths[i]), i))
    kept: list = []
    for i in order:
        if len(kept) == max_candidates:
            break
        if not any(uvd_equivalent(paths[i], k, grid) for k in kept):
            kept.append(paths[i])
    return kept
