"""Topological front end: a lazy roadmap on the inflated grid,
penalized-shortest-path multi-path extraction that checks an edge's
visibility only when a shortest path uses it, uniform-visibility-deformation
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

from .gridmap import OccupancyGrid, is_visible

# edge-weight factor on a found path's interior nodes in later extraction rounds
_AVOID_FACTOR = 10.0
# rows of the pairwise distance block in the candidate-pair search
_PAIR_BLOCK = 256
# visibility status of a candidate edge
_UNCHECKED, _VALID, _INVALID = 0, 1, 2


class InfeasibleEndpointError(ValueError):
    """Raised when a query endpoint lies in inflated occupancy."""


@dataclass
class Roadmap:
    nodes: np.ndarray  # (N, 2); node 0 = start, node 1 = goal
    # adjacency[i] = sorted indices of i's candidate neighbours: the nodes
    # within the connection radius, visibility not yet checked (symmetric)
    adjacency: list


def candidate_neighbours(nodes: np.ndarray, radius: float) -> list:
    """Per node, the sorted indices of the other nodes at most `radius` away
    (squared distances compared, in blocks of _PAIR_BLOCK rows)."""
    nodes = np.asarray(nodes, dtype=float)
    r2 = radius * radius
    out = []
    for lo in range(0, len(nodes), _PAIR_BLOCK):
        block = nodes[lo:lo + _PAIR_BLOCK]
        dx = block[:, None, 0] - nodes[None, :, 0]
        dy = block[:, None, 1] - nodes[None, :, 1]
        near = dx * dx + dy * dy <= r2
        near[np.arange(len(block)), np.arange(lo, lo + len(block))] = False
        out.extend(np.flatnonzero(row) for row in near)
    return out


def build_roadmap(inflated: OccupancyGrid, start, goal, budget: int, rng,
                  connection_radius: float | None = None) -> Roadmap:
    """Uniform free-space PRM sampled from the numpy Generator `rng`, with
    candidate edges between nodes within a radius (default: a quarter of the
    map diagonal).  No edge is checked for visibility here: extract_paths
    checks the ones its shortest paths use.

    Node 0 is the start, node 1 the goal; both must be free in the inflated
    grid.
    """
    if connection_radius is None:
        connection_radius = 0.25 * inflated.diagonal
    # written as `not ...` so that NaN fails too
    elif not connection_radius > 0:
        raise ValueError(f"connection_radius must be > 0, got {connection_radius}")
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    for name, p in (("start", start), ("goal", goal)):
        if not inflated.in_bounds(p) or inflated.is_occupied(p):
            raise InfeasibleEndpointError(f"{name} point {p} is occupied in the inflated grid")
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
    return Roadmap(nodes=nodes, adjacency=candidate_neighbours(nodes, connection_radius))


def extract_paths(roadmap: Roadmap, inflated: OccupancyGrid, max_paths: int) -> list[np.ndarray]:
    """Up to max_paths diverse simple start->goal point paths over the
    roadmap's visible edges.

    Repeated shortest-path extraction with node-avoidance penalties: after
    each round every edge touching the found path's interior is penalized by
    _AVOID_FACTOR, so later rounds prefer genuinely different corridors instead
    of small variations of the first one.  Returns [] when start and goal are
    disconnected.

    Edges are checked lazily (Lazy PRM): a round runs Dijkstra over every
    candidate edge not yet found blocked, checks the unchecked edges of the
    path it returns on `inflated`, and reruns after removing any blocked one.
    A path made only of visible edges is shortest in a graph that contains
    the visible graph, so it is also shortest in the visible graph itself.
    """
    if max_paths < 1:
        raise ValueError("max_paths must be >= 1")
    nodes = roadmap.nodes
    n = len(nodes)
    lengths = np.array([len(a) for a in roadmap.adjacency], dtype=np.int64)
    if not lengths.any():
        return []
    # one CSR graph holding both arcs of every candidate edge; its data is
    # rewritten in place, so that no round or rerun rebuilds it
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    cols = np.concatenate(roadmap.adjacency).astype(np.int64)
    rows = np.repeat(np.arange(n), lengths)
    graph = csr_matrix((np.empty(len(cols)), cols, indptr), shape=(n, n))
    base = np.linalg.norm(nodes[rows] - nodes[cols], axis=1)
    # visibility status per arc; both arcs of an edge are written together
    status = np.zeros(len(cols), dtype=np.int8)

    def arc(a, b):
        return indptr[a] + np.searchsorted(cols[indptr[a]:indptr[a + 1]], b)

    factor = np.ones(n)
    paths: list[np.ndarray] = []
    seen: set = set()
    for _ in range(max_paths):
        graph.data[:] = base * np.maximum(factor[rows], factor[cols])
        graph.data[status == _INVALID] = np.inf
        while True:
            dist, pred = dijkstra(graph, directed=True, indices=0,
                                  return_predecessors=True)
            if not np.isfinite(dist[1]):
                return paths
            path = [1]
            while path[-1] != 0:
                path.append(int(pred[path[-1]]))
            path.reverse()
            blocked = False
            for a, b in zip(path[:-1], path[1:]):
                arcs = [arc(a, b), arc(b, a)]
                if status[arcs[0]] == _UNCHECKED:
                    # one check per edge, from its lower-index node
                    visible = is_visible(inflated, nodes[min(a, b)], nodes[max(a, b)])
                    status[arcs] = _VALID if visible else _INVALID
                if status[arcs[0]] == _INVALID:
                    graph.data[arcs] = np.inf
                    blocked = True
            if not blocked:
                break
        key = tuple(path)
        if key not in seen:
            seen.add(key)
            paths.append(nodes[np.array(path)].copy())
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
