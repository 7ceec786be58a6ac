"""The benchmark's own workload generators.

Each workload is a corpus of queries: map, robot polygon, start and goal
poses and planner settings, including the roadmap seed.  A corpus number (0
unless a held-out corpus is asked for) generates the corpus; the workload seed
sets the order in which each pass issues its queries.  Every seed therefore
plans the same work, so run-to-run spread measures the program and the
machine, not the luck of the draw: with seed-drawn roadmaps, one baffle plan
took anywhere from 14 to 30 s.  The generators use numpy only and do not
import the planner, so an edit to the planner or to its test fixtures cannot
change what the benchmark asks it to do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RESOLUTION = 0.1


@dataclass(frozen=True)
class Query:
    name: str
    cells: np.ndarray  # bool (height, width), cells[iy, ix]; origin at (0, 0)
    vertices: np.ndarray  # (V, 2) robot polygon, reference point at the origin
    start: np.ndarray  # (3,) x, y, yaw
    goal: np.ndarray
    config: dict  # PlanConfig keyword arguments, including the roadmap seed


@dataclass(frozen=True)
class Workload:
    name: str
    queries: tuple  # one pass plans each of them once
    pass_s: float  # one untraced pass on a 2-core 2.0 GHz x86 VM; sets the pass count


def rectangle(length: float, width: float) -> np.ndarray:
    hl, hw = length / 2, width / 2
    return np.array([[-hl, -hw], [hl, -hw], [hl, hw], [-hl, hw]])


def regular_polygon(n: int, radius: float) -> np.ndarray:
    ang = 2 * np.pi * np.arange(n) / n
    return radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def inside_polygon(vertices: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Strict point-in-polygon by the crossing rule, for (N, 2) points."""
    a = vertices
    b = np.roll(vertices, -1, axis=0)
    x, y = pts[:, 0:1], pts[:, 1:2]
    straddle = (a[None, :, 1] > y) != (b[None, :, 1] > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = a[None, :, 0] + (y - a[None, :, 1]) * (b[None, :, 0] - a[None, :, 0]) \
            / (b[None, :, 1] - a[None, :, 1])
    return np.sum(straddle & (x < x_cross), axis=1) % 2 == 1


def footprint_free(cells: np.ndarray, vertices: np.ndarray, p, yaw: float,
                   n_orientations: int) -> bool:
    """The planner's rasterised-footprint rule: the yaw snaps to the nearest
    of n_orientations; the footprint is every cell offset whose centre lies
    inside the rotated polygon, anchored at the cell that contains p.  Any
    occupied or out-of-map footprint cell makes the pose collide."""
    step = 2 * np.pi / n_orientations
    ang = (int(np.round(yaw / step)) % n_orientations) * step
    c, s = np.cos(ang), np.sin(ang)
    verts = vertices @ np.array([[c, -s], [s, c]]).T
    lo = np.floor(verts.min(axis=0) / RESOLUTION).astype(int) - 1
    hi = np.ceil(verts.max(axis=0) / RESOLUTION).astype(int) + 1
    dx, dy = np.meshgrid(np.arange(lo[0], hi[0] + 1), np.arange(lo[1], hi[1] + 1))
    offsets = np.stack([dx.ravel(), dy.ravel()], axis=1)
    offsets = offsets[inside_polygon(verts, offsets * RESOLUTION)]
    if offsets.shape[0] == 0:
        offsets = np.zeros((1, 2), dtype=int)
    foot = offsets + np.floor(np.asarray(p) / RESOLUTION).astype(int)
    h, w = cells.shape
    if np.any((foot < 0) | (foot >= [w, h])):
        return False
    return not bool(np.any(cells[foot[:, 1], foot[:, 0]]))


def random_boxes(rng, n: int, n_boxes: int, min_side: int, max_side: int) -> np.ndarray:
    cells = np.zeros((n, n), dtype=bool)
    for _ in range(n_boxes):
        w = int(rng.integers(min_side, max_side + 1))
        h = int(rng.integers(min_side, max_side + 1))
        ix = int(rng.integers(0, n - w))
        iy = int(rng.integers(0, n - h))
        cells[iy : iy + h, ix : ix + w] = True
    return cells


def free_pose(rng, cells, vertices, lo, hi, n_orientations, tries=100):
    for _ in range(tries):
        p = rng.uniform(lo, hi, 2)
        yaw = float(rng.uniform(-np.pi, np.pi))
        if footprint_free(cells, vertices, p, yaw, n_orientations):
            return np.array([p[0], p[1], yaw])
    return None


def baffle_cells(n=40, wall_top=2.9, ax=1.95, slot_a=(1.1, 1.4), bx=2.45,
                 slot_b=(1.65, 2.05)) -> np.ndarray:
    """Two staggered one-cell walls whose slots are offset diagonally, so the
    short route needs a whole-body SE(2) manoeuvre; the space above wall_top
    stays open as a long detour."""
    centres = (np.arange(n) + 0.5) * RESOLUTION
    gx, gy = np.meshgrid(centres, centres)
    wall_a = (np.abs(gx - ax) < 0.05 + 1e-9) & (gy < wall_top) \
        & ~((gy > slot_a[0]) & (gy < slot_a[1]))
    wall_b = (np.abs(gx - bx) < 0.05 + 1e-9) & (gy < wall_top) \
        & ~((gy > slot_b[0]) & (gy < slot_b[1]))
    return wall_a | wall_b


def baffle(corpus: int = 0) -> Workload:
    """The double-baffle slit scene: SE(2) optimisation dominates and most
    winners pass through certify-and-repair.  Corpus c plans it with roadmap
    seed c; seed 0 is the first seed of the slit acceptance test."""
    query = Query(f"baffle-{corpus}", baffle_cells(), rectangle(1.0, 0.2),
                  np.array([0.7, 1.25, 0.0]), np.array([3.4, 1.85, 0.0]),
                  dict(roadmap_budget=600, connection_radius=0.7, max_candidates=2,
                       seed=corpus))
    return Workload("baffle", (query,), pass_s=19.0)


FUZZ_MAPS = 48


def fuzz(corpus: int = 0) -> Workload:
    """Small random box maps with uniformly drawn start and goal poses and a
    small planner budget: many short plans led by the R^2 solve and MINCO.
    Corpus 0 is the first FUZZ_MAPS queries of the certification fuzz test
    (stream seeded 808, roadmap seed = map index)."""
    rng = np.random.default_rng(808 + corpus)
    vertices = rectangle(0.3, 0.16)
    queries = []
    i = 0
    while len(queries) < FUZZ_MAPS:
        cells = random_boxes(rng, n=20, n_boxes=4, min_side=1, max_side=3)
        start = free_pose(rng, cells, vertices, 0.3, 1.7, 12)
        goal = free_pose(rng, cells, vertices, 0.3, 1.7, 12)
        if start is not None and goal is not None:
            queries.append(Query(f"fuzz-{i}", cells, vertices, start, goal,
                                 dict(roadmap_budget=80, max_paths=6, max_candidates=2,
                                      n_orientations=12, se2_budget=60, r2_budget=40, seed=i)))
        i += 1
    return Workload("fuzz", tuple(queries), pass_s=33.0)


FIELD_MAPS = 6
FIELD_LANE = 0.5  # m, half-width of the box-free lane between start and goal


def segment_distance(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ab = b - a
    t = np.clip((pts - a) @ ab / (ab @ ab), 0.0, 1.0)
    return np.linalg.norm(pts - (a + t[:, None] * ab), axis=1)


def field(corpus: int = 0) -> Workload:
    """6 m square maps strewn with 25 small boxes, crossed corner to corner
    by a near-round robot along a lane the boxes keep clear of.  The roadmap
    front end dominates; the straight route needs no SE(2) window and its
    R^2 trajectory no repair, so SE(2) optimisation stays idle."""
    rng = np.random.default_rng(6060 + corpus)
    vertices = regular_polygon(12, 0.12)
    queries = []
    n = 60
    while len(queries) < FIELD_MAPS:
        start = np.array([*rng.uniform(0.2, 1.2, 2), rng.uniform(-np.pi, np.pi)])
        goal = np.array([*rng.uniform(4.8, 5.8, 2), rng.uniform(-np.pi, np.pi)])
        cells = np.zeros((n, n), dtype=bool)
        placed = 0
        while placed < 25:
            box = random_boxes(rng, n, 1, 1, 4)
            centres = (np.argwhere(box)[:, ::-1] + 0.5) * RESOLUTION
            if np.all(segment_distance(centres, start[:2], goal[:2]) > FIELD_LANE):
                cells |= box
                placed += 1
        queries.append(Query(f"field-{len(queries)}", cells, vertices, start, goal,
                             dict(roadmap_budget=800, connection_radius=1.0, max_candidates=1,
                                  seed=len(queries))))
    return Workload("field", tuple(queries), pass_s=28.0)


WORKLOADS = {"baffle": baffle, "fuzz": fuzz, "field": field}


def order(seed: int, pass_index: int, n: int) -> list[int]:
    """The order in which one pass issues the corpus's n queries."""
    return [int(i) for i in np.random.default_rng([seed, pass_index]).permutation(n)]


def warmup_query() -> Query:
    """A small fixed query that runs every planner stage once before timing,
    including an SE(2) certify-and-repair re-solve."""
    cells = np.zeros((20, 20), dtype=bool)
    cells[8:12, 9:11] = True
    return Query("warmup", cells, rectangle(0.3, 0.16), np.array([0.4, 0.5, 0.0]),
                 np.array([1.6, 1.5, 0.0]),
                 dict(roadmap_budget=40, max_paths=3, max_candidates=1, n_orientations=12,
                      se2_budget=20, r2_budget=20, seed=0))
