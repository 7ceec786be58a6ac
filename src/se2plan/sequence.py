"""Dense SE(2) motion sequence generation from the shortcut's waypoint
positions: per-point safe-yaw kernel search (which picks every heading),
high/low-risk labeling, one continuous yaw column, and extraction of the
SE(2) / R^2 sub-problems handed to the back-end optimizers.  Nothing in the
front end moves a point for the body's sake: the kernel labels where the
body does not fit, and the SE(2) windows solve those high-risk points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gridmap import OccupancyGrid, extract_obstacles
from .shape import RobotKernel, RobotShape, kernel_collides
from .topo import discretize_polyline

LOW_RISK = "LowRisk"
HIGH_RISK = "HighRisk"

# orientation indices searched on each side of the preferred one (capped at
# half the kernel's orientation bank)
_SEARCH_RANGE = 4
# low-risk context states added on each side of a high-risk run
_PAD = 5


@dataclass(frozen=True, eq=False)
class MotionSequence:
    # (N, 3) rows of (x, y, yaw), read-only.  The yaw column is continuous:
    # low-risk rows hold their kernel yaws, unwrapped along the sequence, and
    # each high-risk row, whose kernel yaw is only a heading placeholder, the
    # index-linear interpolation of the low-risk yaws around it, constant
    # past the first and the last (with no low-risk row, the unwrapped
    # placeholders)
    states: np.ndarray
    risks: tuple  # LOW_RISK | HIGH_RISK per row


@dataclass(frozen=True, eq=False)
class SubProblem:
    kind: str  # "SE2" | "R2"
    # a view of contiguous rows of the sequence's states; adjacent
    # sub-problems share their junction row
    states: np.ndarray


def safe_yaw(p, preferred_k: int, kernel: RobotKernel, grid: OccupancyGrid) -> int | None:
    """The first collision-free orientation index near preferred_k, in test
    order (preferred first, then alternating +-1, +-2, ... up to _SEARCH_RANGE
    or half the orientation bank, whichever is smaller); None when all
    collide."""
    n = kernel.n_orientations
    order = [preferred_k % n]
    for d in range(1, min(_SEARCH_RANGE, n // 2) + 1):
        order.append((preferred_k + d) % n)
        order.append((preferred_k - d) % n)
    for k in dict.fromkeys(order):
        if not kernel_collides(kernel, grid, p, k):
            return k
    return None


def generate_sequence(path: np.ndarray, kernel: RobotKernel,
                      grid: OccupancyGrid) -> MotionSequence:
    """Convert a waypoint polyline ((K, 2) positions) to a dense risk-labeled
    sequence; the kernel picks every heading.

    Each inter-waypoint segment is discretized at grid resolution; every point
    gets the first safe orientation near the segment's heading when one exists
    (low risk), else the heading orientation (high risk, for SE(2)
    optimization).  The yaw column is then made continuous, as described on
    MotionSequence.  Positions are the polyline's own: nothing is repaired
    here.
    """
    path = np.asarray(path, dtype=float)
    rows, low = [], []
    for a, b in zip(path[:-1], path[1:]):
        pts = discretize_polyline(np.array([a, b]), grid.resolution)
        k0 = kernel.index_of(float(np.arctan2(b[1] - a[1], b[0] - a[0])))
        # the junction point comes from the previous segment
        for p in pts[1 if rows else 0:]:
            free = safe_yaw(p, k0, kernel, grid)
            rows.append((p[0], p[1], kernel.yaw_of(k0 if free is None else free)))
            low.append(free is not None)
    states = np.array(rows, dtype=float).reshape(-1, 3)
    low = np.array(low, dtype=bool)
    if low.any():
        idx = np.arange(len(states))
        states[:, 2] = np.interp(idx, idx[low], np.unwrap(states[low, 2]))
    else:
        states[:, 2] = np.unwrap(states[:, 2])
    # sub-problems are views of these rows: none may edit a shared junction
    states.setflags(write=False)
    return MotionSequence(states, tuple(LOW_RISK if ok else HIGH_RISK for ok in low))


def extract_subproblems(seq: MotionSequence, shape: RobotShape, grid: OccupancyGrid,
                        d_safe: float) -> list[SubProblem]:
    """Partition the sequence into SE2 slices (high-risk runs dilated by _PAD
    low-risk context states on each side) and R2 slices for the gaps.
    Adjacent slices share exactly their junction state.

    A slice boundary must clear every occupied cell centre by d_safe (exact
    body SDF at the state's pose): the dilation keeps extending past states
    that do not (kernel checks are optimistic by up to half a cell, and a
    junction pose frozen inside a wall makes its SE(2) slice unsolvable)."""
    n = len(seq.states)
    if n == 0:
        raise ValueError("sequence is empty")
    risky = np.array(seq.risks) == HIGH_RISK
    if not np.any(risky):
        return [SubProblem("R2", seq.states)]

    def good_junction(i):
        # a centre beyond circumradius + d_safe clears the body by d_safe
        near = extract_obstacles(grid, seq.states[i, :2], shape.circumradius + d_safe)
        if near.shape[0] == 0:
            return True
        values, _ = shape.sdf_at_pose(near, seq.states[i, :2], seq.states[i, 2])
        return float(np.min(values)) >= d_safe

    def extend(idx, step):
        while 0 < idx < n - 1 and (risky[idx] or not good_junction(idx)):
            idx += step
        return idx

    # dilate each high-risk run by pad; runs whose windows overlap or touch
    # share one SE2 slice
    window = np.zeros(n, dtype=bool)
    for first, last in _runs(risky):
        window[extend(max(first - _PAD, 0), -1):extend(min(last + _PAD, n - 1), +1) + 1] = True
    cuts = []  # (kind, first, last) state indices
    cursor = 0
    for lo, hi in _runs(window):
        if lo > cursor:
            cuts.append(("R2", cursor, lo))
        cuts.append(("SE2", lo, hi))
        cursor = hi
    if cursor < n - 1:
        cuts.append(("R2", cursor, n - 1))
    return [SubProblem(kind, seq.states[lo:hi + 1]) for kind, lo, hi in cuts]


def _runs(mask: np.ndarray):
    """(first, last) index pairs of the runs of True in a boolean array."""
    edges = np.flatnonzero(np.diff(np.concatenate([[False], mask, [False]])))
    return zip(edges[0::2], edges[1::2] - 1)
