"""Dense SE(2) motion sequence generation from the shortcut's waypoint
positions: per-point safe-yaw kernel search (which picks every heading),
recursive segment repair, high/low-risk labeling, and extraction of the
SE(2) / R^2 sub-problems handed to the back-end optimizers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gridmap import OccupancyGrid
from .shape import RobotKernel, RobotShape, kernel_collides
from .topo import discretize_polyline, push_away

LOW_RISK = "LowRisk"
HIGH_RISK = "HighRisk"

# orientation indices searched on each side of the preferred one (capped at
# half the kernel's orientation bank)
_SEARCH_RANGE = 4
# low-risk context states added on each side of a high-risk run
_PAD = 5


@dataclass(frozen=True)
class MotionState:
    position: np.ndarray  # (2,)
    yaw: float  # a kernel orientation's yaw (the preferred one for HighRisk)
    risk: str  # LOW_RISK | HIGH_RISK

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))


@dataclass(frozen=True)
class MotionSequence:
    states: tuple  # of MotionState

    @property
    def risks(self) -> list[str]:
        return [s.risk for s in self.states]


@dataclass(frozen=True)
class SubProblem:
    kind: str  # "SE2" | "R2"
    states: tuple  # contiguous MotionState slice


def safe_yaw(p, preferred_k: int, kernel: RobotKernel, grid: OccupancyGrid) -> list[int]:
    """Collision-free orientation indices near preferred_k, in test order
    (preferred first, then alternating +-1, +-2, ... up to _SEARCH_RANGE or
    half the orientation bank, whichever is smaller)."""
    n = kernel.n_orientations
    order = [preferred_k % n]
    for d in range(1, min(_SEARCH_RANGE, n // 2) + 1):
        order.append((preferred_k + d) % n)
        order.append((preferred_k - d) % n)
    free = []
    seen = set()
    for k in order:
        if k in seen:
            continue
        seen.add(k)
        if not kernel_collides(kernel, grid, p, k):
            free.append(k)
    return free


def _heading_index(kernel: RobotKernel, a, b) -> int:
    d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    if np.linalg.norm(d) < 1e-12:
        return 0
    return kernel.index_of(float(np.arctan2(d[1], d[0])))


def _tangent_index(kernel: RobotKernel, pts: np.ndarray, i: int) -> int:
    lo = max(i - 1, 0)
    hi = min(i + 1, len(pts) - 1)
    return _heading_index(kernel, pts[lo], pts[hi])


def seg_adjust(seg_start, seg_end, shape: RobotShape, kernel: RobotKernel,
               grid: OccupancyGrid, max_depth: int = 4):
    """Recursive segment repair.

    At the first discretized point with no safe orientation, push the point
    away from occupancy and recurse on the two child segments.  Returns the
    adjusted polyline (including both endpoints) on success, None on failure;
    failure discards all intermediate work.
    """
    seg_start = np.asarray(seg_start, dtype=float)
    seg_end = np.asarray(seg_end, dtype=float)
    pts = discretize_polyline(np.array([seg_start, seg_end]), grid.resolution)
    bad = None
    for i, p in enumerate(pts):
        k0 = _tangent_index(kernel, pts, i)
        if not safe_yaw(p, k0, kernel, grid):
            bad = i
            break
    if bad is None:
        return np.array([seg_start, seg_end])
    if max_depth <= 0:
        return None
    k0 = _tangent_index(kernel, pts, bad)
    yaw0 = kernel.yaw_of(k0)
    new_pos, _, safe = push_away(shape, pts[bad], yaw0, grid)
    if not safe:
        return None
    if (np.linalg.norm(new_pos - seg_start) < 1e-9
            or np.linalg.norm(new_pos - seg_end) < 1e-9):
        return None
    left = seg_adjust(seg_start, new_pos, shape, kernel, grid, max_depth - 1)
    if left is None:
        return None
    right = seg_adjust(new_pos, seg_end, shape, kernel, grid, max_depth - 1)
    if right is None:
        return None
    return np.vstack([left, right[1:]])


def generate_sequence(path: np.ndarray, shape: RobotShape, kernel: RobotKernel,
                      grid: OccupancyGrid) -> MotionSequence:
    """Convert a waypoint polyline ((K, 2) positions) to a dense risk-labeled
    sequence; the kernel picks every heading.

    Each inter-waypoint segment is discretized at grid resolution; every point
    gets the first safe orientation near the path tangent when one exists (low
    risk), else the tangent orientation (high risk, for SE(2) optimization).
    A segment with a high-risk point is repaired once; a repaired polyline's
    labels replace the segment's.
    """

    def label(polyline, first):
        pts = discretize_polyline(polyline, grid.resolution)
        out = []
        for i in range(first, len(pts)):
            k0 = _tangent_index(kernel, pts, i)
            free = safe_yaw(pts[i], k0, kernel, grid)
            out.append(MotionState(pts[i], kernel.yaw_of(free[0] if free else k0),
                                   LOW_RISK if free else HIGH_RISK))
        return out

    path = np.asarray(path, dtype=float)
    states: list[MotionState] = []
    for a, b in zip(path[:-1], path[1:]):
        first = 1 if states else 0  # the junction point comes from the previous segment
        seg = label(np.array([a, b]), first)
        if any(s.risk == HIGH_RISK for s in seg):
            adjusted = seg_adjust(a, b, shape, kernel, grid)
            if adjusted is not None:
                seg = label(adjusted, first)
        states.extend(seg)
    return MotionSequence(tuple(states))


def extract_subproblems(seq: MotionSequence, shape: RobotShape, grid: OccupancyGrid,
                        d_safe: float) -> list[SubProblem]:
    """Partition the sequence into SE2 slices (high-risk runs dilated by _PAD
    low-risk context states on each side) and R2 slices for the gaps.
    Adjacent slices share exactly their junction state.

    A slice boundary must clear every occupied cell centre by d_safe (exact
    body SDF at the state's pose): the dilation keeps extending past states
    that do not (kernel checks are optimistic by up to half a cell, and a
    junction pose frozen inside a wall makes its SE(2) slice unsolvable)."""
    if not seq.states:
        raise ValueError("sequence is empty")
    n = len(seq.states)
    risky = np.array([s.risk == HIGH_RISK for s in seq.states])
    if not np.any(risky):
        return [SubProblem("R2", tuple(seq.states))]
    occupied = grid.occupied_centers()
    reach2 = (shape.circumradius + d_safe) ** 2

    def good_junction(state):
        d = occupied - state.position
        near = occupied[np.einsum("ij,ij->i", d, d) < reach2]
        if near.shape[0] == 0:
            return True
        values, _ = shape.sdf_at_pose(near, state.position, state.yaw)
        return float(np.min(values)) >= d_safe

    def extend(idx, step):
        while 0 < idx < n - 1 and (risky[idx] or not good_junction(seq.states[idx])):
            idx += step
        return idx

    # dilate high-risk runs by pad, then merge overlapping intervals
    intervals = []
    i = 0
    while i < n:
        if risky[i]:
            j = i
            while j + 1 < n and risky[j + 1]:
                j += 1
            intervals.append([extend(max(i - _PAD, 0), -1),
                              extend(min(j + _PAD, n - 1), +1)])
            i = j + 1
        else:
            i += 1
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        if lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    subs: list[SubProblem] = []
    cursor = 0
    for lo, hi in merged:
        if lo > cursor:
            subs.append(SubProblem("R2", tuple(seq.states[cursor : lo + 1])))
        subs.append(SubProblem("SE2", tuple(seq.states[lo : hi + 1])))
        cursor = hi
    if cursor < n - 1:
        subs.append(SubProblem("R2", tuple(seq.states[cursor:])))
    return subs
