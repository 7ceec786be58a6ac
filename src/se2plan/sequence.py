"""Dense SE(2) motion sequence generation: per-point safe-yaw kernel search,
recursive segment repair, high/low-risk labeling, and extraction of the
SE(2) / R^2 sub-problems handed to the back-end optimizers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gridmap import OccupancyGrid
from .shape import RobotKernel, RobotShape, kernel_collides
from .topo import Se2Path, discretize_polyline, push_away

LOW_RISK = "LowRisk"
HIGH_RISK = "HighRisk"

# orientation indices searched on each side of the preferred one (capped at
# half the kernel's orientation bank)
_SEARCH_RANGE = 4


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
    source_path_id: int = 0

    @property
    def positions(self) -> np.ndarray:
        return np.array([s.position for s in self.states])

    @property
    def risks(self) -> list[str]:
        return [s.risk for s in self.states]


@dataclass(frozen=True)
class SubProblem:
    kind: str  # "SE2" | "R2"
    states: tuple  # contiguous MotionState slice
    start_index: int  # index of states[0] in the source sequence


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
    new_pos, _, safe, _ = push_away(shape, pts[bad], yaw0, grid)
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


def generate_sequence(path: Se2Path, shape: RobotShape, kernel: RobotKernel,
                      grid: OccupancyGrid, source_path_id: int = 0) -> MotionSequence:
    """Convert a topological SE(2) path to a dense risk-labeled sequence.

    Each inter-waypoint segment is discretized at grid resolution; every point
    gets a safe orientation near the path tangent when one exists (low risk).
    When none exists the segment is repaired locally, once per segment; if
    repair fails the point is kept and marked high risk for SE(2)
    optimization.
    """
    states: list[MotionState] = []

    def emplace(buffer, pos, k, risk):
        if buffer and np.linalg.norm(buffer[-1].position - pos) < 1e-12:
            return
        if not buffer and states and np.linalg.norm(states[-1].position - pos) < 1e-12:
            return
        buffer.append(MotionState(np.asarray(pos, dtype=float), kernel.yaw_of(int(k)), risk))

    waypoints = path.waypoints
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        buffer: list[MotionState] = []
        repair_failed = False  # seg_adjust depends only on the segment
        pts = discretize_polyline(np.array([a.position, b.position]), grid.resolution)
        for i, p in enumerate(pts):
            if i == 0 and states:
                continue  # junction point already emplaced by previous segment
            k0 = _tangent_index(kernel, pts, i)
            free = safe_yaw(p, k0, kernel, grid)
            if free:
                emplace(buffer, p, free[0], LOW_RISK)
                continue
            if not repair_failed:
                adjusted = seg_adjust(a.position, b.position, shape, kernel, grid)
                if adjusted is not None:
                    buffer = []
                    adj_pts = discretize_polyline(adjusted, grid.resolution)
                    for j, q in enumerate(adj_pts):
                        if j == 0 and states:
                            continue
                        kj = _tangent_index(kernel, adj_pts, j)
                        free_j = safe_yaw(q, kj, kernel, grid)
                        emplace(buffer, q, free_j[0] if free_j else kj,
                                LOW_RISK if free_j else HIGH_RISK)
                    break  # adjusted polyline replaces the rest of this segment
                repair_failed = True
            emplace(buffer, p, k0, HIGH_RISK)
        states.extend(buffer)
    if not states or np.linalg.norm(states[0].position - waypoints[0].position) > 1e-9:
        yaw0 = kernel.yaw_of(kernel.index_of(waypoints[0].yaw))
        states.insert(0, MotionState(waypoints[0].position, yaw0, LOW_RISK))
    if np.linalg.norm(states[-1].position - waypoints[-1].position) > 1e-9:
        yaw1 = kernel.yaw_of(kernel.index_of(waypoints[-1].yaw))
        states.append(MotionState(waypoints[-1].position, yaw1, LOW_RISK))
    return MotionSequence(tuple(states), source_path_id)


def extract_subproblems(seq: MotionSequence, pad: int = 5,
                        good_junction=None) -> list[SubProblem]:
    """Partition the sequence into SE2 slices (high-risk runs dilated by `pad`
    low-risk context states on each side) and R2 slices for the gaps.
    Adjacent slices share exactly their junction state.

    `good_junction(state) -> bool`, when given, vetoes slice boundaries: the
    dilation keeps extending past states that fail it (kernel checks are
    optimistic by up to half a cell, and a junction pose frozen inside a wall
    makes its SE(2) slice unsolvable)."""
    if not seq.states:
        raise ValueError("sequence is empty")
    n = len(seq.states)
    risky = np.array([s.risk == HIGH_RISK for s in seq.states])
    if not np.any(risky):
        return [SubProblem("R2", tuple(seq.states), 0)]

    def extend(idx, step):
        while 0 < idx < n - 1 and (risky[idx] or
                                   (good_junction is not None
                                    and not good_junction(seq.states[idx]))):
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
            intervals.append([extend(max(i - pad, 0), -1),
                              extend(min(j + pad, n - 1), +1)])
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
            subs.append(SubProblem("R2", tuple(seq.states[cursor : lo + 1]), cursor))
        subs.append(SubProblem("SE2", tuple(seq.states[lo : hi + 1]), lo))
        cursor = hi
    if cursor < n - 1:
        subs.append(SubProblem("R2", tuple(seq.states[cursor:]), cursor))
    return subs
