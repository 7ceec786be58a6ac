"""Independent output check: the body's signed distance to every occupied
cell centre, sampled densely in time along the returned trajectory.

Nothing here calls the planner's geometry or sweep code.  The trajectory is
read as raw piecewise-polynomial coefficients and the polygon distance is
computed from the vertices, so a defect in the planner's certificate cannot
hide itself in the check.
"""

from __future__ import annotations

import numpy as np

from workloads import inside_polygon

MIN_SAMPLES = 2000
SAMPLE_DT = 0.005  # s between samples on long trajectories
PENETRATION_TOL = 1e-9  # m; deeper than this is a collision


def polygon_sdf(vertices: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Signed distance from (N, 2) body-frame points to the polygon boundary,
    negative inside (crossing rule)."""
    a = vertices
    b = np.roll(vertices, -1, axis=0)
    e = b - a
    rel = pts[:, None, :] - a[None, :, :]
    t = np.clip(np.sum(rel * e[None], axis=2) / np.sum(e * e, axis=1)[None], 0.0, 1.0)
    diff = rel - t[:, :, None] * e[None]
    dist = np.sqrt(np.min(np.sum(diff * diff, axis=2), axis=1))
    return np.where(inside_polygon(vertices, pts), -dist, dist)


def sample_poses(durations: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """(N, 3) poses on a uniform time grid over the whole trajectory.

    coeffs has shape (pieces, 6, 3): power-basis coefficients of x, y, yaw in
    the piece-local time."""
    durations = np.asarray(durations, dtype=float)
    total = float(np.sum(durations))
    n = max(MIN_SAMPLES, int(np.ceil(total / SAMPLE_DT)) + 1)
    ts = np.linspace(0.0, total, n)
    starts = np.concatenate([[0.0], np.cumsum(durations)[:-1]])
    piece = np.clip(np.searchsorted(starts, ts, side="right") - 1, 0, len(durations) - 1)
    tau = ts - starts[piece]
    powers = tau[:, None] ** np.arange(coeffs.shape[1])[None, :]
    return np.einsum("nk,nkd->nd", powers, coeffs[piece])


def min_clearance(vertices: np.ndarray, durations, coeffs, obstacles: np.ndarray) -> float:
    """Minimum over sampled times and obstacle points of the body SDF (m).

    The exact SDF is evaluated only on (time, point) pairs that can hold the
    minimum: for a point at distance d from the reference, the SDF lies in
    [d - R, d - r], with R the circumradius and r the inscribed radius."""
    if obstacles.shape[0] == 0:
        return float("inf")
    poses = sample_poses(durations, coeffs)
    d = obstacles[None, :, :] - poses[:, None, :2]
    dist = np.sqrt(np.sum(d * d, axis=2))
    circum = float(np.max(np.linalg.norm(vertices, axis=1)))
    inscribed = -float(polygon_sdf(vertices, np.zeros((1, 2)))[0])
    ti, pi = np.nonzero(dist <= dist.min() + circum - inscribed + 1e-9)
    yaw = poses[ti, 2]
    c, s = np.cos(yaw), np.sin(yaw)
    dx, dy = d[ti, pi, 0], d[ti, pi, 1]
    body = np.stack([c * dx + s * dy, -s * dx + c * dy], axis=1)
    return float(np.min(polygon_sdf(vertices, body)))


def endpoint_error(durations, coeffs, start, goal) -> float:
    """Largest distance (m) between the trajectory's end positions and the
    requested start and goal positions."""
    durations = np.asarray(durations, dtype=float)
    p0 = coeffs[0, 0, :2]
    tau = durations[-1] ** np.arange(coeffs.shape[1])
    p1 = tau @ coeffs[-1, :, :2]
    return float(max(np.linalg.norm(p0 - start[:2]), np.linalg.norm(p1 - goal[:2])))
