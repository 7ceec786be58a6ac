"""Piecewise-quintic minimum-jerk trajectory representation.

A trajectory is M quintic pieces with durations T_i and coefficient matrices
c_i (6 x m); the spline interpolating given waypoints with C4 junctions is
the unique minimizer of the integrated squared jerk among all interpolants,
so construction reduces to one linear solve (a dense LU factorisation).
Every cost term is a time integral over the pieces; time_integral evaluates it
by one quadrature across all pieces and maps the sample gradients to the
coefficients and durations.  Gradients with respect to coefficients and
durations are pulled back to (waypoint, duration) space through the adjoint of
the solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

DEGREE = 5  # quintic: N = 2s - 1 with jerk control effort (s = 3)
NCOEF = DEGREE + 1

# falling-factorial table: _DERIV_FACT[r][j] = j!/(j-r)! for t^j derivative r
_DERIV_FACT = np.zeros((NCOEF, NCOEF))
for _r in range(NCOEF):
    for _j in range(_r, NCOEF):
        _DERIV_FACT[_r, _j] = np.prod(np.arange(_j - _r + 1, _j + 1)) if _r else 1.0


def basis(t: float, order: int) -> np.ndarray:
    """Derivative of the natural basis [1, t, ..., t^5] of the given order."""
    out = np.zeros(NCOEF)
    if order > DEGREE:
        return out
    for j in range(order, NCOEF):
        out[j] = _DERIV_FACT[order, j] * t ** (j - order)
    return out


def basis_many(ts, order: int) -> np.ndarray:
    """Vectorized basis rows: ts.shape + (6,), with basis(t, order) per time."""
    ts = np.asarray(ts, dtype=float)
    out = np.zeros(ts.shape + (NCOEF,))
    if order > DEGREE:
        return out
    for j in range(order, NCOEF):
        out[..., j] = _DERIV_FACT[order, j] * ts ** (j - order)
    return out


def _unit_gauss(n: int):
    """n-node Gauss-Legendre rule on [0, 1]: (nodes, weights)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1) / 2, w / 2


GAUSS_16 = _unit_gauss(16)  # exact for polynomials up to degree 31
_GAUSS_64 = _unit_gauss(64)


@dataclass(frozen=True)
class Trajectory:
    """Piecewise polynomial p(t) with M pieces of local quintics.

    coeffs has shape (M, 6, m): coeffs[i, j, d] multiplies (t - start_i)^j in
    dimension d.  durations has shape (M,).
    """

    durations: np.ndarray  # (M,)
    coeffs: np.ndarray  # (M, 6, m)

    def __post_init__(self):
        dur = np.asarray(self.durations, dtype=float)
        co = np.asarray(self.coeffs, dtype=float)
        if np.any(dur <= 0):
            raise ValueError("piece durations must be positive")
        if co.ndim != 3 or co.shape[0] != dur.shape[0] or co.shape[1] != NCOEF:
            raise ValueError(f"coefficients must have shape (M, {NCOEF}, m)")
        dur.flags.writeable = False
        co.flags.writeable = False
        object.__setattr__(self, "durations", dur)
        object.__setattr__(self, "coeffs", co)

    @property
    def n_pieces(self) -> int:
        return self.durations.shape[0]

    @property
    def dim(self) -> int:
        return self.coeffs.shape[2]

    @property
    def total_duration(self) -> float:
        return float(np.sum(self.durations))

    @property
    def start_times(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.durations)[:-1]])

    def piece_index(self, t: float) -> int:
        edges = np.cumsum(self.durations)
        i = int(np.searchsorted(edges, t, side="right"))
        return min(i, self.n_pieces - 1)

    def eval(self, t: float, order: int = 0) -> np.ndarray:
        """Evaluate the trajectory (or a time derivative) at global time t."""
        total = self.total_duration
        if t < -1e-12 or t > total + 1e-12:
            raise ValueError(f"t={t} outside [0, {total}]")
        t = min(max(t, 0.0), total)
        i = self.piece_index(t)
        local = t - self.start_times[i]
        return basis(local, order) @ self.coeffs[i]

    def eval_many(self, ts: np.ndarray, order: int = 0) -> np.ndarray:
        """Vectorized evaluation at sorted or unsorted times, shape (len(ts), m)."""
        ts = np.asarray(ts, dtype=float)
        total = self.total_duration
        tc = np.clip(ts, 0.0, total)
        edges = np.cumsum(self.durations)
        idx = np.minimum(np.searchsorted(edges, tc, side="right"), self.n_pieces - 1)
        local = tc - self.start_times[idx]
        return np.einsum("nj,njd->nd", basis_many(local, order), self.coeffs[idx])

    def arc_length(self) -> float:
        """Translational (x, y) path length by 64-node Gauss quadrature per piece."""
        def speed(vel):  # only the value is used, so the gradient is left zero
            return np.linalg.norm(vel[..., :2], axis=-1), np.zeros_like(vel)
        return time_integral(self, speed, 1, *_GAUSS_64)[0]

    def to_text(self) -> str:
        """Lossless text serialization (17 significant digits)."""
        lines = [f"pieces: {self.n_pieces}", f"dim: {self.dim}"]
        for i in range(self.n_pieces):
            lines.append(f"T: {self.durations[i]:.17g}")
            for j in range(NCOEF):
                row = " ".join(f"{c:.17g}" for c in self.coeffs[i, j])
                lines.append(f"c: {row}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Trajectory":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        m_pieces = int(lines[0].split(":")[1])
        dim = int(lines[1].split(":")[1])
        durations = []
        coeffs = []
        pos = 2
        for _ in range(m_pieces):
            durations.append(float(lines[pos].split(":")[1]))
            pos += 1
            rows = []
            for _ in range(NCOEF):
                rows.append([float(x) for x in lines[pos].split(":")[1].split()])
                pos += 1
            coeffs.append(rows)
        traj = Trajectory(np.array(durations), np.array(coeffs))
        if traj.dim != dim:
            raise ValueError("dimension mismatch in trajectory document")
        return traj


def time_integral(traj: Trajectory, integrand, order: int, nodes, weights):
    """Quadrature of a time integral over all pieces at once, with its partials.

    J = sum_i T_i sum_q w_q g(x_iq), where x_iq is the time derivative of the
    given order at local time s_q T_i, for nodes s_q in [0, 1] with weights
    w_q.  integrand(x) maps x of shape (M, Q, m) to g (M, Q) and dg/dx
    (M, Q, m).  Returns (J, dJ/dc (M, 6, m), dJ/dT (M,)), the duration partial
    taken with the coefficients held fixed.
    """
    taus = traj.durations[:, None] * nodes  # (M, Q)
    rows = basis_many(taus, order)  # (M, Q, 6)
    x = np.einsum("mqj,mjd->mqd", rows, traj.coeffs)
    x_dot = np.einsum("mqj,mjd->mqd", basis_many(taus, order + 1), traj.coeffs)
    g, dg = integrand(x)
    tw = traj.durations[:, None] * weights  # T_i w_q
    value = float(np.sum(tw * g))
    grad_c = np.einsum("mqj,mqd->mjd", rows, tw[:, :, None] * dg)
    # d/dT_i [T_i w_q g(x(s_q T_i))] = w_q g + T_i w_q s_q dg/dx . x'
    grad_t = g @ weights + np.einsum("mqd,mqd->m", (tw * nodes)[:, :, None] * dg, x_dot)
    return value, grad_c, grad_t


def control_effort(traj: Trajectory) -> float:
    """Integrated squared jerk over the whole trajectory, all dimensions."""
    return control_effort_gradients(traj)[0]


def control_effort_gradients(traj: Trajectory):
    """(value, dJ/dc (M,6,m), dJ/dT (M,)) for the squared-jerk integral; the
    16-node Gauss rule is exact for its quartic integrand."""
    return time_integral(traj, lambda jerk: (np.sum(jerk * jerk, axis=-1), 2 * jerk),
                         3, *GAUSS_16)


class MincoSpline:
    """Minimum-jerk spline parameterized by interior waypoints and durations.

    Boundary position/velocity/acceleration are fixed at construction;
    set_params() LU-factorises the dense interpolation system and solves it
    for the coefficients,
    and gradients() back-propagates coefficient/duration cost gradients to the
    (waypoint, duration) parameters through the adjoint of that solve.
    """

    def __init__(self, start_state: np.ndarray, end_state: np.ndarray, n_pieces: int):
        start_state = np.asarray(start_state, dtype=float)
        end_state = np.asarray(end_state, dtype=float)
        if start_state.shape != end_state.shape or start_state.ndim != 2 or start_state.shape[0] != 3:
            raise ValueError("boundary states must both be (3, m): position, velocity, acceleration")
        if n_pieces < 1:
            raise ValueError("need at least one piece")
        self.start_state = start_state
        self.end_state = end_state
        self.n_pieces = n_pieces
        self.dim = start_state.shape[1]
        self._traj = None
        self._lu = None
        self._waypoints = None

    @property
    def trajectory(self) -> Trajectory:
        if self._traj is None:
            raise RuntimeError("set_params() has not been called")
        return self._traj

    def set_params(self, waypoints: np.ndarray, durations: np.ndarray) -> Trajectory:
        m = self.n_pieces
        waypoints = np.asarray(waypoints, dtype=float).reshape(m - 1, self.dim) if m > 1 else np.zeros((0, self.dim))
        durations = np.asarray(durations, dtype=float)
        if durations.shape != (m,):
            raise ValueError(f"expected {m} durations")
        if np.any(durations <= 0):
            raise ValueError("durations must be positive")
        n = NCOEF * m
        mat = np.zeros((n, n))
        rhs = np.zeros((n, self.dim))
        # start boundary: p, v, a of piece 0 at local 0
        for r in range(3):
            mat[r, 0:NCOEF] = basis(0.0, r)
            rhs[r] = self.start_state[r]
        row = 3
        for j in range(1, m):
            tj = durations[j - 1]
            colL = NCOEF * (j - 1)
            colR = NCOEF * j
            # left piece hits the waypoint
            mat[row, colL : colL + NCOEF] = basis(tj, 0)
            rhs[row] = waypoints[j - 1]
            row += 1
            # right piece starts at the waypoint
            mat[row, colR : colR + NCOEF] = basis(0.0, 0)
            rhs[row] = waypoints[j - 1]
            row += 1
            # C1..C4 continuity
            for r in range(1, 5):
                mat[row, colL : colL + NCOEF] = basis(tj, r)
                mat[row, colR : colR + NCOEF] = -basis(0.0, r)
                row += 1
        tm = durations[m - 1]
        colL = NCOEF * (m - 1)
        for r in range(3):
            mat[row, colL : colL + NCOEF] = basis(tm, r)
            rhs[row] = self.end_state[r]
            row += 1
        self._lu = lu_factor(mat)
        coef = lu_solve(self._lu, rhs)
        self._waypoints = waypoints
        self._traj = Trajectory(durations.copy(), coef.reshape(m, NCOEF, self.dim))
        return self._traj

    def gradients(self, grad_c: np.ndarray, grad_t: np.ndarray):
        """Pull back (dJ/dc, dJ/dT_partial) to (dJ/dwaypoints, dJ/dT).

        grad_c has shape (M, 6, m); grad_t is the direct duration gradient of
        the cost (M,).  Returns (grad_waypoints (M-1, m), grad_durations (M,)).
        """
        if self._traj is None:
            raise RuntimeError("set_params() has not been called")
        m = self.n_pieces
        grad_c = np.asarray(grad_c, dtype=float).reshape(NCOEF * m, self.dim)
        lam = lu_solve(self._lu, grad_c, trans=1)  # solve mat^T lam = grad_c
        grad_q = np.zeros((max(m - 1, 0), self.dim))
        grad_dur = np.asarray(grad_t, dtype=float).copy()
        coef = self._traj.coeffs.reshape(NCOEF * m, self.dim)
        durations = self._traj.durations
        for j in range(1, m):
            base = 3 + 6 * (j - 1)
            # rhs rows carrying waypoint j-1: left-hit and right-start rows
            grad_q[j - 1] = lam[base] + lam[base + 1]
            # rows of junction j depend on T_{j-1} through basis(T_{j-1}, r);
            # d basis(t, r)/dt = basis(t, r + 1)
            tj = durations[j - 1]
            colL = NCOEF * (j - 1)
            cL = coef[colL : colL + NCOEF]
            total = np.sum((basis(tj, 1) @ cL) * lam[base])
            for r in range(1, 5):
                total += np.sum((basis(tj, r + 1) @ cL) * lam[base + 1 + r])
            grad_dur[j - 1] = grad_t[j - 1] - float(total)
        # final boundary rows depend on T_M
        tm = durations[m - 1]
        colL = NCOEF * (m - 1)
        cL = coef[colL : colL + NCOEF]
        base = 3 + 6 * (m - 1)
        total = 0.0
        for r in range(3):
            total += np.sum((basis(tm, r + 1) @ cL) * lam[base + r])
        grad_dur[m - 1] = grad_t[m - 1] - float(total)
        return grad_q, grad_dur


def construct(start_state, end_state, waypoints, durations) -> tuple[MincoSpline, Trajectory]:
    """Convenience wrapper: build the spline and solve it in one call."""
    durations = np.asarray(durations, dtype=float)
    spline = MincoSpline(np.asarray(start_state, dtype=float), np.asarray(end_state, dtype=float), len(durations))
    traj = spline.set_params(waypoints, durations)
    return spline, traj
