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

# falling-factorial table: _DERIV_FACT[r][j] = j!/(j-r)! for t^j derivative r;
# row NCOEF (every order above DEGREE) is zero
_DERIV_FACT = np.zeros((NCOEF + 1, NCOEF))
for _r in range(NCOEF):
    for _j in range(_r, NCOEF):
        _DERIV_FACT[_r, _j] = np.prod(np.arange(_j - _r + 1, _j + 1)) if _r else 1.0
_POWERS = np.maximum(np.arange(NCOEF) - np.arange(NCOEF + 1)[:, None], 0)


def basis_many(ts, order) -> np.ndarray:
    """Derivative rows of the natural basis [1, t, ..., t^5].

    ts and order (an int or an int array) broadcast against each other; the
    result has that broadcast shape + (6,).
    """
    order = np.minimum(order, NCOEF)
    return _DERIV_FACT[order] * np.asarray(ts, dtype=float)[..., None] ** _POWERS[order]


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
        # written as `not ...` so that NaN fails too
        if not ((dur > 0) & (dur < np.inf)).all():
            raise ValueError("piece durations must be positive and finite")
        if co.ndim != 3 or co.shape[0] != dur.shape[0] or co.shape[1] != NCOEF:
            raise ValueError(f"coefficients must have shape (M, {NCOEF}, m)")
        if not np.isfinite(co).all():
            raise ValueError("coefficients must be finite")
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

    def eval_many(self, ts: np.ndarray, order: int = 0) -> np.ndarray:
        """The trajectory (or its time derivative of the given order) at global
        times ts, sorted or not, shape (len(ts), m); times outside
        [0, total_duration] are clamped to it."""
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
        """Inverse of to_text; a malformed document raises ValueError."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        try:
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
        except IndexError as e:
            raise ValueError("truncated or malformed trajectory document") from e
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

    Boundary position/velocity/acceleration are fixed at construction, and so
    is the pattern of the dense 6M x 6M interpolation system: which rows hold
    the constants basis(0, r) and which hold basis(T_i, r) of which piece i.
    set_params() scatters the basis_many rows of the current durations into
    that pattern in one step, LU-factorises the system and solves it for the
    coefficients.  gradients() back-propagates coefficient/duration cost
    gradients to the (waypoint, duration) parameters through the adjoint of
    that solve; every duration partial comes from the same pattern, since
    d/dT basis(T, r) = basis(T, r + 1).
    """

    def __init__(self, start_state: np.ndarray, end_state: np.ndarray, n_pieces: int):
        start_state = np.asarray(start_state, dtype=float)
        end_state = np.asarray(end_state, dtype=float)
        if start_state.shape != end_state.shape or start_state.ndim != 2 or start_state.shape[0] != 3:
            raise ValueError("boundary states must both be (3, m): position, velocity, acceleration")
        if n_pieces < 1:
            raise ValueError("need at least one piece")
        self.n_pieces = n_pieces
        self.dim = start_state.shape[1]
        self._traj = None
        self._lu = None
        m = n_pieces
        n = NCOEF * m
        # junction j (between pieces j and j + 1) owns rows 3 + 6j ... 3 + 6j + 5:
        # left piece hits waypoint j, right piece starts at it, C1..C4 continuity
        self._junction = 3 + NCOEF * np.arange(m - 1)
        # rows holding basis(T_i, r) of piece i: the left piece's rows of each
        # junction, then the end boundary
        self._row = np.concatenate([(self._junction[:, None] + [0, 2, 3, 4, 5]).ravel(),
                                    n - 3 + np.arange(3)])
        self._piece = np.concatenate([np.repeat(np.arange(m - 1), 5), np.full(3, m - 1)])
        self._order = np.concatenate([np.tile(np.arange(5), m - 1), np.arange(3)])
        self._flat = (self._row[:, None] * n + NCOEF * self._piece[:, None]
                      + np.arange(NCOEF)).ravel()
        # rows holding the constants basis(0, r): the start boundary and the
        # right piece's rows of each junction (continuity rows negated)
        at_zero = basis_many(0.0, np.arange(5))
        self._mat = np.zeros((n, n))
        self._mat[:3, :NCOEF] = at_zero[:3]
        for j, row in enumerate(self._junction):
            self._mat[row + 1 : row + 6, NCOEF * (j + 1) : NCOEF * (j + 2)] = (
                at_zero * [[1], [-1], [-1], [-1], [-1]])
        self._rhs = np.zeros((n, self.dim))
        self._rhs[:3] = start_state
        self._rhs[n - 3 :] = end_state

    def set_params(self, waypoints: np.ndarray, durations: np.ndarray) -> Trajectory:
        m = self.n_pieces
        waypoints = np.asarray(waypoints, dtype=float).reshape(m - 1, self.dim) if m > 1 else np.zeros((0, self.dim))
        durations = np.asarray(durations, dtype=float)
        if durations.shape != (m,):
            raise ValueError(f"expected {m} durations")
        if np.any(durations <= 0):
            raise ValueError("durations must be positive")
        mat = self._mat.copy()
        mat.flat[self._flat] = basis_many(durations[self._piece], self._order).ravel()
        rhs = self._rhs.copy()
        rhs[self._junction] = waypoints
        rhs[self._junction + 1] = waypoints
        self._lu = lu_factor(mat)
        coef = lu_solve(self._lu, rhs)
        self._traj = Trajectory(durations.copy(), coef.reshape(m, NCOEF, self.dim))
        return self._traj

    def gradients(self, grad_c: np.ndarray, grad_t: np.ndarray):
        """Pull back (dJ/dc, dJ/dT_partial) to (dJ/dwaypoints, dJ/dT).

        grad_c has shape (M, 6, m); grad_t is the direct duration gradient of
        the cost (M,).  Returns (grad_waypoints (M-1, m), grad_durations (M,)).
        """
        if self._traj is None:
            raise RuntimeError("set_params() has not been called")
        grad_c = np.asarray(grad_c, dtype=float).reshape(NCOEF * self.n_pieces, self.dim)
        lam = lu_solve(self._lu, grad_c, trans=1)  # solve mat^T lam = grad_c
        # both rows of junction j that load waypoint j
        grad_q = lam[self._junction] + lam[self._junction + 1]
        # dJ/dT_i = grad_t_i - sum over the rows reading T_i of lam_row . (d row/dT_i) c_i
        traj = self._traj
        partial = np.einsum("kj,kjd,kd->k",
                            basis_many(traj.durations[self._piece], self._order + 1),
                            traj.coeffs[self._piece], lam[self._row])
        grad_dur = (np.asarray(grad_t, dtype=float)
                    - np.bincount(self._piece, weights=partial, minlength=self.n_pieces))
        return grad_q, grad_dur


def construct(start_state, end_state, waypoints, durations) -> tuple[MincoSpline, Trajectory]:
    """Convenience wrapper: build the spline and solve it in one call."""
    durations = np.asarray(durations, dtype=float)
    spline = MincoSpline(start_state, end_state, len(durations))
    traj = spline.set_params(waypoints, durations)
    return spline, traj
