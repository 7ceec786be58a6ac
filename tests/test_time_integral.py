"""minco.time_integral against per-piece reference loops.

Each reference below is the per-piece loop that evaluated its cost term before
every term became an integrand of the one vectorised quadrature (the R^2
residual's loop since interpolates the anchors per sample, as r2_cost does, and
tracks positions only).  The arithmetic is the same but its summation order is
not, so each value, and each gradient (dJ/dc and dJ/dT as one vector, in the
2-norm), must agree to a relative 1e-12 (summation-order rounding is about
1e-13 here).
"""

from dataclasses import replace

import numpy as np
import pytest

import se2plan.minco
from se2plan.minco import NCOEF, _DERIV_FACT, basis_many, construct
from se2plan.minco import control_effort, control_effort_gradients
from se2plan.optimize import Weights, _dynamics_penalty, _safety_penalty, r2_cost, smoothing_grad
from se2plan.shape import RobotShape, polygon_sdf_gradient, rectangle

REL = 1e-12
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)


def ref_control_effort_gradients(traj):
    def jerk_gram(t):
        q = np.zeros((NCOEF, NCOEF))
        for j in range(3, NCOEF):
            for k in range(3, NCOEF):
                q[j, k] = _DERIV_FACT[3, j] * _DERIV_FACT[3, k] * t ** (j + k - 5) / (j + k - 5)
        return q

    grad_c = np.zeros_like(traj.coeffs)
    grad_t = np.zeros(traj.n_pieces)
    value = 0.0
    for i in range(traj.n_pieces):
        ti = traj.durations[i]
        q = jerk_gram(ti)
        c = traj.coeffs[i]
        value += float(np.einsum("jd,jk,kd->", c, q, c))
        grad_c[i] = 2 * q @ c
        jerk_end = basis_many(ti, 3) @ c
        grad_t[i] = float(np.dot(jerk_end, jerk_end))
    return value, grad_c, grad_t


def ref_dynamics_penalty(traj, weights):
    mu = weights.mu
    grad_c = np.zeros_like(traj.coeffs)
    grad_t = np.zeros(traj.n_pieces)
    value = 0.0
    for i in range(traj.n_pieces):
        ti = traj.durations[i]
        taus = (_NODES + 1) / 2 * ti
        c = traj.coeffs[i]
        b1 = basis_many(taus, 1)
        b2 = basis_many(taus, 2)
        vel = b1 @ c
        acc = b2 @ c
        v2 = vel[:, 0] ** 2 + vel[:, 1] ** 2
        pv, dv = smoothing_grad(v2 - weights.v_max**2, mu)
        g_vals = pv
        dgdtau = dv * 2 * (vel[:, 0] * acc[:, 0] + vel[:, 1] * acc[:, 1])
        dg_dvel = np.zeros_like(vel)
        dg_dvel[:, 0] = dv * 2 * vel[:, 0]
        dg_dvel[:, 1] = dv * 2 * vel[:, 1]
        w = vel[:, 2]
        pw, dw = smoothing_grad(w**2 - weights.w_max**2, mu)
        g_vals = g_vals + pw
        dgdtau = dgdtau + dw * 2 * w * acc[:, 2]
        dg_dvel[:, 2] = dw * 2 * w
        value += float(ti / 2 * np.sum(_WEIGHTS * g_vals))
        grad_c[i] += (ti / 2) * np.einsum("q,qj,qd->jd", _WEIGHTS, b1, dg_dvel)
        grad_t[i] += float(0.5 * np.sum(_WEIGHTS * g_vals)
                           + ti / 2 * np.sum(_WEIGHTS * dgdtau * (_NODES + 1) / 2))
    return value, grad_c, grad_t


def ref_safety_penalty(traj, weights, shape, obstacles, n_samples=16):
    """Every (sample, obstacle) pair evaluated, none culled."""
    grad_c = np.zeros_like(traj.coeffs)
    grad_t = np.zeros(traj.n_pieces)
    fr = (np.arange(n_samples) + 0.5) / n_samples
    value = 0.0
    for i in range(traj.n_pieces):
        ti = traj.durations[i]
        taus = fr * ti
        c = traj.coeffs[i]
        b0 = basis_many(taus, 0)
        b1 = basis_many(taus, 1)
        states = b0 @ c
        vel = b1 @ c
        pos, yaw = states[:, :2], states[:, 2]
        cs, sn = np.cos(yaw), np.sin(yaw)
        d = obstacles[None, :, :] - pos[:, None, :]
        body = np.stack([cs[:, None] * d[:, :, 0] + sn[:, None] * d[:, :, 1],
                         -sn[:, None] * d[:, :, 0] + cs[:, None] * d[:, :, 1]], axis=-1)
        val, g_body = polygon_sdf_gradient(shape.vertices, body + shape.reference)
        pen, dpen = smoothing_grad(weights.d_safe - val, weights.mu)
        value += float(ti / n_samples * np.sum(pen))
        scale = -dpen
        gx, gy = g_body[:, :, 0], g_body[:, :, 1]
        df_dpos = np.stack([-(cs[:, None] * gx - sn[:, None] * gy),
                            -(sn[:, None] * gx + cs[:, None] * gy)], axis=-1)
        ux, uy = d[:, :, 1], -d[:, :, 0]
        df_dyaw = gx * (cs[:, None] * ux + sn[:, None] * uy) \
            + gy * (-sn[:, None] * ux + cs[:, None] * uy)
        df_dpose = np.concatenate([df_dpos, df_dyaw[:, :, None]], axis=-1)
        weighted = scale[:, :, None] * df_dpose
        grad_c[i] += ti / n_samples * np.einsum("kj,kpd->jd", b0, weighted)
        df_dt = np.einsum("kpd,kd->kp", df_dpose, vel)
        grad_t[i] += float(np.sum(pen) / n_samples
                           + ti / n_samples * np.sum(scale * df_dt * fr[:, None]))
    return value, grad_c, grad_t


def ref_r2_residuals(traj, weights, anchor_positions, anchor_fractions):
    """(lam_p G_p, G_p, grad_c, grad_t) of the position residual term.

    Each sample tracks the anchor curve at its time fraction u = t / T_total,
    interpolated per sample with np.interp.  A duration change moves u, so
    every sample's residual also reaches every duration through the anchor
    curve's slope: du/dT_j = ([j < i] + [j == i] s - u) / T_total for a
    sample at fraction s of piece i."""
    mu_p = weights.mu / 10
    total = traj.total_duration
    gp_total = 0.0
    grad_c = np.zeros_like(traj.coeffs)
    grad_t = np.zeros(traj.n_pieces)
    s = (_NODES + 1) / 2
    for i in range(traj.n_pieces):
        ti = traj.durations[i]
        t0 = traj.start_times[i]
        taus = s * ti
        c = traj.coeffs[i]
        b0 = basis_many(taus, 0)
        b1 = basis_many(taus, 1)
        states = b0 @ c
        vel = b1 @ c
        u = (t0 + taus) / total
        anchor = np.empty((len(u), 2))
        slope = np.empty((len(u), 2))
        for q in range(len(u)):
            k = max(j for j in range(len(anchor_fractions) - 1) if anchor_fractions[j] <= u[q])
            run = anchor_fractions[k + 1] - anchor_fractions[k]
            for d, values in enumerate((anchor_positions[:, 0], anchor_positions[:, 1])):
                anchor[q, d] = np.interp(u[q], anchor_fractions, values)
                slope[q, d] = (values[k + 1] - values[k]) / run
        dp = states[:, :2] - anchor
        pv, dv = smoothing_grad(np.sum(dp * dp, axis=1), mu_p)
        gp_total += float(ti / 2 * np.sum(_WEIGHTS * pv))
        dg_dstate = np.zeros_like(states)
        dg_dstate[:, :2] = weights.lam_p * (dv * 2)[:, None] * dp
        grad_c[i] += (ti / 2) * np.einsum("q,qj,qd->jd", _WEIGHTS, b0, dg_dstate)
        g_vals = weights.lam_p * pv
        dgdtau = np.sum(dg_dstate * vel, axis=1)
        grad_t[i] += float(0.5 * np.sum(_WEIGHTS * g_vals)
                           + ti / 2 * np.sum(_WEIGHTS * dgdtau * s))
        # the anchor a sample tracks moves with u: dg/da = -dg/dx
        h = ti / 2 * _WEIGHTS * np.sum(dg_dstate[:, :2] * slope, axis=1)
        for j in range(traj.n_pieces):
            grad_t[j] -= float(np.sum(h * ((j < i) + (j == i) * s - u) / total))
    return weights.lam_p * gp_total, gp_total, grad_c, grad_t


def ref_arc_length(traj):
    nodes, weights = np.polynomial.legendre.leggauss(64)
    total = 0.0
    for i in range(traj.n_pieces):
        ts = traj.start_times[i] + (nodes + 1) / 2 * traj.durations[i]
        v = traj.eval_many(ts, order=1)[:, :2]
        total += float(np.sum(weights * np.linalg.norm(v, axis=1)) * traj.durations[i] / 2)
    return total


def assert_rel(actual, expected):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    scale = float(np.linalg.norm(expected))
    assert scale > 0  # a term that is zero everywhere compares nothing
    assert float(np.linalg.norm(actual - expected)) <= REL * scale


def assert_term_rel(actual, expected):
    """(value, grad_c, grad_t) triples: the value, then the whole gradient."""
    assert_rel(actual[0], expected[0])
    assert_rel(np.concatenate([np.ravel(actual[1]), actual[2]]),
               np.concatenate([np.ravel(expected[1]), expected[2]]))


def random_trajectories(seed, count=20):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(1, 9))
        start = np.zeros((3, 3))
        end = np.zeros((3, 3))
        start[0] = rng.uniform(-2.0, 2.0, 3)
        end[0] = rng.uniform(-2.0, 2.0, 3)
        _, traj = construct(start, end, rng.uniform(-2.0, 2.0, (m - 1, 3)),
                            rng.uniform(0.3, 1.5, m))
        yield rng, traj


def obstacles_near(rng, traj, n=200, spread=0.6):
    ts = rng.uniform(0.0, traj.total_duration, n)
    return traj.eval_many(ts, 0)[:, :2] + rng.uniform(-spread, spread, (n, 2))


def sample_positions(traj, fractions):
    ts = (traj.start_times[:, None] + traj.durations[:, None] * fractions).ravel()
    return traj.eval_many(ts, 0)[:, :2]


def test_control_effort_matches_gram_loop():
    for _, traj in random_trajectories(1):
        actual = control_effort_gradients(traj)
        assert_term_rel(actual, ref_control_effort_gradients(traj))
        assert control_effort(traj) == actual[0]


def test_dynamics_penalty_matches_loop():
    weights = Weights(v_max=0.5, w_max=0.5)
    for _, traj in random_trajectories(2):
        assert_term_rel(_dynamics_penalty(traj, weights), ref_dynamics_penalty(traj, weights))


# a bar drawn from the origin, reference at its centroid: the cull must centre
# on the reference point, which the pose places
BAR = RobotShape(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.2], [0.0, 0.2]]), np.array([0.5, 0.1]))


@pytest.mark.parametrize("shape", [rectangle(1.0, 0.2), BAR], ids=["centred", "bar"])
def test_safety_penalty_matches_unculled_loop(shape):
    weights = Weights(d_safe=0.05)
    for rng, traj in random_trajectories(3):
        obstacles = obstacles_near(rng, traj)
        assert_term_rel(_safety_penalty(traj, weights, shape, obstacles),
                        ref_safety_penalty(traj, weights, shape, obstacles))


def test_safety_cull_leaves_value_and_gradients_exactly_equal():
    shape = BAR
    weights = Weights(d_safe=0.05)
    reach = shape.circumradius + weights.d_safe
    fractions = (np.arange(16) + 0.5) / 16
    for rng, traj in random_trajectories(4):
        obstacles = obstacles_near(rng, traj)
        # candidates just beyond reach of the nearest sample pose
        poses = sample_positions(traj, fractions)
        cand = obstacles_near(rng, traj, 2000, spread=1.5)
        gap = np.min(np.linalg.norm(cand[:, None] - poses[None], axis=2), axis=1)
        far = cand[(gap >= reach) & (gap < reach + 0.05)]
        assert far.shape[0] > 0
        base = _safety_penalty(traj, weights, shape, obstacles)
        more = _safety_penalty(traj, weights, shape, np.concatenate([obstacles, far]))
        assert more[0] == base[0]
        assert np.array_equal(more[1], base[1]) and np.array_equal(more[2], base[2])


def test_r2_residuals_match_loop():
    # without the effort and time terms r2_cost is the residual term alone
    weights = Weights(lam_m=0.0, lam_t=0.0, lam_p=10.0)
    for rng, traj in random_trajectories(5):
        n = int(rng.integers(2, 12))
        anchors = rng.uniform(-2.0, 2.0, (n, 2))
        fractions = np.linspace(0.0, 1.0, n)
        cost, grad_c, grad_t = r2_cost(traj, weights, anchors, fractions)
        value, gp, ref_c, ref_t = ref_r2_residuals(traj, weights, anchors, fractions)
        # the residual at unit weight
        assert_rel(r2_cost(traj, replace(weights, lam_p=1.0), anchors, fractions)[0], gp)
        assert_term_rel((cost, grad_c, grad_t), (value, ref_c, ref_t))


def test_r2_cost_samples_the_residuals_once(monkeypatch):
    # one integral for the effort and one for the position residual
    calls = []
    original = se2plan.minco.time_integral
    monkeypatch.setattr(se2plan.minco, "time_integral",
                        lambda *args: calls.append(args[2]) or original(*args))
    rng, traj = next(random_trajectories(1))
    r2_cost(traj, Weights(), rng.uniform(-2.0, 2.0, (4, 2)), np.linspace(0.0, 1.0, 4))
    assert calls == [3, 0]


def test_arc_length_matches_loop():
    for _, traj in random_trajectories(6):
        assert_rel(traj.arc_length(), ref_arc_length(traj))

