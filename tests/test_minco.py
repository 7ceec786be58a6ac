import numpy as np
import pytest

from se2plan.minco import (MincoSpline, Trajectory, basis_many, construct,
                           control_effort, control_effort_gradients)


def rest_to_rest(T=1.0, dim=1, displacement=1.0):
    start = np.zeros((3, dim))
    end = np.zeros((3, dim))
    end[0] = displacement
    return construct(start, end, np.zeros((0, dim)), [T])


def test_min_jerk_coefficients():
    _, traj = rest_to_rest(T=1.0)
    expected = np.array([0.0, 0.0, 0.0, 10.0, -15.0, 6.0])
    assert np.allclose(traj.coeffs[0, :, 0], expected, atol=1e-9)


def test_min_jerk_midpoint_symmetry():
    _, traj = rest_to_rest(T=2.0)
    assert traj.eval_many([1.0], 0)[0][0] == pytest.approx(0.5, abs=1e-12)


def test_control_effort_closed_form():
    for T in (0.5, 1.0, 2.0):
        _, traj = rest_to_rest(T=T)
        assert control_effort(traj) == pytest.approx(720 / T**5, rel=1e-6)


def test_control_effort_stationary_zero():
    start = np.zeros((3, 2))
    spline = MincoSpline(start, start, 3)
    traj = spline.set_params(np.zeros((2, 2)), np.ones(3))
    assert control_effort(traj) == pytest.approx(0.0, abs=1e-12)


def test_waypoint_interpolation_exact(rng):
    dim = 3
    m = 5
    start = rng.standard_normal((3, dim))
    end = rng.standard_normal((3, dim))
    waypoints = rng.standard_normal((m - 1, dim))
    durations = rng.uniform(0.5, 2.0, m)
    _, traj = construct(start, end, waypoints, durations)
    edges = np.cumsum(durations)[:-1]
    for t, wp in zip(edges, waypoints):
        assert np.allclose(traj.eval_many([t], 0)[0], wp, atol=1e-9)
    assert np.allclose(traj.eval_many([0.0], 0)[0], start[0], atol=1e-9)
    assert np.allclose(traj.eval_many([traj.total_duration], 1)[0], end[1], atol=1e-8)


def test_junction_continuity_orders_0_to_4(rng):
    m = 5
    start = rng.standard_normal((3, 2))
    end = rng.standard_normal((3, 2))
    _, traj = construct(start, end, rng.standard_normal((m - 1, 2)),
                        rng.uniform(0.5, 2.0, m))
    for i in range(m - 1):
        t_local = traj.durations[i]
        for order in range(5):
            left = basis_many(t_local, order) @ traj.coeffs[i]
            right = basis_many(0.0, order) @ traj.coeffs[i + 1]
            assert np.max(np.abs(left - right)) < 1e-8


def test_symmetric_two_piece_mirror():
    start = np.zeros((3, 1))
    end = np.zeros((3, 1))
    end[0] = 1.0
    _, traj = construct(start, end, np.array([[0.5]]), [1.0, 1.0])
    # mirror symmetry: p(t) = 1 - p(2 - t)
    for t in np.linspace(0, 2, 21):
        assert traj.eval_many([t], 0)[0][0] == pytest.approx(
            1 - traj.eval_many([2 - t], 0)[0][0], abs=1e-9)


def test_effort_is_minimal_among_interpolants(rng):
    m = 4
    start = rng.standard_normal((3, 1))
    end = rng.standard_normal((3, 1))
    waypoints = rng.standard_normal((m - 1, 1))
    durations = rng.uniform(0.5, 1.5, m)
    spline, traj = construct(start, end, waypoints, durations)
    base = control_effort(traj)
    # any competing C2 quintic interpolant through the same waypoints must
    # have at least as much squared-jerk; build one by perturbing junction
    # velocity/acceleration of an exactly-constrained piecewise solve
    for _ in range(10):
        vel = rng.standard_normal((m - 1, 1)) * 0.3
        acc = rng.standard_normal((m - 1, 1)) * 0.3
        node_pos = np.concatenate([start[:1], waypoints, end[:1]])
        node_vel = np.concatenate([start[1:2], vel, end[1:2]])
        node_acc = np.concatenate([start[2:3], acc, end[2:3]])
        coeffs = []
        for i in range(m):
            mat = np.zeros((6, 6))
            rhs = np.zeros((6, 1))
            for r in range(3):
                mat[r] = basis_many(0.0, r)
                mat[3 + r] = basis_many(durations[i], r)
            rhs[0], rhs[1], rhs[2] = node_pos[i], node_vel[i], node_acc[i]
            rhs[3], rhs[4], rhs[5] = node_pos[i + 1], node_vel[i + 1], node_acc[i + 1]
            coeffs.append(np.linalg.solve(mat, rhs))
        rival = Trajectory(durations, np.array(coeffs))
        assert control_effort(rival) >= base - 1e-9


def test_time_scaling_law():
    _, traj1 = rest_to_rest(T=1.0)
    _, traj2 = rest_to_rest(T=3.0)
    assert control_effort(traj2) == pytest.approx(control_effort(traj1) / 3**5,
                                                  rel=1e-9)


def test_gradients_zero_in_zero_out(rng):
    m = 3
    spline, traj = construct(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)),
                             rng.standard_normal((m - 1, 2)), rng.uniform(0.5, 1.5, m))
    gq, gt = spline.gradients(np.zeros_like(traj.coeffs), np.zeros(m))
    assert np.allclose(gq, 0) and np.allclose(gt, 0)


def test_effort_gradients_match_fd(rng):
    m = 4
    dim = 2
    start = rng.standard_normal((3, dim))
    end = rng.standard_normal((3, dim))
    waypoints = rng.standard_normal((m - 1, dim))
    durations = rng.uniform(0.8, 1.5, m)
    spline = MincoSpline(start, end, m)

    def effort(w, t):
        return control_effort(spline.set_params(w, t))

    traj = spline.set_params(waypoints, durations)
    _, grad_c, grad_t = control_effort_gradients(traj)
    gq, gt = spline.gradients(grad_c, grad_t)
    h = 1e-6
    for i in range(m - 1):
        for d in range(dim):
            wp = waypoints.copy()
            wp[i, d] += h
            fp = effort(wp, durations)
            wp[i, d] -= 2 * h
            fm = effort(wp, durations)
            assert gq[i, d] == pytest.approx((fp - fm) / (2 * h), rel=1e-5, abs=1e-6)
    for i in range(m):
        tp = durations.copy()
        tp[i] += h
        fp = effort(waypoints, tp)
        tp[i] -= 2 * h
        fm = effort(waypoints, tp)
        assert gt[i] == pytest.approx((fp - fm) / (2 * h), rel=1e-5, abs=1e-6)


def test_single_piece_duration_gradient_closed_form():
    T = 1.3
    spline, traj = rest_to_rest(T=T)
    _, grad_c, grad_t = control_effort_gradients(traj)
    _, gt = spline.gradients(grad_c, grad_t)
    assert gt[0] == pytest.approx(-5 * 720 / T**6, rel=1e-9)


def test_eval_many_clamps_to_the_timeline():
    _, traj = rest_to_rest(T=1.0)
    assert np.array_equal(traj.eval_many([1.5, -0.5], 0), traj.eval_many([1.0, 0.0], 0))
    assert traj.eval_many([1.0], 6)[0, 0] == pytest.approx(0.0)  # beyond degree -> zero


def test_construct_validation(rng):
    with pytest.raises(ValueError):
        construct(np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((0, 1)), [0.0])
    with pytest.raises(ValueError):
        MincoSpline(np.zeros((3, 1)), np.zeros((2, 1)), 1)


def test_serialization_round_trip(rng):
    m = 3
    _, traj = construct(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)),
                        rng.standard_normal((m - 1, 3)), rng.uniform(0.5, 1.5, m))
    again = Trajectory.from_text(traj.to_text())
    assert np.array_equal(again.durations, traj.durations)
    assert np.array_equal(again.coeffs, traj.coeffs)


def test_trajectory_rejects_non_finite_input():
    for durations, coeffs in ((np.array([np.nan]), np.zeros((1, 6, 3))),
                              (np.array([np.inf]), np.zeros((1, 6, 3))),
                              (np.ones(1), np.full((1, 6, 3), np.nan)),
                              (np.ones(1), np.full((1, 6, 3), -np.inf))):
        with pytest.raises(ValueError):
            Trajectory(durations, coeffs)


def test_from_text_rejects_truncated_and_non_numeric_documents(rng):
    _, traj = construct(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)),
                        rng.standard_normal((1, 3)), rng.uniform(0.5, 1.5, 2))
    lines = traj.to_text().splitlines()
    truncated = ["", lines[0], "\n".join(lines[:2]), "\n".join(lines[:-1]),
                 "\n".join(lines[:9])]
    non_numeric = ["\n".join(lines).replace("T:", "T: x", 1),
                   "\n".join(lines).replace("pieces: 2", "pieces: two"),
                   "\n".join(lines[:-1] + ["c: 1 2 nope"])]
    for text in truncated + non_numeric:
        with pytest.raises(ValueError):
            Trajectory.from_text(text)


def test_eval_many_matches_the_power_basis(rng):
    m = 3
    _, traj = construct(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)),
                        rng.standard_normal((m - 1, 2)), rng.uniform(0.5, 1.5, m))
    ts = np.linspace(0, traj.total_duration, 17)
    for order in (0, 1, 2):
        batch = traj.eval_many(ts, order)
        for t, row in zip(ts, batch):
            i = np.flatnonzero(traj.start_times <= t)[-1]  # the last piece starting by t
            expected = _ref_basis(t - traj.start_times[i], order) @ traj.coeffs[i]
            assert np.allclose(row, expected, atol=1e-12)


def test_arc_length_straight_line():
    start = np.zeros((3, 2))
    end = np.zeros((3, 2))
    end[0] = [3.0, 4.0]
    _, traj = construct(start, end, np.zeros((0, 2)), [2.0])
    assert traj.arc_length() == pytest.approx(5.0, rel=1e-6)


def _ref_basis(t, order):
    """Scalar power-basis row, one entry at a time."""
    out = np.zeros(6)
    for j in range(order, 6):
        out[j] = np.prod(np.arange(j - order + 1, j + 1)) * t ** (j - order)
    return out


def _ref_assembly(start, end, waypoints, durations):
    """The interpolation system assembled one row at a time."""
    m, dim = len(durations), start.shape[1]
    mat = np.zeros((6 * m, 6 * m))
    rhs = np.zeros((6 * m, dim))
    for r in range(3):
        mat[r, 0:6] = _ref_basis(0.0, r)
        rhs[r] = start[r]
    row = 3
    for j in range(1, m):
        tj = durations[j - 1]
        col_l, col_r = 6 * (j - 1), 6 * j
        mat[row, col_l : col_l + 6] = _ref_basis(tj, 0)
        rhs[row] = waypoints[j - 1]
        mat[row + 1, col_r : col_r + 6] = _ref_basis(0.0, 0)
        rhs[row + 1] = waypoints[j - 1]
        row += 2
        for r in range(1, 5):
            mat[row, col_l : col_l + 6] = _ref_basis(tj, r)
            mat[row, col_r : col_r + 6] = -_ref_basis(0.0, r)
            row += 1
    for r in range(3):
        mat[row, 6 * (m - 1) : 6 * m] = _ref_basis(durations[m - 1], r)
        rhs[row] = end[r]
        row += 1
    return mat, rhs


def _ref_adjoint(mat, coef, durations, grad_c, grad_t):
    """Loop adjoint: waypoint rows per junction, duration partials row by row."""
    m, dim = len(durations), coef.shape[1]
    lam = np.linalg.solve(mat.T, grad_c.reshape(6 * m, dim))
    grad_q = np.zeros((m - 1, dim))
    grad_dur = np.array(grad_t, dtype=float)
    for j in range(1, m):
        base = 3 + 6 * (j - 1)
        grad_q[j - 1] = lam[base] + lam[base + 1]
        tj = durations[j - 1]
        c_l = coef[6 * (j - 1) : 6 * j]
        total = np.sum((_ref_basis(tj, 1) @ c_l) * lam[base])
        for r in range(1, 5):
            total += np.sum((_ref_basis(tj, r + 1) @ c_l) * lam[base + 1 + r])
        grad_dur[j - 1] -= total
    base = 3 + 6 * (m - 1)
    c_l = coef[6 * (m - 1) :]
    for r in range(3):
        grad_dur[m - 1] -= np.sum((_ref_basis(durations[m - 1], r + 1) @ c_l) * lam[base + r])
    return grad_q, grad_dur


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("m", range(1, 9))
def test_pattern_assembly_matches_row_by_row_reference(m, dim, rng):
    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    start = rng.standard_normal((3, dim))
    end = rng.standard_normal((3, dim))
    waypoints = rng.standard_normal((m - 1, dim))
    durations = rng.uniform(0.3, 2.0, m)
    spline, traj = construct(start, end, waypoints, durations)
    mat, rhs = _ref_assembly(start, end, waypoints, durations)
    coef = np.linalg.solve(mat, rhs)
    assert rel(traj.coeffs.reshape(6 * m, dim), coef) < 1e-12
    grad_c = rng.standard_normal((m, 6, dim))
    grad_t = rng.standard_normal(m)
    gq, gt = spline.gradients(grad_c, grad_t)
    ref_q, ref_t = _ref_adjoint(mat, coef, durations, grad_c, grad_t)
    if m > 1:
        assert rel(gq, ref_q) < 1e-12
    assert rel(gt, ref_t) < 1e-12
