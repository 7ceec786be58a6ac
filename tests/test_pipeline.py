import numpy as np
import pytest

from se2plan.minco import construct
from se2plan.pipeline import PlanConfig, SpliceError, _kind_lengths, plan, splice
from se2plan.shape import rectangle

from conftest import box_grid, empty_grid, wall_grid

FAST = PlanConfig(roadmap_budget=120, max_candidates=1, se2_budget=100,
                  r2_budget=60, seed=0)


def single_piece(p0, p1, v0=(0, 0, 0), v1=(0, 0, 0), T=1.0):
    start = np.zeros((3, 3))
    end = np.zeros((3, 3))
    start[0], start[1] = p0, v0
    end[0], end[1] = p1, v1
    _, traj = construct(start, end, np.zeros((0, 3)), [T])
    return traj


def test_plan_empty_map_single_r2():
    grid = empty_grid(30)
    shape = rectangle(0.6, 0.3)
    result = plan(grid, shape, (0.5, 0.5, 0.0), (2.5, 2.5, 0.0), FAST)
    assert result.status == "success"
    assert result.provenance == ["R2"]
    assert result.certificate is not None and result.certificate.clear
    assert result.trajectory is not None
    p0 = result.trajectory.eval(0.0, 0)
    p1 = result.trajectory.eval(result.trajectory.total_duration, 0)
    assert np.allclose(p0[:2], [0.5, 0.5], atol=1e-9)
    assert np.allclose(p1[:2], [2.5, 2.5], atol=1e-9)


def test_plan_full_wall_no_path():
    grid = wall_grid(30, wall_ix=15, gaps=())
    shape = rectangle(0.4, 0.2)
    result = plan(grid, shape, (0.5, 1.5, 0.0), (2.5, 1.5, 0.0), FAST)
    assert result.status == "no-path"
    assert result.trajectory is None
    assert result.failures


def test_plan_colliding_start_pose():
    grid = box_grid(30, box=(10, 20, 10, 20))
    shape = rectangle(0.4, 0.2)
    result = plan(grid, shape, (1.5, 1.5, 0.0), (0.4, 0.4, 0.0), FAST)
    assert result.status == "no-path"
    assert any("start" in f for f in result.failures)


def test_plan_metrics_additive_and_nonnegative():
    grid = box_grid(30, box=(12, 18, 12, 18))
    shape = rectangle(0.5, 0.25)
    result = plan(grid, shape, (0.5, 0.5, 0.0), (2.5, 2.5, 0.0), FAST)
    m = result.metrics
    assert result.status == "success"
    assert m["len.total"] == pytest.approx(m["len.r2"] + m["len.se2"])
    for key in ("time.path_refine", "time.r2", "time.se2", "time.certify", "time.total"):
        assert m[key] >= 0.0
    assert m["time.total"] >= m["time.path_refine"]
    assert m["candidates.survived"] >= 1


def test_plan_deterministic_under_seed():
    grid = box_grid(30, box=(12, 18, 12, 18))
    shape = rectangle(0.5, 0.25)
    a = plan(grid, shape, (0.5, 0.5, 0.0), (2.5, 2.5, 0.0), FAST)
    b = plan(grid, shape, (0.5, 0.5, 0.0), (2.5, 2.5, 0.0), FAST)
    assert a.status == b.status == "success"
    assert np.array_equal(a.trajectory.coeffs, b.trajectory.coeffs)
    assert np.array_equal(a.trajectory.durations, b.trajectory.durations)


def test_splice_single_piece_copy():
    traj = single_piece([0, 0, 0], [1, 0, 0])
    out = splice([traj])
    assert np.array_equal(out.coeffs, traj.coeffs)
    assert not np.shares_memory(out.coeffs, traj.coeffs)  # defensive copy


def test_splice_junction_velocity_or_acceleration_mismatch_raises():
    # the positions meet, but one side arrives moving (then accelerating)
    # while the other starts at rest: splicing checks, it does not blend
    b = single_piece([1.0, 0.5, 0.3], [2.0, 0.0, -0.2])
    for order in (1, 2):
        start = np.zeros((3, 3))
        end = np.zeros((3, 3))
        end[0] = [1.0, 0.5, 0.3]
        end[order] = [0.5, 0.1, 0.0]
        _, a = construct(start, end, np.zeros((0, 3)), [1.0])
        with pytest.raises(SpliceError):
            splice([a, b])


def test_splice_rest_to_rest_is_concatenation():
    a = single_piece([0, 0, 0], [1, 0, 0.5], T=1.0)
    b = single_piece([1, 0, 0.5], [1, 1, 0], T=2.0)
    c = single_piece([1, 1, 0], [0, 1, -0.4], T=0.5)
    out = splice([a, b, c])
    assert np.array_equal(out.coeffs, np.concatenate([a.coeffs, b.coeffs, c.coeffs]))
    assert np.array_equal(out.durations, np.concatenate([a.durations, b.durations,
                                                         c.durations]))


def test_splice_three_pieces_durations_and_positions():
    a = single_piece([0, 0, 0], [1, 0, 0], T=1.0)
    b = single_piece([1, 0, 0], [1, 1, 0], T=2.0)
    c = single_piece([1, 1, 0], [0, 1, 0], T=0.5)
    out = splice([a, b, c])
    assert out.total_duration == pytest.approx(3.5)
    # junction positions preserved exactly
    assert np.allclose(out.eval(1.0, 0), [1, 0, 0], atol=1e-8)
    assert np.allclose(out.eval(3.0, 0), [1, 1, 0], atol=1e-8)


def test_splice_junction_mismatch_raises():
    a = single_piece([0, 0, 0], [1, 0, 0])
    b = single_piece([1.5, 0, 0], [2, 0, 0])
    with pytest.raises(SpliceError):
        splice([a, b])
    with pytest.raises(SpliceError):
        splice([])


def test_splice_dimension_mismatch_raises():
    a = single_piece([0, 0, 0], [1, 0, 0])
    start = np.zeros((3, 2))
    end = np.zeros((3, 2))
    end[0] = [1, 0]
    _, b = construct(start, end, np.zeros((0, 2)), [1.0])
    with pytest.raises(SpliceError):
        splice([a, b])


def test_kind_lengths_count_reoptimized_as_se2():
    # straight rest-to-rest pieces of 1, 2 and 0.5 m
    a = single_piece([0, 0, 0], [1, 0, 0])
    b = single_piece([1, 0, 0], [1, 2, 0])
    c = single_piece([1, 2, 0], [0.5, 2, 0])
    out = splice([a, b, c])
    len_r2, len_se2 = _kind_lengths(out, ["R2", "SE2", "R2-reoptimized"], [1, 1, 1])
    assert len_r2 == pytest.approx(1.0, rel=1e-6)
    assert len_se2 == pytest.approx(2.5, rel=1e-6)
