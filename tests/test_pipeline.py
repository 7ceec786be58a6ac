import numpy as np
import pytest

import se2plan.pipeline
from se2plan.minco import construct
from se2plan.optimize import OptOutcome, Weights
from se2plan.pipeline import PlanConfig, SpliceError, _kind_lengths, _repair, plan, splice
from se2plan.sequence import SubProblem
from se2plan.shape import rectangle
from se2plan.sweep import CollisionReport

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
    len_r2, len_se2 = _kind_lengths([a, b, c], ["R2", "SE2", "R2-reoptimized"])
    assert len_r2 == pytest.approx(1.0, rel=1e-6)
    assert len_se2 == pytest.approx(2.5, rel=1e-6)


@pytest.fixture
def three_subs(monkeypatch):
    """Straight rest-to-rest R2, SE2, R2 subs of 1 s each, and a stand-in for
    se2_optimize that records its sub and returns a 2 s solve of it."""
    trajs = [single_piece([0, 0, 0], [1, 0, 0]), single_piece([1, 0, 0], [2, 0, 0]),
             single_piece([2, 0, 0], [3, 0, 0])]
    subs = [SubProblem(kind, (), i) for i, kind in enumerate(["R2", "SE2", "R2"])]
    solved = []

    def fake_se2_optimize(sub, *args, **kwargs):
        solved.append(sub)
        k = subs.index(sub)
        traj = single_piece([k, 0, 0], [k + 1, 0, 0], T=2.0)
        return OptOutcome(traj, True, {}, 0, collision_free=True)

    monkeypatch.setattr(se2plan.pipeline, "se2_optimize", fake_se2_optimize)
    return subs, trajs, solved


def _one_hit(t_lo, t_hi):
    return CollisionReport("colliding", (((t_lo, t_hi), np.zeros(2), 0.01),))


def test_repair_resolves_only_the_sub_a_hit_falls_in(three_subs):
    subs, trajs, solved = three_subs
    kinds = [s.kind for s in subs]
    spliced, new_trajs, new_kinds, err = _repair(subs, trajs, kinds, _one_hit(2.4, 2.6),
                                                 Weights(), None, None, None, FAST)
    assert err is None
    assert solved == [subs[2]]
    assert new_kinds == ["R2", "SE2", "R2-reoptimized"]
    assert kinds == ["R2", "SE2", "R2"]  # the caller's record is not mutated
    assert new_trajs[0] is trajs[0] and new_trajs[1] is trajs[1]
    assert new_trajs[2].total_duration == pytest.approx(2.0)
    assert spliced.total_duration == pytest.approx(4.0)


def test_repair_fails_a_hit_inside_the_se2_span(three_subs):
    subs, trajs, solved = three_subs
    spliced, _, _, err = _repair(subs, trajs, [s.kind for s in subs], _one_hit(1.4, 1.6),
                                 Weights(), None, None, None, FAST)
    assert err == "SE2-originated piece unsafe after splice"
    assert spliced is None
    assert solved == []
