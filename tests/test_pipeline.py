import numpy as np
import pytest

import se2plan.pipeline
from se2plan.minco import construct
from se2plan.optimize import OptOutcome
from se2plan.pipeline import PlanConfig, SpliceError, _kind_lengths, plan, splice
from se2plan.sequence import SubProblem
from se2plan.shape import rectangle
from se2plan.sweep import CollisionReport

from conftest import box_grid, empty_grid, wall_grid

FAST = PlanConfig(roadmap_budget=120, max_candidates=1, se2_budget=100,
                  r2_budget=60, seed=0)


@pytest.mark.parametrize("name", ["roadmap_budget", "max_paths", "max_candidates",
                                  "n_orientations", "se2_budget", "r2_budget", "seed"])
def test_plan_config_counts_and_seed_are_integers(name):
    # a float, even an integral one, and a bool are rejected when the config
    # is built, not when plan() reaches the field; numpy integers are counts
    for value in (2.5, 12.0, True, np.float64(3.0)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            PlanConfig(**{name: value})
    assert getattr(PlanConfig(**{name: np.int64(3)}), name) == 3


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
    p0 = result.trajectory.eval_many([0.0], 0)[0]
    p1 = result.trajectory.eval_many([result.trajectory.total_duration], 0)[0]
    assert np.allclose(p0[:2], [0.5, 0.5], atol=1e-9)
    assert np.allclose(p1[:2], [2.5, 2.5], atol=1e-9)


@pytest.mark.parametrize("which", ["start_pose", "goal_pose"])
@pytest.mark.parametrize("bad", [(np.inf, 0.5, 0.0), (np.nan, 0.5, 0.0), (0.5,),
                                 (0.5, 0.5, 0.0, 1.0)],
                         ids=["inf", "nan", "short", "long"])
def test_plan_rejects_a_malformed_pose(bad, which):
    poses = {"start_pose": (0.5, 0.5, 0.0), "goal_pose": (2.5, 2.5, 0.0), which: bad}
    with pytest.raises(ValueError, match=which):
        plan(empty_grid(30), rectangle(0.6, 0.3), config=FAST, **poses)


@pytest.mark.parametrize("separation", [0.0, 1e-13, 1e-10])
def test_plan_rejects_coincident_start_and_goal_positions(separation):
    # rejected before the kernel, the roadmap and any sub-problem are built
    result = plan(empty_grid(30), rectangle(0.4, 0.2), (1.5, 1.5, 0.0),
                  (1.5 + separation, 1.5, 1.0), FAST)
    assert result.status == "no-path"
    assert result.failures == ["start and goal positions coincide"]
    assert result.metrics["status"] == "no-path"


def test_plan_start_and_goal_apart_by_more_than_the_tolerance():
    result = plan(empty_grid(30), rectangle(0.4, 0.2), (1.5, 1.5, 0.0), (1.5 + 1e-8, 1.5, 0.0),
                  FAST)
    assert result.status == "success", result.failures
    end = result.trajectory.eval_many([result.trajectory.total_duration], 0)[0]
    assert end[:2] == pytest.approx([1.5 + 1e-8, 1.5], abs=1e-12)


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
    assert np.allclose(out.eval_many([1.0], 0)[0], [1, 0, 0], atol=1e-8)
    assert np.allclose(out.eval_many([3.0], 0)[0], [1, 1, 0], atol=1e-8)


def test_splice_junction_mismatch_raises():
    a = single_piece([0, 0, 0], [1, 0, 0])
    b = single_piece([1.5, 0, 0], [2, 0, 0])
    with pytest.raises(SpliceError):
        splice([a, b])
    with pytest.raises(SpliceError):
        splice([])


def test_splice_rejects_a_whole_turn_of_yaw():
    # adjacent sub-problems share their junction row of the sequence's
    # continuous yaw column, so a piece starting whole turns away from where
    # the previous one ended is a mismatch, not aligned away
    a = single_piece([0, 0, 0.3], [1, 0, 0.5])
    for turns in (1, -2):
        shift = 2 * np.pi * turns
        b = single_piece([1, 0, 0.5 + shift], [2, 0, 0.2 + shift], T=2.0)
        with pytest.raises(SpliceError):
            splice([a, b])
    b = single_piece([1, 0, 1.0], [2, 0, 0.2])
    with pytest.raises(SpliceError):
        splice([a, b])


def test_splice_dimension_mismatch_raises():
    a = single_piece([0, 0, 0], [1, 0, 0])
    start = np.zeros((3, 2))
    end = np.zeros((3, 2))
    end[0] = [1, 0]
    _, b = construct(start, end, np.zeros((0, 2)), [1.0])
    with pytest.raises(SpliceError):
        splice([a, b])


def test_plan_small_orientation_bank():
    # the orientation search range is capped at half the bank
    grid = empty_grid(30)
    config = PlanConfig(roadmap_budget=120, max_candidates=1, n_orientations=6,
                        se2_budget=100, r2_budget=60, seed=0)
    result = plan(grid, rectangle(0.6, 0.3), (0.5, 0.5, 0.0), (2.5, 2.5, 0.0), config)
    assert result.status == "success", result.failures
    assert result.certificate.clear


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
    """plan() on an empty map with its candidate split into straight
    rest-to-rest R2, SE2, R2 subs of 1 s each.  The R^2 solve of the last sub
    collides; every call to continuous_check and the index of every sub passed
    to se2_optimize are recorded, and se2_optimize returns a 2 s solve,
    collision-free for the SE2 sub and with the verdict in `resolve_clear` for
    a re-solved R2 sub."""
    subs = [SubProblem(kind, np.zeros((0, 3))) for kind in ["R2", "SE2", "R2"]]
    calls = {"se2": [], "checked": [], "resolve_clear": True}
    r2_out = {}

    def piece(k, T):
        return single_piece([0.5 + 0.5 * k, 1.5, 0], [1.0 + 0.5 * k, 1.5, 0], T=T)

    def index(sub):
        return next(k for k, s in enumerate(subs) if s is sub)

    def fake_r2_optimize(sub, *args, **kwargs):
        r2_out[index(sub)] = piece(index(sub), 1.0)
        return OptOutcome(r2_out[index(sub)], True, 0)

    def fake_se2_optimize(sub, *args, **kwargs):
        calls["se2"].append(index(sub))
        return OptOutcome(piece(index(sub), 2.0), True, 0,
                          collision_free=sub.kind == "SE2" or calls["resolve_clear"])

    def fake_continuous_check(traj, *args, **kwargs):
        calls["checked"].append(traj)
        if traj is r2_out.get(2):
            return CollisionReport("colliding", (((0.4, 0.6), np.zeros(2), 0.01),))
        return CollisionReport("clear")

    monkeypatch.setattr(se2plan.pipeline, "extract_subproblems", lambda *a, **k: subs)
    monkeypatch.setattr(se2plan.pipeline, "r2_optimize", fake_r2_optimize)
    monkeypatch.setattr(se2plan.pipeline, "se2_optimize", fake_se2_optimize)
    monkeypatch.setattr(se2plan.pipeline, "continuous_check", fake_continuous_check)

    def run():
        return plan(empty_grid(30), rectangle(0.4, 0.2), (0.5, 1.5, 0.0), (2.0, 1.5, 0.0),
                    FAST)
    return subs, calls, r2_out, run


def test_only_the_r2_piece_that_fails_its_own_check_is_resolved(three_subs):
    subs, calls, r2_out, run = three_subs
    result = run()
    assert result.status == "success", result.failures
    assert calls["se2"] == [1, 2]  # the SE2 window, then the re-solve
    assert result.provenance == ["R2", "SE2", "R2-reoptimized"]
    assert result.piece_counts == [1, 1, 1]
    assert result.trajectory.total_duration == pytest.approx(1.0 + 2.0 + 2.0)
    assert result.certificate.clear


def test_a_failed_r2_resolve_discards_the_candidate(three_subs):
    subs, calls, r2_out, run = three_subs
    calls["resolve_clear"] = False
    result = run()
    assert result.status == "all-candidates-failed"
    assert result.failures == ["candidate 0: R2 piece re-optimization failed"]
    assert calls["se2"] == [1, 2]


def test_the_pipeline_checks_only_r2_pieces(three_subs):
    subs, calls, r2_out, run = three_subs
    run()
    # each R^2 solve is checked once; the SE(2) solves (the window and the
    # re-solve) keep the verdict their own solve returns
    assert len(calls["checked"]) == 2
    assert calls["checked"][0] is r2_out[0] and calls["checked"][1] is r2_out[2]
