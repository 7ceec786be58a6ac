import numpy as np
import pytest

import se2plan.sequence
from se2plan.sequence import (HIGH_RISK, LOW_RISK, MotionSequence, MotionState,
                              extract_subproblems, generate_sequence, safe_yaw,
                              seg_adjust)
from se2plan.shape import build_kernel, kernel_collides
from se2plan.topo import Se2Path, Se2Waypoint

from conftest import baffle_grid, empty_grid, grid_from_cells


@pytest.fixture
def kernel(slim_rect):
    return build_kernel(slim_rect, 18, 0.1)


def corridor_grid(n=30, height_cells=4, y0=13):
    """Horizontal free corridor of the given height; everything else occupied."""
    cells = np.ones((n, n), dtype=bool)
    cells[y0 : y0 + height_cells, :] = False
    return grid_from_cells(cells)


def test_safe_yaw_open_space(kernel):
    grid = empty_grid(30)
    free = safe_yaw((1.5, 1.5), 3, kernel, grid)
    assert free[0] == 3
    assert len(free) == 9  # preferred plus +-1..4


def test_safe_yaw_corridor_only_horizontal(slim_rect, kernel):
    grid = corridor_grid(height_cells=4)
    p = (1.5, 1.5)
    free = safe_yaw(p, 0, kernel, grid)
    assert free and free[0] == 0
    for k in free:
        yaw = kernel.yaw_of(k)
        # 1.0 x 0.2 robot in a 0.4 m corridor: only near-horizontal fits
        assert min(abs(np.sin(yaw)), 1 - abs(np.sin(yaw))) < 0.45
        assert not kernel_collides(kernel, grid, p, k)


def test_safe_yaw_enclosed_empty(kernel):
    cells = np.ones((30, 30), dtype=bool)
    cells[15, 15] = False
    grid = grid_from_cells(cells)
    assert safe_yaw((1.55, 1.55), 0, kernel, grid) == []


def test_seg_adjust_free_segment(slim_rect, kernel):
    grid = empty_grid(30)
    out = seg_adjust((0.6, 1.5), (2.4, 1.5), slim_rect, kernel, grid)
    assert out is not None and len(out) == 2
    assert np.allclose(out[0], [0.6, 1.5]) and np.allclose(out[-1], [2.4, 1.5])


def test_seg_adjust_blocked_corridor_fails(slim_rect, kernel):
    cells = np.ones((30, 30), dtype=bool)
    cells[14:16, :] = False  # 0.2 m corridor: the 0.2-wide robot cannot rotate
    cells[:, 0:3] = False
    cells[:, 27:30] = False
    grid = grid_from_cells(cells)
    # vertical segment crossing the corridor from the left shaft: the corridor
    # points have no safe yaw and push-away has nowhere to go
    out = seg_adjust((1.5, 1.35), (1.5, 1.55), slim_rect, kernel, grid,
                     max_depth=2)
    assert out is None


def test_seg_adjust_corner_clip(slim_rect, kernel):
    cells = np.zeros((30, 30), dtype=bool)
    cells[14:30, 14:30] = True  # big box in the upper-right quadrant
    grid = grid_from_cells(cells)
    # documented failure: the end point (2.6, 1.25) has no free yaw (near
    # yaw 0 the 1 m body reaches past the 3 m map edge, turned further it
    # enters the box), and seg_adjust never moves an endpoint
    assert seg_adjust((0.5, 1.25), (2.6, 1.25), slim_rect, kernel, grid) is None
    # a diagonal segment whose body clips the box corner is repaired
    seg = ((2.3, 0.5), (0.5, 2.3))
    out = seg_adjust(*seg, slim_rect, kernel, grid)
    assert out is not None and len(out) == 3
    assert np.allclose(out[0], seg[0]) and np.allclose(out[-1], seg[1])
    # every discretized point of the adjusted polyline has a free orientation
    from se2plan.topo import discretize_polyline
    pts = discretize_polyline(out, grid.resolution)
    tangents = np.arctan2(*np.gradient(pts, axis=0).T[::-1])
    for p, th in zip(pts, tangents):
        assert safe_yaw(p, kernel.index_of(float(th)), kernel, grid)


def straight_path(a, b):
    yaw = float(np.arctan2(b[1] - a[1], b[0] - a[0]))
    return Se2Path((Se2Waypoint(np.asarray(a, float), yaw, "start"),
                    Se2Waypoint(np.asarray(b, float), yaw, "goal")))


def test_generate_sequence_open_map(slim_rect, kernel):
    grid = empty_grid(30)
    path = straight_path((0.6, 1.5), (2.4, 1.5))
    seq = generate_sequence(path, slim_rect, kernel, grid)
    assert np.allclose(seq.states[0].position, [0.6, 1.5])
    assert np.allclose(seq.states[-1].position, [2.4, 1.5])
    assert all(s.risk == LOW_RISK for s in seq.states)
    assert all(s.yaw == 0.0 for s in seq.states[1:-1])
    gaps = np.linalg.norm(np.diff(seq.positions, axis=0), axis=1)
    assert np.all(gaps <= 2 * grid.resolution + 1e-9)


def test_generate_sequence_slit_high_risk(slim_rect, kernel):
    grid = baffle_grid()
    # diagonal path threading both offset slots
    path = straight_path((1.4, 0.8), (3.0, 2.3))
    seq = generate_sequence(path, slim_rect, kernel, grid)
    risks = [s.risk for s in seq.states]
    assert HIGH_RISK in risks
    # high-risk states cluster near the baffle passage (x in [1.7, 2.7])
    for s in seq.states:
        if s.risk == HIGH_RISK:
            assert 1.5 <= s.position[0] <= 2.9
    # low-risk soundness
    for s in seq.states:
        if s.risk == LOW_RISK:
            assert not kernel_collides(kernel, grid, s.position, kernel.index_of(s.yaw))


def test_generate_sequence_repairs_a_segment_once(slim_rect, kernel, monkeypatch):
    # the straight path runs inside the first baffle wall: many of its points
    # have no safe yaw and the segment cannot be repaired
    grid = baffle_grid()
    original = se2plan.sequence.seg_adjust
    depth = 0
    top_level = []

    def counting(*args, **kwargs):
        nonlocal depth
        if depth == 0:
            top_level.append(args[:2])
        depth += 1
        try:
            return original(*args, **kwargs)
        finally:
            depth -= 1

    monkeypatch.setattr(se2plan.sequence, "seg_adjust", counting)
    seq = generate_sequence(straight_path((1.95, 0.5), (1.95, 2.5)), slim_rect, kernel, grid)
    assert HIGH_RISK in seq.risks
    assert len(top_level) == 1


def test_extract_subproblems_all_low():
    states = tuple(MotionState((0.1 * i, 0.0), 0, LOW_RISK) for i in range(8))
    subs = extract_subproblems(MotionSequence(states))
    assert len(subs) == 1
    assert subs[0].kind == "R2" and len(subs[0].states) == 8


def test_extract_subproblems_l5_h3_l5():
    risks = [LOW_RISK] * 5 + [HIGH_RISK] * 3 + [LOW_RISK] * 5
    states = tuple(MotionState((0.1 * i, 0.0), 0, r) for i, r in enumerate(risks))
    subs = extract_subproblems(MotionSequence(states), pad=1)
    assert [s.kind for s in subs] == ["R2", "SE2", "R2"]
    assert len(subs[1].states) == 5  # H-run of 3 plus one pad state per side
    # adjacent sub-problems share exactly the junction state
    assert subs[0].states[-1] is subs[1].states[0]
    assert subs[1].states[-1] is subs[2].states[0]
    # cover: concatenating slices (dropping duplicated junctions) = sequence
    merged = list(subs[0].states) + list(subs[1].states[1:]) + list(subs[2].states[1:])
    assert merged == list(states)


def test_extract_subproblems_high_risk_head():
    risks = [HIGH_RISK] * 2 + [LOW_RISK] * 6
    states = tuple(MotionState((0.1 * i, 0.0), 0, r) for i, r in enumerate(risks))
    subs = extract_subproblems(MotionSequence(states), pad=2)
    assert subs[0].kind == "SE2"
    assert subs[0].start_index == 0


def test_extract_subproblems_junction_veto():
    risks = [LOW_RISK] * 5 + [HIGH_RISK] + [LOW_RISK] * 5
    states = tuple(MotionState((0.1 * i, 0.0), 0, r) for i, r in enumerate(risks))
    bad = {4, 6}  # indices a pad-1 dilation would pick as junctions

    def good_junction(state):
        return int(round(state.position[0] / 0.1)) not in bad

    subs = extract_subproblems(MotionSequence(states), pad=1,
                               good_junction=good_junction)
    se2 = next(s for s in subs if s.kind == "SE2")
    assert se2.start_index == 3 and len(se2.states) == 5  # extended past vetoes


def test_extract_subproblems_empty():
    with pytest.raises(ValueError):
        extract_subproblems(MotionSequence(()))
