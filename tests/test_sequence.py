import numpy as np
import pytest

from se2plan.sequence import (HIGH_RISK, LOW_RISK, MotionSequence, MotionState,
                              extract_subproblems, generate_sequence, safe_yaw)
from se2plan.shape import build_kernel, kernel_collides, rectangle

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
    assert safe_yaw((1.5, 1.5), 3, kernel, grid) == 3
    # every index of the search window (preferred plus +-1..4) is free there
    for k in range(-1, 8):
        assert safe_yaw((1.5, 1.5), k, kernel, grid) == k % kernel.n_orientations


def test_safe_yaw_corridor_only_horizontal(slim_rect, kernel):
    grid = corridor_grid(height_cells=4)
    p = (1.5, 1.5)
    assert safe_yaw(p, 0, kernel, grid) == 0
    # 1.0 x 0.2 robot in a 0.4 m corridor: only near-horizontal fits, so a
    # search from any preferred index returns a near-horizontal free one
    for preferred in range(kernel.n_orientations):
        k = safe_yaw(p, preferred, kernel, grid)
        if k is None:
            continue
        yaw = kernel.yaw_of(k)
        assert abs(np.sin(yaw)) < 0.45
        assert not kernel_collides(kernel, grid, p, k)


def test_safe_yaw_enclosed_empty(kernel):
    cells = np.ones((30, 30), dtype=bool)
    cells[15, 15] = False
    grid = grid_from_cells(cells)
    assert safe_yaw((1.55, 1.55), 0, kernel, grid) is None


def straight_path(a, b):
    return np.array([a, b], dtype=float)


def test_generate_sequence_open_map(slim_rect, kernel):
    grid = empty_grid(30)
    path = straight_path((0.6, 1.5), (2.4, 1.5))
    seq = generate_sequence(path, kernel, grid)
    assert np.allclose(seq.states[0].position, [0.6, 1.5])
    assert np.allclose(seq.states[-1].position, [2.4, 1.5])
    assert all(s.risk == LOW_RISK for s in seq.states)
    assert all(s.yaw == 0.0 for s in seq.states[1:-1])
    positions = np.array([s.position for s in seq.states])
    gaps = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    assert np.all(gaps <= 2 * grid.resolution + 1e-9)


def test_generate_sequence_slit_high_risk(slim_rect, kernel):
    grid = baffle_grid()
    # diagonal path threading both offset slots
    path = straight_path((1.4, 0.8), (3.0, 2.3))
    seq = generate_sequence(path, kernel, grid)
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


def row_states(risks):
    """States 0.1 m apart along the centre row y = 0.55 of `row_grid`, on the
    x centres of its cells, yaw 0."""
    return tuple(MotionState((0.05 + 0.1 * i, 0.55), 0.0, r) for i, r in enumerate(risks))


def row_grid(occupied=()):
    """A 2.0 x 1.1 m map, free except for the given (ix, iy) cells."""
    cells = np.zeros((11, 20), dtype=bool)
    for ix, iy in occupied:
        cells[iy, ix] = True
    return grid_from_cells(cells)


def split(states, grid=None, d_safe=0.02):
    return extract_subproblems(MotionSequence(states), rectangle(0.1, 0.06),
                               row_grid() if grid is None else grid, d_safe)


def test_extract_subproblems_all_low():
    states = row_states([LOW_RISK] * 8)
    subs = split(states)
    assert len(subs) == 1
    assert subs[0].kind == "R2" and len(subs[0].states) == 8


def test_extract_subproblems_l5_h3_l5():
    risks = [LOW_RISK] * 8 + [HIGH_RISK] * 3 + [LOW_RISK] * 8
    states = row_states(risks)
    subs = split(states)
    assert [s.kind for s in subs] == ["R2", "SE2", "R2"]
    assert len(subs[1].states) == 13  # H-run of 3 plus five pad states per side
    # adjacent sub-problems share exactly the junction state
    assert subs[0].states[-1] is subs[1].states[0]
    assert subs[1].states[-1] is subs[2].states[0]
    # cover: concatenating slices (dropping duplicated junctions) = sequence
    merged = list(subs[0].states) + list(subs[1].states[1:]) + list(subs[2].states[1:])
    assert merged == list(states)


def test_extract_subproblems_high_risk_head():
    risks = [HIGH_RISK] * 2 + [LOW_RISK] * 8
    states = row_states(risks)
    subs = split(states)
    assert [s.kind for s in subs] == ["SE2", "R2"]
    assert subs[0].states[0] is states[0] and len(subs[0].states) == 7


def test_extract_subproblems_junction_veto():
    risks = [LOW_RISK] * 8 + [HIGH_RISK] + [LOW_RISK] * 8
    states = row_states(risks)
    # obstacles on the states a five-state dilation would pick as junctions
    # (3 and 13): the body covers them, so the dilation extends one further
    subs = split(states, row_grid(occupied=((3, 5), (13, 5))))
    se2 = next(s for s in subs if s.kind == "SE2")
    assert se2.states[0] is states[2] and len(se2.states) == 13
    # without them the junctions are the dilation's own
    se2 = next(s for s in split(states) if s.kind == "SE2")
    assert se2.states[0] is states[3] and len(se2.states) == 11


def test_extract_subproblems_junction_clears_by_d_safe():
    states = row_states([LOW_RISK] * 8 + [HIGH_RISK] + [LOW_RISK] * 8)
    # one cell beside state 3, the left junction: 0.07 m from the body there
    # and 0.086 m from it at state 2
    grid = row_grid(occupied=((3, 6),))
    se2 = next(s for s in split(states, grid, d_safe=0.05) if s.kind == "SE2")
    assert se2.states[0] is states[3]
    se2 = next(s for s in split(states, grid, d_safe=0.1) if s.kind == "SE2")
    assert se2.states[0] is states[1]


def spans(subs, states):
    """(kind, first, last) state indices of each sub-problem, after checking
    that each one is exactly the slice of `states` between them."""
    index = {id(s): i for i, s in enumerate(states)}
    out = []
    for sub in subs:
        first, last = index[id(sub.states[0])], index[id(sub.states[-1])]
        assert all(a is b for a, b in zip(sub.states, states[first:last + 1], strict=True))
        out.append((sub.kind, first, last))
    return out


@pytest.mark.parametrize("runs, expected", [
    # windows [0, 8] and [11, 19]: an R2 slice between them
    (((2, 3), (16, 17)), [("SE2", 0, 8), ("R2", 8, 11), ("SE2", 11, 19)]),
    # [0, 11] and [13, 19]: one state between them is still a slice
    (((5, 6), (18, 18)), [("SE2", 0, 11), ("R2", 11, 13), ("SE2", 13, 19)]),
    # [1, 11] and [12, 19] touch: one window
    (((6, 6), (17, 17)), [("R2", 0, 1), ("SE2", 1, 19)]),
    # [1, 12] and [9, 19] overlap: one window
    (((6, 7), (14, 14)), [("R2", 0, 1), ("SE2", 1, 19)]),
], ids=["apart", "one-state-apart", "touching", "overlapping"])
def test_extract_subproblems_two_high_risk_runs(runs, expected):
    # each (first, last) run is padded by five states per side; adjacent
    # slices share their junction state
    risks = [LOW_RISK] * 20
    for first, last in runs:
        risks[first:last + 1] = [HIGH_RISK] * (last + 1 - first)
    states = row_states(risks)
    assert spans(split(states), states) == expected


def test_extract_subproblems_empty():
    with pytest.raises(ValueError):
        split(())
