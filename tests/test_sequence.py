import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from se2plan.sequence import (HIGH_RISK, LOW_RISK, MotionSequence, extract_subproblems,
                              generate_sequence, safe_yaw)
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
    assert seq.states.shape == (len(seq.risks), 3)
    assert np.allclose(seq.states[0, :2], [0.6, 1.5])
    assert np.allclose(seq.states[-1, :2], [2.4, 1.5])
    assert all(r == LOW_RISK for r in seq.risks)
    assert np.all(seq.states[1:-1, 2] == 0.0)
    gaps = np.linalg.norm(np.diff(seq.states[:, :2], axis=0), axis=1)
    assert np.all(gaps <= 2 * grid.resolution + 1e-9)
    # sub-problems are views of these rows, so no one may write them
    with pytest.raises(ValueError):
        seq.states[0, 0] = 0.0


def slit_sequence(kernel):
    """The baffle map and a diagonal path's sequence threading both offset
    slots."""
    grid = baffle_grid()
    return grid, generate_sequence(straight_path((1.4, 0.8), (3.0, 2.3)), kernel, grid)


def test_generate_sequence_slit_high_risk(slim_rect, kernel):
    grid, seq = slit_sequence(kernel)
    assert HIGH_RISK in seq.risks
    for (x, y, yaw), risk in zip(seq.states, seq.risks, strict=True):
        if risk == HIGH_RISK:
            # high-risk states cluster near the baffle passage (x in [1.7, 2.7])
            assert 1.5 <= x <= 2.9
        else:
            # low-risk soundness
            assert not kernel_collides(kernel, grid, (x, y), kernel.index_of(yaw))


def test_generate_sequence_yaw_column_is_continuous(kernel):
    # a heading that crosses yaw 0: the kernel yaws are 340 deg on the
    # -11 deg segment and 20 deg on the +11 deg one, 320 deg apart wrapped
    a, b = np.deg2rad(-11.0), np.deg2rad(11.0)
    mid = np.array([0.5 + np.cos(a), 1.5 + np.sin(a)])
    path = np.array([[0.5, 1.5], mid, mid + [np.cos(b), np.sin(b)]])
    open_seq = generate_sequence(path, kernel, empty_grid(30))
    _, slit_seq = slit_sequence(kernel)
    bracketed = 0
    for seq in (open_seq, slit_seq):
        yaw = seq.states[:, 2]
        assert np.all(np.abs(np.diff(yaw)) < np.pi)
        low = np.array(seq.risks) == LOW_RISK
        # low-risk rows keep their kernel yaws, whole turns aside
        steps = yaw[low] / kernel.angular_step
        assert np.all(np.abs(steps - np.round(steps)) < 1e-9)
        # each high-risk row lies on the index line between its low-risk
        # neighbours, and level with the only one it has
        for i in np.flatnonzero(~low):
            left, right = np.flatnonzero(low[:i]), i + 1 + np.flatnonzero(low[i + 1:])
            if left.size and right.size:
                lo, hi = left[-1], right[0]
                expected = yaw[lo] + (i - lo) / (hi - lo) * (yaw[hi] - yaw[lo])
                bracketed += 1
            else:
                expected = yaw[left[-1]] if left.size else yaw[right[0]]
            assert abs(yaw[i] - expected) <= 1e-12
    assert bracketed >= 1


def load_bench_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_counts_match_the_sequence(slim_rect, kernel):
    # the bench tracer reads len(states), compares each label with the string
    # "HighRisk" and reads each sub's kind; labels of another type would read
    # as zero high-risk states there, not fail
    tracer = load_bench_tracer()
    grid, seq = slit_sequence(kernel)
    subs = extract_subproblems(seq, slim_rect, grid, 0.02)
    counts = Counter()
    tracer._observe_sequence(counts, (), seq)
    tracer._observe_subproblems(counts, (), subs)
    high = int(np.count_nonzero(np.array(seq.risks) == HIGH_RISK))
    assert high >= 1
    assert counts["sequence.states"] == seq.states.shape[0]
    assert counts["sequence.high_risk_states"] == high
    assert counts["sequence.subproblems.se2"] == sum(sub.kind == "SE2" for sub in subs) >= 1
    assert counts["sequence.subproblems.r2"] == sum(sub.kind == "R2" for sub in subs)


def row_states(risks):
    """A sequence of states 0.1 m apart along the centre row y = 0.55 of
    `row_grid`, on the x centres of its cells, yaw 0: state i is at
    x = 0.05 + 0.1 i."""
    n = len(risks)
    states = np.column_stack([0.05 + 0.1 * np.arange(n), np.full(n, 0.55), np.zeros(n)])
    states.setflags(write=False)
    return MotionSequence(states, tuple(risks))


def row_index(state):
    """The index in `row_states` of a state, recovered from its x."""
    return int(round((state[0] - 0.05) / 0.1))


def row_grid(occupied=()):
    """A 2.0 x 1.1 m map, free except for the given (ix, iy) cells."""
    cells = np.zeros((11, 20), dtype=bool)
    for ix, iy in occupied:
        cells[iy, ix] = True
    return grid_from_cells(cells)


def split(seq, grid=None, d_safe=0.02):
    return extract_subproblems(seq, rectangle(0.1, 0.06),
                               row_grid() if grid is None else grid, d_safe)


def test_extract_subproblems_all_low():
    seq = row_states([LOW_RISK] * 8)
    subs = split(seq)
    assert spans(subs, seq) == [("R2", 0, 7)]


def test_extract_subproblems_l5_h3_l5():
    risks = [LOW_RISK] * 8 + [HIGH_RISK] * 3 + [LOW_RISK] * 8
    seq = row_states(risks)
    subs = split(seq)
    # an H-run of 3 plus five pad states per side; adjacent sub-problems
    # share exactly the junction state
    assert spans(subs, seq) == [("R2", 0, 3), ("SE2", 3, 15), ("R2", 15, 18)]
    assert np.array_equal(subs[0].states[-1], subs[1].states[0])
    assert np.array_equal(subs[1].states[-1], subs[2].states[0])
    # cover: concatenating slices (dropping duplicated junctions) = sequence
    merged = np.concatenate([subs[0].states, subs[1].states[1:], subs[2].states[1:]])
    assert np.array_equal(merged, seq.states)


def test_extract_subproblems_high_risk_head():
    risks = [HIGH_RISK] * 2 + [LOW_RISK] * 8
    seq = row_states(risks)
    assert spans(split(seq), seq) == [("SE2", 0, 6), ("R2", 6, 9)]


def test_extract_subproblems_junction_veto():
    risks = [LOW_RISK] * 8 + [HIGH_RISK] + [LOW_RISK] * 8
    seq = row_states(risks)
    # obstacles on the states a five-state dilation would pick as junctions
    # (3 and 13): the body covers them, so the dilation extends one further
    subs = split(seq, row_grid(occupied=((3, 5), (13, 5))))
    assert ("SE2", 2, 14) in spans(subs, seq)
    # without them the junctions are the dilation's own
    assert ("SE2", 3, 13) in spans(split(seq), seq)


def test_extract_subproblems_junction_clears_by_d_safe():
    seq = row_states([LOW_RISK] * 8 + [HIGH_RISK] + [LOW_RISK] * 8)
    # one cell beside state 3, the left junction: 0.07 m from the body there
    # and 0.086 m from it at state 2
    grid = row_grid(occupied=((3, 6),))
    se2 = next(s for s in split(seq, grid, d_safe=0.05) if s.kind == "SE2")
    assert row_index(se2.states[0]) == 3
    se2 = next(s for s in split(seq, grid, d_safe=0.1) if s.kind == "SE2")
    assert row_index(se2.states[0]) == 1


def spans(subs, seq):
    """(kind, first, last) state indices of each sub-problem of a
    `row_states` sequence, after checking that each one's states are a view
    of exactly the rows between them."""
    out = []
    for sub in subs:
        first, last = row_index(sub.states[0]), row_index(sub.states[-1])
        assert np.shares_memory(sub.states, seq.states)
        assert np.array_equal(sub.states, seq.states[first:last + 1])
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
    seq = row_states(risks)
    assert spans(split(seq), seq) == expected


def test_extract_subproblems_empty():
    with pytest.raises(ValueError):
        split(row_states([]))
