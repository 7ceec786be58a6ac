"""Tests of the benchmark itself: python3 -m pytest bench

The smoke and repeat tests run bench/run.py end to end on the first few
queries of the fuzz workload and take about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from harness import tail  # noqa: E402
from se2plan.minco import construct  # noqa: E402
from se2plan.shape import RobotShape, build_kernel, kernel_collides, polygon_sdf  # noqa: E402
from se2plan.gridmap import OccupancyGrid  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(seed: int, trace: int) -> dict:
    """A run over the first three fuzz queries."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "fuzz", "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--queries", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, kind):
    out = run_bench(0, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_traced_counts_repeat_exactly():
    # the same seed twice, then another seed: the seed only reorders the
    # queries, and no count may depend on the order
    counts = []
    for seed in (3, 3, 4):
        metrics = run_bench(seed, 1)["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["optimize.r2_cost.evals"] > 0


def test_tracer_records_only_calls_inside_a_plan():
    tr = tracer.Tracer()
    inner = tr.wrap("inner", lambda x: x + 1)
    outer = tr.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4 and tr.spans == []  # no plan id: passed through
    tr.plan_id = 7
    assert outer(1) == 4
    assert [(s[0], s[3], s[4]) for s in tr.spans] == [("outer", -1, 7), ("inner", 0, 7)]
    assert tr.plan_id is None  # cleared when the outermost span ended
    inner(1)
    assert len(tr.spans) == 2
    calls, total, own = tr.totals()
    assert calls == {"outer": 1, "inner": 1}
    assert own["outer"] == pytest.approx(total["outer"] - total["inner"])
    assert own["inner"] == total["inner"]


def test_corpus_is_a_function_of_the_corpus_number():
    for make in workloads.WORKLOADS.values():
        a, b = make(0), make(0)
        assert len(a.queries) == len(b.queries)
        for qa, qb in zip(a.queries, b.queries):
            assert np.array_equal(qa.cells, qb.cells)
            assert np.array_equal(qa.start, qb.start) and np.array_equal(qa.goal, qb.goal)
    assert not np.array_equal(workloads.fuzz(0).queries[0].cells,
                              workloads.fuzz(1).queries[0].cells)
    assert sorted(workloads.order(5, 1, 32)) == list(range(32))
    assert workloads.order(0, 0, 32) != workloads.order(1, 0, 32)


def test_generated_poses_are_free_for_the_planner_kernel():
    for make in (workloads.fuzz, workloads.field):
        for q in make(0).queries:
            n = q.config.get("n_orientations", 18)
            kernel = build_kernel(RobotShape(q.vertices, np.zeros(2)), n, workloads.RESOLUTION)
            grid = OccupancyGrid(workloads.RESOLUTION, np.zeros(2), q.cells)
            for pose in (q.start, q.goal):
                assert not kernel_collides(kernel, grid, pose[:2], kernel.index_of(pose[2]))


def test_oracle_sdf_matches_the_planner_polygon_sdf():
    rng = np.random.default_rng(7)
    for verts in (workloads.rectangle(1.0, 0.2), workloads.regular_polygon(12, 0.12)):
        pts = rng.uniform(-0.7, 0.7, (500, 2))
        assert np.allclose(oracle.polygon_sdf(verts, pts), polygon_sdf(verts, pts), atol=1e-12)


def test_oracle_clearance_of_a_translating_disc():
    # a 16-gon with a vertex at the top, circumradius 0.3, sliding along y = 0
    # past a point at height d: clearance d - 0.3, up to the time sampling
    ang = np.pi / 2 + 2 * np.pi * np.arange(16) / 16
    verts = 0.3 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    start, end = np.zeros((3, 3)), np.zeros((3, 3))
    end[0] = [2.0, 0.0, 0.0]
    _, traj = construct(start, end, np.zeros((0, 3)), [2.0])
    for d in (0.5, 0.8, 1.1):
        got = oracle.min_clearance(verts, traj.durations, traj.coeffs, np.array([[1.0, d]]))
        assert got == pytest.approx(d - 0.3, abs=1e-5)
    assert oracle.min_clearance(verts, traj.durations, traj.coeffs, np.array([[1.0, 0.1]])) < 0
    assert oracle.endpoint_error(traj.durations, traj.coeffs, [0, 0, 0], [2, 0, 0]) < 1e-12


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 41))
    assert tail(values) == (30, 75.0, 40)
    assert tail(values[:12]) == (12, 100.0, 12)
