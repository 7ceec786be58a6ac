"""Set-up, the measured closed loop, the traced pass, output checks and the
metrics computed from them.  Imported by run.py after the thread pinning."""

from __future__ import annotations

import dataclasses
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import scipy

import se2plan
import se2plan.pipeline

import oracle
import tracer as tracing
from workloads import RESOLUTION, WORKLOADS, order, warmup_query

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples the reported tail percentile must leave above it
ENDPOINT_TOL = 1e-6  # m


@dataclasses.dataclass
class Plan:
    query: int  # index in the corpus
    pass_index: int
    wall_s: float
    result: object = None  # PlanResult
    error: str | None = None
    clearance: float | None = None  # oracle minimum body SDF, successes only
    verdict: str = ""  # verified | false-clear | wrong-output | error | <status>

    @property
    def digest(self) -> str:
        if self.result is None or self.result.trajectory is None:
            return ""
        return hashlib.sha256(self.result.trajectory.to_text().encode()).hexdigest()


def planner_inputs(query):
    grid = se2plan.OccupancyGrid(RESOLUTION, np.zeros(2), query.cells)
    shape = se2plan.RobotShape(query.vertices, np.zeros(2))
    return grid, shape


def setup(workload_name: str, corpus: int, n_queries: int | None = None):
    """Generate the corpus and run one untimed warm-up plan.  Returns
    (workload, seconds)."""
    t0 = time.perf_counter()
    workload = WORKLOADS[workload_name](corpus)
    if n_queries is not None:
        workload = dataclasses.replace(workload, queries=workload.queries[:n_queries])
    warm = warmup_query()
    grid, shape = planner_inputs(warm)
    se2plan.pipeline.plan(grid, shape, warm.start, warm.goal, se2plan.PlanConfig(**warm.config))
    return workload, time.perf_counter() - t0


def plan_pass(workload, seed: int, pass_index: int, before_plan=None) -> list[Plan]:
    """Plan every query of the corpus once, in the seed's order for this pass."""
    plans = []
    for j in order(seed, pass_index, len(workload.queries)):
        query = workload.queries[j]
        # fresh objects, so that nothing one plan caches on its inputs serves the next
        grid, shape = planner_inputs(query)
        config = se2plan.PlanConfig(**query.config)
        if before_plan is not None:
            before_plan(j)
        gc.collect()  # every plan starts from the same collector state
        t0 = time.perf_counter()
        try:
            # looked up on the module at each call so that a traced run's
            # wrapper is the one called
            result = se2plan.pipeline.plan(grid, shape, query.start, query.goal, config)
            error = None
        except Exception as e:  # a crash is a failed operation, not the end of the run
            result, error = None, f"{type(e).__name__}: {e}"
        plans.append(Plan(j, pass_index, time.perf_counter() - t0, result, error))
    return plans


def check(plan: Plan, query) -> None:
    """Set plan.verdict: a success is verified only with a clear certificate,
    endpoints at the requested positions and no penetration found by the
    dense oracle."""
    if plan.error is not None:
        plan.verdict = "error"
        return
    result = plan.result
    if result.status != "success":
        plan.verdict = result.status
        return
    traj = result.trajectory
    durations = np.asarray(traj.durations, dtype=float)
    coeffs = np.asarray(traj.coeffs, dtype=float)
    obstacles = (np.argwhere(query.cells)[:, ::-1] + 0.5) * RESOLUTION
    plan.clearance = oracle.min_clearance(query.vertices, durations, coeffs, obstacles)
    certified = result.certificate is not None and result.certificate.clear
    if not certified or oracle.endpoint_error(durations, coeffs, query.start,
                                              query.goal) > ENDPOINT_TOL:
        plan.verdict = "wrong-output"
    elif plan.clearance < -oracle.PENETRATION_TOL:
        plan.verdict = "false-clear"
    else:
        plan.verdict = "verified"


def tail(values):
    """(value, percentile, n): the highest order statistic with at least
    TAIL_BEYOND samples above it.  Below 2 * TAIL_BEYOND samples that
    statistic would sit under the median, so the maximum stands in."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_BEYOND
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[k - 1], 100.0 * k / n, n


def end_to_end(plans: list[Plan], setup_s: float) -> dict:
    walls = [p.wall_s for p in plans]
    ok = [p for p in plans if p.verdict == "verified"]
    tail_s, _, _ = tail(walls)

    def mean(xs):
        return float(np.mean(xs)) if xs else 0.0

    return {
        "plan_s.p50": (statistics.median(walls), "s"),
        "plan_s.tail": (tail_s, "s"),
        "plans_per_s": (len(walls) / sum(walls), "1/s"),
        "success_rate": (len(ok) / len(plans), "ratio"),
        "len_m.mean": (mean([p.result.metrics["len.total"] for p in ok]), "m"),
        "clearance_m.p50": (statistics.median([p.clearance for p in ok]) if ok else 0.0, "m"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def run(args, import_s: float, out_dir) -> int:
    setups = [setup(args.workload, args.corpus, args.queries) for _ in range(SETUP_REPEATS)]
    workload = setups[0][0]
    setup_s = import_s + statistics.median(s for _, s in setups)
    env = environment()
    print(f"# bench workload={workload.name} seed={args.seed} corpus={args.corpus} "
          f"trace={args.trace} queries={len(workload.queries)} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        plans, metrics, spans = traced(workload, args.seed)
    else:
        plans, spans = measured(workload, args.seed, args.seconds), None
    for p in plans:
        check(p, workload.queries[p.query])
    if not args.trace:
        metrics = end_to_end(plans, setup_s)
        _, pct, n = tail([p.wall_s for p in plans])
        print(f"# plan_s.tail is p{pct:.1f} of n={n} plans")
        # an output of the planner, not a measurement: it repeats exactly
        durations = [p.result.trajectory.total_duration for p in plans if p.verdict == "verified"]
        print(f"# traj_s.mean={np.mean(durations) if durations else 0.0} s")
    false_clear = sum(p.verdict == "false-clear" for p in plans)
    wrong = sum(p.verdict == "wrong-output" for p in plans)
    mismatched = traced_mismatches(plans) if args.trace else 0
    failed = sum(p.verdict == "error" for p in plans) + false_clear + wrong + mismatched
    for p in plans:
        query = workload.queries[p.query]
        print(f"# plan {query.name} roadmap_seed={query.config['seed']} pass={p.pass_index} "
              f"wall_s={p.wall_s:.4f} verdict={p.verdict} "
              f"clearance_m={p.clearance if p.clearance is not None else 'n/a'} "
              f"sha256={p.digest or 'none'}" + (f" error={p.error}" if p.error else ""))
    print(f"# false_clear={false_clear} wrong_output={wrong} "
          f"traced_untraced_mismatch={mismatched} failed={failed} attempted={len(plans)}")
    write_details(out_dir, args, env, plans, metrics, spans)
    summary = {"correct": false_clear == 0 and wrong == 0 and mismatched == 0,
               "attempted": len(plans), "failed": failed,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(summary))
    return 0


def measured(workload, seed: int, seconds: float) -> list[Plan]:
    """Closed loop over whole passes.  The pass count follows from `seconds`
    and the workload's nominal pass time, so every run of one setting plans
    the same work; a faster program finishes sooner."""
    plans: list[Plan] = []
    for pass_index in range(max(1, round(seconds / workload.pass_s))):
        plans += plan_pass(workload, seed, pass_index)
    return plans


def traced(workload, seed: int):
    """Pass 0 with spans, then pass 0 again untraced for the overhead ratio
    and as a check that tracing leaves the outputs unchanged."""
    tr = tracing.Tracer()
    tracing.install(tr, se2plan)
    try:
        plans = plan_pass(workload, seed, 0,
                          before_plan=lambda j: setattr(tr, "plan_id", j))
    finally:
        tr.restore()
    untraced = plan_pass(workload, seed, 0)
    for p in untraced:
        p.pass_index = -1  # marks the untraced replay in the listing
    metrics = tracing.layer_metrics(tr, sum(p.wall_s for p in plans),
                                    sum(p.wall_s for p in untraced))
    return plans + untraced, metrics, tr.spans


def traced_mismatches(plans: list[Plan]) -> int:
    """Queries whose traced and untraced outputs differ."""
    first = {}
    bad = 0
    for p in plans:
        key = (p.query, p.result.status if p.result else p.error, p.digest)
        if p.query in first and first[p.query] != key:
            bad += 1
        first.setdefault(p.query, key)
    return bad


def write_details(out_dir, args, env, plans, metrics, spans) -> None:
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-corpus{args.corpus}-trace{args.trace}"
    doc = {"workload": args.workload, "seed": args.seed, "corpus": args.corpus,
           "trace": args.trace, "seconds": args.seconds, "environment": env,
           "argv": sys.argv,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
           "plans": [{"query": p.query, "pass": p.pass_index,
                      "wall_s": p.wall_s, "verdict": p.verdict,
                      "status": p.result.status if p.result else None,
                      "clearance_m": p.clearance, "sha256": p.digest,
                      "failures": list(p.result.failures) if p.result else [p.error]}
                     for p in plans]}
    (out_dir / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if spans is not None:
        with gzip.open(out_dir / f"{stem}-spans.json.gz", "wt") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "plan"], "spans": spans}, f)
