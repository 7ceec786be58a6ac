"""Outside-in tracing: spans around calls into the planner's modules.

The wrappers are installed on the module attributes where callers look the
functions up (for example `se2plan.pipeline.build_roadmap`, the name
`pipeline.plan` calls) and removed again afterwards, so the planner's source is
untouched and an untraced run executes none of this code.  Each span records
its name, start, end, parent span and plan id; spans stay in memory until the
run ends.  Only calls made during a plan are recorded.  A few wrappers also
read counts off the return value, such as the edges of a roadmap or the
iterations of a solve.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, plan id]
        self.counts: Counter = Counter()
        # set by the caller before each plan; cleared when the plan's
        # outermost span ends, so that the benchmark's own calls between
        # plans (building the next plan's inputs) are not recorded
        self.plan_id = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name, fn, observe=None):
        """fn wrapped in a span.  name is a string or a function of the call
        arguments; observe(counts, args, result) reads counts off a call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.plan_id is None:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            span = [label, time.perf_counter(), 0.0,
                    tracer._stack[-1] if tracer._stack else -1, tracer.plan_id]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if not tracer._stack:
                    tracer.plan_id = None
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name, observe=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self):
        """Per span name: (calls, total seconds, self seconds).  Self time is
        a span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        return calls, total, own

    def child_calls(self, name: str, parent_name: str) -> int:
        return sum(1 for s in self.spans
                   if s[0] == name and s[3] >= 0 and self.spans[s[3]][0] == parent_name)


def _se2_label(args, kwargs):
    sub = args[0] if args else kwargs["sub"]
    # a sub of kind R2 reaches se2_optimize only as a certify-and-repair re-solve
    return "optimize.se2_optimize." + ("window" if sub.kind == "SE2" else "repair")


def _observe_roadmap(counts, args, roadmap):
    counts["topo.roadmap.edges"] += sum(len(a) for a in roadmap.adjacency) // 2


def _observe_dedup(counts, args, kept):
    counts["topo.paths.in"] += len(args[0])
    counts["topo.paths.kept"] += len(kept)


def _observe_sequence(counts, args, seq):
    counts["sequence.states"] += len(seq.states)
    counts["sequence.high_risk_states"] += sum(r == "HighRisk" for r in seq.risks)


def _observe_subproblems(counts, args, subs):
    for sub in subs:
        counts["sequence.subproblems." + sub.kind.lower()] += 1


def _observe_solve(kind):
    def observe(counts, args, out):
        counts[f"optimize.{kind}.iterations"] += out.iterations
        counts[f"optimize.{kind}.converged"] += bool(out.converged)
        counts[f"optimize.{kind}.collision_free"] += bool(out.collision_free)
    return observe


def _observe_check(counts, args, report):
    counts["sweep.continuous_check.clear"] += report.clear


def _observe_sdf(counts, args, result):
    q = args[1]
    counts["shape.polygon_sdf_gradient.points"] += max(getattr(q, "size", 2) // 2, 1)


def _observe_plan(counts, args, result):
    counts["pipeline.candidates.tried"] += result.metrics["candidates.tried"]
    counts["pipeline.candidates.survived"] += result.metrics["candidates.survived"]


def install(tracer: Tracer, se2plan) -> None:
    """Wrap the planner's layer boundaries where their callers look them up."""
    pipeline, optimize = se2plan.pipeline, se2plan.optimize
    tracer.patch(pipeline, "plan", "pipeline.plan", _observe_plan)
    tracer.patch(pipeline, "build_kernel", "shape.build_kernel")
    tracer.patch(pipeline, "inflate", "gridmap.inflate")
    tracer.patch(pipeline, "build_roadmap", "topo.build_roadmap", _observe_roadmap)
    tracer.patch(pipeline, "extract_paths", "topo.extract_paths")
    tracer.patch(pipeline, "simplify_path", "topo.simplify_path")
    tracer.patch(pipeline, "dedup_paths", "topo.dedup_paths", _observe_dedup)
    tracer.patch(pipeline, "shortcut", "topo.shortcut")
    tracer.patch(pipeline, "generate_sequence", "sequence.generate_sequence",
                 _observe_sequence)
    tracer.patch(pipeline, "extract_subproblems", "sequence.extract_subproblems",
                 _observe_subproblems)
    tracer.patch(pipeline, "r2_optimize", "optimize.r2_optimize", _observe_solve("r2"))
    tracer.patch(pipeline, "se2_optimize", _se2_label, _observe_solve("se2"))
    tracer.patch(pipeline, "continuous_check", "sweep.continuous_check.certify",
                 _observe_check)
    tracer.patch(optimize, "continuous_check", "sweep.continuous_check.accept",
                 _observe_check)
    tracer.patch(optimize, "se2_cost", "optimize.se2_cost")
    tracer.patch(optimize, "r2_cost", "optimize.r2_cost")
    tracer.patch(se2plan.topo, "is_visible", "gridmap.is_visible")
    tracer.patch(se2plan.shape, "polygon_sdf_gradient", "shape.polygon_sdf_gradient",
                 _observe_sdf)
    tracer.patch(se2plan.minco.MincoSpline, "set_params", "minco.set_params")
    tracer.patch(se2plan.minco.MincoSpline, "gradients", "minco.gradients")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.  Times
    and counts are totals over the pass."""
    calls, total, own = tracer.totals()
    n = tracer.counts
    pairs = tracer.child_calls("gridmap.is_visible", "topo.build_roadmap")
    se2_calls = calls["optimize.se2_optimize.window"] + calls["optimize.se2_optimize.repair"]
    checks = calls["sweep.continuous_check.accept"] + calls["sweep.continuous_check.certify"]
    out = {
        "pipeline.plan.s": (total["pipeline.plan"], "s"),
        "pipeline.plan.self_s": (own["pipeline.plan"], "s"),
        "pipeline.candidates.tried": (n["pipeline.candidates.tried"], "count"),
        "pipeline.candidates.survived": (n["pipeline.candidates.survived"], "count"),
        "pipeline.repair.count": (calls["optimize.se2_optimize.repair"], "count"),
        "topo.build_roadmap.s": (total["topo.build_roadmap"], "s"),
        "topo.build_roadmap.self_s": (own["topo.build_roadmap"], "s"),
        "topo.roadmap.pairs": (pairs, "count"),
        "topo.roadmap.edges": (n["topo.roadmap.edges"], "count"),
        "topo.edge_accept_ratio": (_ratio(n["topo.roadmap.edges"], pairs), "ratio"),
        "topo.extract_paths.s": (total["topo.extract_paths"], "s"),
        "topo.simplify_path.s": (total["topo.simplify_path"], "s"),
        "topo.dedup_paths.s": (total["topo.dedup_paths"], "s"),
        "topo.paths.kept_ratio": (_ratio(n["topo.paths.kept"], n["topo.paths.in"]), "ratio"),
        "topo.shortcut.s": (total["topo.shortcut"], "s"),
        "gridmap.is_visible.calls": (calls["gridmap.is_visible"], "count"),
        "gridmap.is_visible.us": (
            1e6 * _ratio(total["gridmap.is_visible"], calls["gridmap.is_visible"]), "us"),
        "gridmap.inflate.s": (total["gridmap.inflate"], "s"),
        "shape.build_kernel.s": (total["shape.build_kernel"], "s"),
        "shape.polygon_sdf_gradient.calls": (calls["shape.polygon_sdf_gradient"], "count"),
        "shape.polygon_sdf_gradient.points": (n["shape.polygon_sdf_gradient.points"], "count"),
        "shape.polygon_sdf_gradient.ns_per_point": (
            1e9 * _ratio(total["shape.polygon_sdf_gradient"],
                         n["shape.polygon_sdf_gradient.points"]), "ns"),
        "sequence.generate_sequence.s": (total["sequence.generate_sequence"], "s"),
        "sequence.states": (n["sequence.states"], "count"),
        "sequence.high_risk_states": (n["sequence.high_risk_states"], "count"),
        "sequence.subproblems.se2": (n["sequence.subproblems.se2"], "count"),
        "sequence.subproblems.r2": (n["sequence.subproblems.r2"], "count"),
        "minco.set_params.calls": (calls["minco.set_params"], "count"),
        "minco.set_params.us": (
            1e6 * _ratio(total["minco.set_params"], calls["minco.set_params"]), "us"),
        "minco.gradients.calls": (calls["minco.gradients"], "count"),
        "minco.gradients.us": (
            1e6 * _ratio(total["minco.gradients"], calls["minco.gradients"]), "us"),
        "optimize.r2_optimize.s": (total["optimize.r2_optimize"], "s"),
        "optimize.r2_optimize.calls": (calls["optimize.r2_optimize"], "count"),
        "optimize.r2.iterations": (n["optimize.r2.iterations"], "count"),
        "optimize.r2.converged_ratio": (
            _ratio(n["optimize.r2.converged"], calls["optimize.r2_optimize"]), "ratio"),
        "optimize.r2_cost.evals": (calls["optimize.r2_cost"], "count"),
        "optimize.r2_cost.us": (
            1e6 * _ratio(total["optimize.r2_cost"], calls["optimize.r2_cost"]), "us"),
        "optimize.se2_optimize.window.s": (total["optimize.se2_optimize.window"], "s"),
        "optimize.se2_optimize.window.calls": (calls["optimize.se2_optimize.window"], "count"),
        "optimize.se2_optimize.repair.s": (total["optimize.se2_optimize.repair"], "s"),
        "optimize.se2_optimize.repair.calls": (calls["optimize.se2_optimize.repair"], "count"),
        "optimize.se2.iterations": (n["optimize.se2.iterations"], "count"),
        "optimize.se2.collision_free_ratio": (
            _ratio(n["optimize.se2.collision_free"], se2_calls), "ratio"),
        "optimize.se2_cost.evals": (calls["optimize.se2_cost"], "count"),
        "optimize.se2_cost.us": (
            1e6 * _ratio(total["optimize.se2_cost"], calls["optimize.se2_cost"]), "us"),
        "sweep.continuous_check.accept.calls": (calls["sweep.continuous_check.accept"], "count"),
        "sweep.continuous_check.accept.s": (total["sweep.continuous_check.accept"], "s"),
        "sweep.continuous_check.certify.calls": (
            calls["sweep.continuous_check.certify"], "count"),
        "sweep.continuous_check.certify.s": (total["sweep.continuous_check.certify"], "s"),
        "sweep.continuous_check.clear_ratio": (
            _ratio(n["sweep.continuous_check.clear"], checks), "ratio"),
        "trace.overhead_ratio": (_ratio(traced_s, untraced_s), "ratio"),
    }
    return out
