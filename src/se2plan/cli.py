"""Command-line harness: run single plans from config documents or benchmark
a directory of them, emitting metrics documents, trajectory files, and
optional SVG renderings.

Exit codes: 0 success, 2 config/parse error, 3 plan failure, 4 internal error.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .gridmap import MalformedMapError, OccupancyGrid, load_map
from .optimize import Weights
from .pipeline import PlanConfig, PlanResult, plan
from .shape import GeometryError, RobotShape, parse_shape
from .sweep import swept_boundary_samples

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PLAN = 3
EXIT_INTERNAL = 4

_KIND_COLORS = {"SE2": "#d62728", "R2": "#1f77b4", "R2-reoptimized": "#ff7f0e"}
_SVG_SCALE = 120.0  # pixels per metre


class ConfigError(ValueError):
    """Raised for unreadable or malformed run configuration documents."""


@dataclass(frozen=True)
class RunConfig:
    map_path: Path
    shape_path: Path
    start: np.ndarray  # (3,) x, y, yaw
    goal: np.ndarray  # (3,)
    plan_config: PlanConfig
    out_dir: Path
    render: bool = False


def _parse_pose(text: str, label: str) -> np.ndarray:
    parts = text.split()
    if len(parts) != 3:
        raise ConfigError(f"{label} must be 'x y yaw', got {text!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as e:
        raise ConfigError(f"bad {label} pose: {text!r}") from e


def _typed_section(section, cls, label: str):
    """Build a dataclass from a config section using the field types."""
    kwargs = {}
    by_name = {f.name: f for f in fields(cls)}
    for key, raw in section.items():
        if key not in by_name:
            raise ConfigError(f"unknown {label} key {key!r}")
        ftype = by_name[key].type
        try:
            if ftype == "int":
                kwargs[key] = int(raw)
            else:
                kwargs[key] = float(raw)
        except ValueError as e:
            raise ConfigError(f"bad {label} value {key} = {raw!r}") from e
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid {label} section: {e}") from e


def load_run_config(path, out_dir=None, render: bool = False,
                    seed: int | None = None) -> RunConfig:
    path = Path(path)
    parser = configparser.ConfigParser()
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as e:
        raise ConfigError(f"malformed config {path}: {e}") from e
    for section in ("files", "query"):
        if section not in parser:
            raise ConfigError(f"config {path} missing [{section}] section")
    files = parser["files"]
    for key in ("map", "shape"):
        if key not in files:
            raise ConfigError(f"config {path} missing files.{key}")
    base = path.parent
    weights = _typed_section(parser["weights"], Weights, "weights") if "weights" in parser else Weights()
    planner = dict(parser["planner"]) if "planner" in parser else {}
    planner.pop("weights", None)
    plan_section = configparser.ConfigParser()
    plan_section["planner"] = planner
    plan_config = _typed_section(plan_section["planner"], PlanConfig, "planner")
    plan_config = replace(plan_config, weights=weights)
    if seed is not None:
        plan_config = replace(plan_config, seed=seed)
    return RunConfig(
        map_path=base / files["map"],
        shape_path=base / files["shape"],
        start=_parse_pose(parser["query"].get("start", ""), "start"),
        goal=_parse_pose(parser["query"].get("goal", ""), "goal"),
        plan_config=plan_config,
        out_dir=Path(out_dir) if out_dir is not None else base / "out",
        render=render,
    )


def _load_world(config: RunConfig) -> tuple[OccupancyGrid, RobotShape]:
    try:
        grid = load_map(config.map_path.read_text())
    except (OSError, MalformedMapError) as e:
        raise ConfigError(f"cannot load map {config.map_path}: {e}") from e
    try:
        shape = parse_shape(config.shape_path.read_text())
    except (OSError, GeometryError, ValueError) as e:
        raise ConfigError(f"cannot load shape {config.shape_path}: {e}") from e
    return grid, shape


def format_metrics(metrics: dict) -> str:
    lines = []
    for key in sorted(metrics):
        value = metrics[key]
        if isinstance(value, float):
            lines.append(f"{key} = {value:.9g}")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _svg_point(p, ymax: float) -> str:
    return f"{p[0] * _SVG_SCALE:.2f},{(ymax - p[1]) * _SVG_SCALE:.2f}"


def render_svg(grid: OccupancyGrid, shape: RobotShape, result: PlanResult,
               out_path: Path) -> None:
    """Map, the final trajectory (one path element per piece, colored by the
    provenance of its sub-trajectory), and swept robot outlines."""
    scale = _SVG_SCALE
    res = grid.resolution
    w = grid.width * res
    h = grid.height * res
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w * scale:.0f}" '
             f'height="{h * scale:.0f}" viewBox="0 0 {w * scale:.0f} {h * scale:.0f}">',
             f'<rect width="{w * scale:.0f}" height="{h * scale:.0f}" fill="#f8f8f8"/>']
    for center in grid.occupied_centers():
        x = (center[0] - res / 2) * scale
        y = (h - center[1] - res / 2) * scale
        parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{res * scale:.2f}" '
                     f'height="{res * scale:.2f}" fill="#444444"/>')
    traj = result.trajectory
    if traj is not None:
        for outline in swept_boundary_samples(traj, shape, 24):
            pts = " ".join(_svg_point(p, h) for p in outline)
            parts.append(f'<polygon points="{pts}" fill="none" stroke="#bbbbbb" stroke-width="1"/>')
        kind_of_piece = []
        for kind, count in zip(result.provenance, result.piece_counts):
            kind_of_piece.extend([kind] * count)
        start_times = traj.start_times
        for i in range(traj.n_pieces):
            ts = start_times[i] + np.linspace(0.0, traj.durations[i], 33)
            pos = traj.eval_many(ts, order=0)[:, :2]
            color = _KIND_COLORS.get(kind_of_piece[i] if i < len(kind_of_piece) else "R2", "#1f77b4")
            d = "M " + " L ".join(_svg_point(p, h) for p in pos)
            parts.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="2"/>')
    parts.append("</svg>")
    out_path.write_text("\n".join(parts) + "\n")


def run(config: RunConfig, clock=time.perf_counter) -> int:
    """Execute one plan: write metrics.txt, trajectory.txt on success, and
    trajectory.svg when rendering is enabled.  A trajectory.txt or
    trajectory.svg that this run does not write is removed, so out_dir never
    pairs these metrics with an earlier run's outputs.  Returns an exit
    code."""
    grid, shape = _load_world(config)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    result = plan(grid, shape, config.start, config.goal, config.plan_config, clock=clock)
    (config.out_dir / "metrics.txt").write_text(format_metrics(result.metrics))
    traj_path = config.out_dir / "trajectory.txt"
    if result.trajectory is not None:
        traj_path.write_text(result.trajectory.to_text())
    else:
        traj_path.unlink(missing_ok=True)
    svg_path = config.out_dir / "trajectory.svg"
    if config.render:
        render_svg(grid, shape, result, svg_path)
    else:
        svg_path.unlink(missing_ok=True)
    return EXIT_OK if result.status == "success" else EXIT_PLAN


def bench(config_dir, reps: int, out_dir=None, clock=time.perf_counter) -> int:
    """Run every *.cfg in config_dir `reps` times with distinct seeds and
    write aggregate stage-timing statistics plus the success rate."""
    if reps < 1:
        raise ConfigError("reps must be >= 1")
    config_dir = Path(config_dir)
    configs = sorted(config_dir.glob("*.cfg"))
    if not configs:
        raise ConfigError(f"no *.cfg files in {config_dir}")
    out_dir = Path(out_dir) if out_dir is not None else config_dir / "bench_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    aggregate: dict[str, object] = {}
    stat_keys = ("time.path_refine", "time.r2", "time.se2", "time.certify",
                 "time.total", "len.r2", "len.se2", "len.total")
    for cfg_path in configs:
        name = cfg_path.stem
        runs = []
        successes = 0
        for rep in range(reps):
            config = load_run_config(cfg_path, out_dir=out_dir / name / f"rep{rep}",
                                     seed=rep)
            grid, shape = _load_world(config)
            result = plan(grid, shape, config.start, config.goal,
                          config.plan_config, clock=clock)
            config.out_dir.mkdir(parents=True, exist_ok=True)
            (config.out_dir / "metrics.txt").write_text(format_metrics(result.metrics))
            runs.append(result.metrics)
            if result.certificate is not None and result.certificate.clear:
                successes += 1
        for key in stat_keys:
            values = np.array([m[key] for m in runs])
            aggregate[f"{name}.{key}.mean"] = float(values.mean())
            aggregate[f"{name}.{key}.min"] = float(values.min())
            aggregate[f"{name}.{key}.max"] = float(values.max())
        aggregate[f"{name}.success_rate"] = successes / reps
    (out_dir / "bench.txt").write_text(format_metrics(aggregate))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="se2plan",
                                     description="Whole-body SE(2) planner harness")
    sub = parser.add_subparsers(dest="command", required=True)
    p_plan = sub.add_parser("plan", help="run one plan from a config document")
    p_plan.add_argument("config")
    p_plan.add_argument("--render", action="store_true")
    p_plan.add_argument("--seed", type=int, default=None)
    p_plan.add_argument("--out", default=None)
    p_bench = sub.add_parser("bench", help="benchmark a directory of configs")
    p_bench.add_argument("config_dir")
    p_bench.add_argument("--reps", type=int, default=1)
    p_bench.add_argument("--out", default=None)
    return parser


def main(argv=None, clock=time.perf_counter) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "plan":
            config = load_run_config(args.config, out_dir=args.out,
                                     render=args.render, seed=args.seed)
            return run(config, clock=clock)
        return bench(args.config_dir, reps=args.reps, out_dir=args.out, clock=clock)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001 - harness boundary
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
