import itertools
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from se2plan.cli import (EXIT_CONFIG, EXIT_OK, EXIT_PLAN, ConfigError,
                         format_metrics, load_run_config, main)
from se2plan.gridmap import dump_map
from se2plan.minco import Trajectory

from conftest import empty_grid, grid_from_cells, wall_grid

SHAPE_TEXT = """\
vertex: -0.25 -0.125
vertex: 0.25 -0.125
vertex: 0.25 0.125
vertex: -0.25 0.125
reference: 0 0
"""

CFG_TEMPLATE = """\
[files]
map = {map_name}
shape = robot.shape

[query]
start = 0.5 0.5 0
goal = 2.5 2.5 0

[planner]
roadmap_budget = 120
max_candidates = 1
se2_budget = 100
r2_budget = 60
seed = 0

[weights]
lam_t = 20.0
"""


def fake_clock():
    counter = itertools.count()
    return lambda: next(counter) * 1e-3


def write_scene(tmp_path, grid, name="run.cfg", cfg_text=None):
    (tmp_path / "world.map").write_text(dump_map(grid))
    (tmp_path / "robot.shape").write_text(SHAPE_TEXT)
    cfg = tmp_path / name
    cfg.write_text(cfg_text or CFG_TEMPLATE.format(map_name="world.map"))
    return cfg


def test_plan_success_writes_outputs(tmp_path):
    cfg = write_scene(tmp_path, empty_grid(30))
    out = tmp_path / "out"
    code = main(["plan", str(cfg), "--out", str(out)], clock=fake_clock())
    assert code == EXIT_OK
    metrics = (out / "metrics.txt").read_text()
    for key in ("status", "time.path_refine", "time.r2", "time.se2", "time.certify",
                "time.total", "len.r2", "len.se2", "len.total", "candidates.tried",
                "candidates.survived"):
        assert f"{key} = " in metrics
    assert "status = success" in metrics
    traj = Trajectory.from_text((out / "trajectory.txt").read_text())
    assert traj.dim == 3 and traj.total_duration > 0
    assert not (out / "trajectory.svg").exists()  # rendering is opt-in


def test_plan_failure_exit_code(tmp_path):
    cfg = write_scene(tmp_path, wall_grid(30, wall_ix=15, gaps=()))
    out = tmp_path / "out"
    code = main(["plan", str(cfg), "--out", str(out)], clock=fake_clock())
    assert code == EXIT_PLAN
    assert "status = no-path" in (out / "metrics.txt").read_text()
    assert not (out / "trajectory.txt").exists()


def test_failed_rerun_removes_stale_trajectory(tmp_path):
    ok_dir = tmp_path / "ok"
    bad_dir = tmp_path / "bad"
    ok_dir.mkdir()
    bad_dir.mkdir()
    ok_cfg = write_scene(ok_dir, empty_grid(30))
    bad_cfg = write_scene(bad_dir, wall_grid(30, wall_ix=15, gaps=()))
    out = tmp_path / "out"
    assert main(["plan", str(ok_cfg), "--out", str(out)], clock=fake_clock()) == EXIT_OK
    assert (out / "trajectory.txt").exists()
    assert main(["plan", str(bad_cfg), "--out", str(out)], clock=fake_clock()) == EXIT_PLAN
    assert "status = no-path" in (out / "metrics.txt").read_text()
    assert not (out / "trajectory.txt").exists()


def test_unrendered_rerun_removes_stale_svg(tmp_path):
    ok_dir = tmp_path / "ok"
    bad_dir = tmp_path / "bad"
    ok_dir.mkdir()
    bad_dir.mkdir()
    ok_cfg = write_scene(ok_dir, empty_grid(30))
    bad_cfg = write_scene(bad_dir, wall_grid(30, wall_ix=15, gaps=()))
    out = tmp_path / "out"
    assert main(["plan", str(ok_cfg), "--render", "--out", str(out)],
                clock=fake_clock()) == EXIT_OK
    assert (out / "trajectory.svg").exists()
    assert main(["plan", str(bad_cfg), "--out", str(out)], clock=fake_clock()) == EXIT_PLAN
    assert "status = no-path" in (out / "metrics.txt").read_text()
    assert not (out / "trajectory.svg").exists()


def test_missing_config_exit_code(tmp_path):
    assert main(["plan", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG


def test_garbled_config_exit_code(tmp_path):
    cfg = write_scene(tmp_path, empty_grid(20), cfg_text="not an ini file [[[")
    assert main(["plan", str(cfg)]) == EXIT_CONFIG


def test_config_validation_errors(tmp_path):
    (tmp_path / "robot.shape").write_text(SHAPE_TEXT)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[files]\nmap = world.map\nshape = robot.shape\n"
                   "[query]\nstart = 0.5 0.5 0\ngoal = 2.5 2.5 0\n")
    # missing map file
    assert main(["plan", str(cfg)]) == EXIT_CONFIG
    cfg.write_text("[query]\nstart = 0 0 0\ngoal = 1 1 0\n")
    with pytest.raises(ConfigError):
        load_run_config(cfg)
    cfg.write_text("[files]\nmap = m\nshape = s\n[query]\nstart = 1 2\ngoal = 1 1 0\n")
    with pytest.raises(ConfigError):
        load_run_config(cfg)
    cfg.write_text("[files]\nmap = m\nshape = s\n[query]\nstart = 0 0 0\n"
                   "goal = 1 1 0\n[planner]\nbogus_key = 3\n")
    with pytest.raises(ConfigError):
        load_run_config(cfg)
    # a setting with a fixed value in the planner is not a [planner] key
    cfg.write_text("[files]\nmap = m\nshape = s\n[query]\nstart = 0 0 0\n"
                   "goal = 1 1 0\n[planner]\nrisk_pad = 3\n")
    with pytest.raises(ConfigError):
        load_run_config(cfg)
    # the weights are set in their own [weights] section
    cfg.write_text("[files]\nmap = m\nshape = s\n[query]\nstart = 0 0 0\n"
                   "goal = 1 1 0\n[planner]\nweights = 3\n")
    with pytest.raises(ConfigError, match="unknown planner key 'weights'"):
        load_run_config(cfg)
    # out-of-range limits are configuration errors, not internal ones
    for section, key, bad in (("weights", "v_max", "0"), ("weights", "w_max", "-1"),
                              ("weights", "v_max", "nan"),
                              ("planner", "connection_radius", "0"),
                              ("planner", "connection_radius", "-1"),
                              ("planner", "connection_radius", "nan")):
        cfg.write_text("[files]\nmap = m\nshape = s\n[query]\nstart = 0 0 0\n"
                       f"goal = 1 1 0\n[{section}]\n{key} = {bad}\n")
        with pytest.raises(ConfigError, match=f"{key} must be > 0"):
            load_run_config(cfg)
    # non-finite numbers are configuration errors too, on a scene that plans
    # at finite values
    text = CFG_TEMPLATE.format(map_name="world.map")
    for old, new in (("lam_t = 20.0", "d_safe = nan"),
                     ("start = 0.5 0.5 0", "start = nan 0.5 0"),
                     ("start = 0.5 0.5 0", "start = inf 0.5 0")):
        cfg = write_scene(tmp_path, empty_grid(30), cfg_text=text.replace(old, new))
        assert main(["plan", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    # an R^2 sub's yaw rides a fixed ramp, so there is no heading weight lam_r
    cfg = write_scene(tmp_path, empty_grid(30),
                      cfg_text=text.replace("lam_t = 20.0", "lam_r = 1000.0"))
    with pytest.raises(ConfigError, match="unknown weights key 'lam_r'"):
        load_run_config(cfg)
    assert main(["plan", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    # a negative seed is a configuration error, in the file and on the command line
    cfg = write_scene(tmp_path, empty_grid(30), cfg_text=text.replace("seed = 0", "seed = -1"))
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        load_run_config(cfg)
    assert main(["plan", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    cfg = write_scene(tmp_path, empty_grid(30))
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        load_run_config(cfg, seed=-3)
    assert main(["plan", str(cfg), "--seed", "-3", "--out", str(tmp_path / "out")]) == EXIT_CONFIG


def test_seed_override(tmp_path):
    cfg = write_scene(tmp_path, empty_grid(20))
    config = load_run_config(cfg, seed=7)
    assert config.plan_config.seed == 7
    assert load_run_config(cfg).plan_config.seed == 0


def test_render_svg_structure(tmp_path):
    cells = np.zeros((30, 30), dtype=bool)
    cells[10, 10] = True
    cfg = write_scene(tmp_path, grid_from_cells(cells))
    out = tmp_path / "out"
    code = main(["plan", str(cfg), "--render", "--out", str(out)],
                clock=fake_clock())
    assert code == EXIT_OK
    svg = out / "trajectory.svg"
    root = ET.fromstring(svg.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    assert root.tag == f"{ns}svg"
    traj = Trajectory.from_text((out / "trajectory.txt").read_text())
    paths = root.findall(f"{ns}path")
    assert len(paths) == traj.n_pieces
    # one occupied cell -> at least one dark rect besides the background
    rects = root.findall(f"{ns}rect")
    assert sum(1 for r in rects if r.get("fill") == "#444444") == 1
    assert root.findall(f"{ns}polygon")  # swept outlines are drawn


def test_byte_identical_reruns_with_fixed_clock(tmp_path):
    cfg = write_scene(tmp_path, empty_grid(30))
    outputs = []
    for rep in range(2):
        out = tmp_path / f"out{rep}"
        code = main(["plan", str(cfg), "--render", "--out", str(out)],
                    clock=fake_clock())
        assert code == EXIT_OK
        outputs.append({name: (out / name).read_bytes()
                        for name in ("metrics.txt", "trajectory.txt", "trajectory.svg")})
    assert outputs[0] == outputs[1]


def test_bench_aggregates(tmp_path):
    write_scene(tmp_path, empty_grid(30), name="easy.cfg")
    out = tmp_path / "bench"
    code = main(["bench", str(tmp_path), "--reps", "2", "--out", str(out)],
                clock=fake_clock())
    assert code == EXIT_OK
    text = (out / "bench.txt").read_text()
    assert "easy.success_rate = 1" in text
    for key in ("time.certify", "time.total", "len.total"):
        for stat in ("mean", "min", "max"):
            assert f"easy.{key}.{stat} = " in text
    assert (out / "easy" / "rep0" / "metrics.txt").exists()
    assert (out / "easy" / "rep1" / "metrics.txt").exists()


def test_bench_empty_dir_is_config_error(tmp_path):
    (tmp_path / "empty").mkdir()
    assert main(["bench", str(tmp_path / "empty")]) == EXIT_CONFIG


def test_format_metrics_sorted_and_stable():
    text = format_metrics({"b": 2.0, "a": "ok", "c": 1})
    assert text == "a = ok\nb = 2\nc = 1\n"
