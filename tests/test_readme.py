"""The README's Python API example runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    length, clear = capsys.readouterr().out.split()
    assert float(length) == pytest.approx(3.0, abs=1e-6)
    assert clear == "True"


def test_readme_run_config_loads_at_the_defaults(tmp_path):
    from se2plan.cli import load_run_config
    from se2plan.pipeline import PlanConfig

    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text(blocks[0])
    config = load_run_config(cfg)
    assert list(config.start) == [0.5, 0.5, 0.0]
    assert config.plan_config == PlanConfig()
