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
