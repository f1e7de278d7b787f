"""Every demo, and the README's library quick start, runs to completion from
a clean working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(script, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_demos_found():
    assert DEMOS  # an empty list would silently skip test_demo_runs


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    _run(demo, tmp_path)


def test_readme_quick_start_runs(tmp_path):
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "import kgwell" in block
    script = tmp_path / "quick_start.py"
    script.write_text(block)
    _run(script, tmp_path)
