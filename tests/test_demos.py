"""Smoke test: every narrative demo, and the README quickstart, runs to
completion against the package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def run_script(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    proc = run_script([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_exits_zero(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quickstart\s+```python\n(.*?)```", readme, re.S)
    assert block, "README has no Library quickstart python block"
    proc = run_script(["-c", block.group(1)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "bit errors:" in proc.stdout
