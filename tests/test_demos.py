"""The demo scripts and README's python blocks run from a clean working directory."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sparse_ou

DEMOS = Path(__file__).resolve().parents[1] / "demos"
README = DEMOS.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for number, block in enumerate(blocks):
        exec(compile(block, "README.md python block %d" % number, "exec"), {})


@pytest.mark.parametrize("script", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_runs(tmp_path, script):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(sparse_ou.__file__).resolve().parents[1])
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
