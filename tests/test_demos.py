"""The demo scripts run to completion from a clean working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparse_ou

DEMOS = Path(__file__).resolve().parents[1] / "demos"


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
