"""Each script under scripts/ runs to completion on tiny arguments."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridlint

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["collision_survey.py", "fixtures"],
    ["preprocessing_probe.py", "--trials", "3"],
    ["scaling_benchmark.py", "--sizes", "5x5"],
])
def test_script_runs(argv):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(Path(gridlint.__file__).parent.parent)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
