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
    ["scaling_benchmark.py", "--sizes", "5x5", "--totals", "5"],
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


def test_same_reports_finds_a_tree_equal_to_itself():
    src = str(Path(gridlint.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "same_reports.py"), src, src, "--seeds", "7"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # fixtures/ twice over, and the 57 workload workbooks of seed 7; JSON and text each
    assert "all 134 reports and their exit codes identical (67 variants" in proc.stdout
