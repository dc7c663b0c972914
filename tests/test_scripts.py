"""Each script under scripts/ runs to completion on tiny arguments."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridlint
from gridlint.model import parse_workbook_json
from gridlint.pipeline import analyze_sheet
from gridlint.vectors import EMPTY_FINGERPRINT, NUMBER_FINGERPRINT, SheetVectors

ROOT = Path(__file__).resolve().parent.parent


def run_script(argv):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(Path(gridlint.__file__).parent.parent)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    return proc.stdout


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCALING = ["scaling_benchmark.py", "--sizes", "5x5", "--totals", "5"]


@pytest.mark.parametrize("argv", [
    ["collision_survey.py", "fixtures"],
    ["preprocessing_probe.py", "--trials", "3"],
    SCALING,
])
def test_script_runs(argv):
    run_script(argv)


def test_collision_survey_reads_one_fingerprint_per_formula(monkeypatch):
    """`data_like` looks up each formula cell's fingerprint once and never
    builds the mapping of every stored cell, which costs a pass per read."""
    survey = load_script("collision_survey")
    formulas = {1: "=B{0}+B{2}+1", 2: "=A{1}", 0: "=B{0}+B{2}"}  # by row % 3
    cells = {f"A{r}": {"n": r} for r in range(1, 301)}
    cells.update({f"B{r}": {"f": formulas[r % 3].format(r - 1, r, r + 1)} for r in range(2, 302)})
    doc = {"workbook": "w", "sheets": [{"name": "S", "cells": cells}]}
    workbook = parse_workbook_json(json.dumps(doc))
    tables = [analyze_sheet(workbook, workbook.sheets[0]).table]
    calls = []
    lookup = SheetVectors.fingerprint
    monkeypatch.setattr(SheetVectors, "fingerprint", lambda self, *cell: calls.append(cell) or lookup(self, *cell))
    monkeypatch.setattr(SheetVectors, "fingerprints", property(lambda self: pytest.fail("mapping built")))
    assert survey.data_like(tables, EMPTY_FINGERPRINT) == 100
    assert len(calls) == 300
    assert survey.data_like(tables, NUMBER_FINGERPRINT) == 100


def test_scaling_benchmark_times_the_load():
    header, *rows = run_script(SCALING).splitlines()
    assert header.split() == ["sheet", "cells", "load", "vectors", "decomp", "fixes", "total", "regions"]
    assert [row.split()[:2] for row in rows] == [["stripes_5x5", "25"], ["running_totals_5", "10"]]
    assert all(row.split()[2].endswith("ms") for row in rows)


def test_same_reports_finds_a_tree_equal_to_itself():
    src = str(Path(gridlint.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "same_reports.py"), src, src, "--seeds", "7"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # fixtures/ twice over, and the 57 workload workbooks of seed 7; JSON and text each
    assert "all 134 reports and their exit codes identical (67 variants" in proc.stdout
