"""Each script under scripts/ runs to completion on tiny arguments."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridlint
from conftest import ROOT, load_script
from gridlint.model import parse_workbook_json
from gridlint.pipeline import analyze_sheet
from gridlint.vectors import EMPTY_FINGERPRINT, NUMBER_FINGERPRINT, Fingerprint, SheetVectors


def run_script(argv):
    # Without PYTHONPATH: each script finds the repository's src/ itself.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=ROOT,
        env={name: value for name, value in os.environ.items() if name != "PYTHONPATH"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    return proc.stdout


SCALING = ["scaling_benchmark.py", "--sizes", "5x5", "--totals", "5", "--noisy", "4"]


@pytest.mark.parametrize("argv", [
    ["collision_survey.py", "fixtures"],
    ["preprocessing_probe.py", "--trials", "3"],
    SCALING,
])
def test_script_runs(argv):
    run_script(argv)


def test_collision_survey_reads_one_fingerprint_per_formula(monkeypatch):
    """`formulas_with` looks up each formula cell's fingerprint once and
    never builds the mapping of every stored cell, which costs a pass per
    read."""
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
    assert survey.formulas_with(tables, Fingerprint(0, 0, 0, 2)) == 100
    assert len(calls) == 300
    assert survey.formulas_with(tables, Fingerprint(0, 0, 0, 3)) == 100
    assert survey.formulas_with(tables, EMPTY_FINGERPRINT) == survey.formulas_with(tables, NUMBER_FINGERPRINT) == 0


def test_collision_survey_counts_collisions_and_data_like_formulas(tmp_path):
    # C1 and D1 share a fingerprint over different references; the vectors
    # of A3 and B3 cancel, so they take the reserved fingerprint, B3 with
    # its constant flag.
    cells = {"C1": {"f": "=SUM(A1:B1)"}, "D1": {"f": "=ABS(A1)"},
             "A3": {"f": "=A2+A4"}, "B3": {"f": "=B2+B4+1"}}
    path = tmp_path / "mixed.gridbook"
    path.write_text(json.dumps({"workbook": "mixed", "sheets": [{"name": "S", "cells": cells}]}))
    _, row, total = run_script(["collision_survey.py", str(path)]).splitlines()
    name, _, collisions, *_, reserved, reserved_c = row.split()
    assert name == "mixed" and float(collisions.rstrip("%")) > 0
    assert (reserved, reserved_c) == ("1", "1")
    assert total.endswith("reserved fingerprint: 1 without a numeric constant, 1 with one")


def test_scaling_benchmark_times_the_load():
    header, *rows = run_script(SCALING).splitlines()
    assert header.split() == ["sheet", "cells", "load", "vectors", "decomp", "fixes", "total", "regions"]
    assert [row.split()[:2] for row in rows] == [["stripes_5x5", "25"], ["running_totals_5", "10"], ["noisy_4x4", "16"],
                                                 ["sparse_16x65536", "1048576"], ["shuffled_200x200", "40000"]]
    assert all(row.split()[2].endswith("ms") for row in rows)


def test_same_reports_finds_a_tree_equal_to_itself():
    src = str(Path(gridlint.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "same_reports.py"), src, src, "--seeds", "7"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # fixtures/ twice over, and the 57 workload workbooks of seed 7; JSON and text each
    assert "all 138 reports and their exit codes identical (69 variants" in proc.stdout
    # each analysed variant's per-sheet diagnostics, the parser's refusals among them
    assert "all 69 diagnostic lists identical" in proc.stdout
    # one render per workbook: a page per sheet
    assert "all 184 render pages and the eval output identical" in proc.stdout
