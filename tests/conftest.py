"""Shared builders for the test suite."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

from gridlint.grid import FingerprintGrid
from gridlint.model import CellContent, Workbook, Worksheet

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def load_script(name):
    """The module of scripts/<name>.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def inconsistent_sum_workbook() -> Workbook:
    """Minimal 30-cell sheet: B6:E11 numbers, F6 sums one column too many,
    F7:F11 sum the consistent three-column shape."""
    cells = {}
    values = [
        [12, 7, 5, 9],
        [8, 11, 6, 4],
        [10, 9, 7, 12],
        [6, 5, 9, 8],
        [11, 4, 10, 7],
        [9, 12, 8, 5],
    ]
    for i, row in enumerate(range(6, 12)):
        for j, col in enumerate(range(2, 6)):
            cells[(col, row)] = CellContent.number(float(values[i][j]))
    cells[(6, 6)] = CellContent.formula("=SUM(B6:E6)")
    for row in range(7, 12):
        cells[(6, row)] = CellContent.formula(f"=SUM(B{row}:D{row})")
    return Workbook("inconsistent_sum", [Worksheet("Totals", cells)])


def aggregate_own_inputs_workbook() -> Workbook:
    """C5:C9 numbers with their column sum right below in C10."""
    cells = {(3, row): CellContent.number(float(row)) for row in range(5, 10)}
    cells[(3, 10)] = CellContent.formula("=SUM(C5:C9)")
    return Workbook("column_sum", [Worksheet("Data", cells)])


def label_grid(rows) -> FingerprintGrid:
    return FingerprintGrid(rows)


def random_label_grid(rng: random.Random, max_side: int = 8, max_labels: int = 4) -> FingerprintGrid:
    width = rng.randint(1, max_side)
    height = rng.randint(1, max_side)
    labels = "ABCD"[: rng.randint(1, max_labels)]
    return FingerprintGrid(
        [[rng.choice(labels) for _ in range(width)] for _ in range(height)]
    )


def banded_tile_grid(rng: random.Random) -> FingerprintGrid:
    """Solid distinct-label tiles in 2-3 bands per axis, blank lines of
    width 1-2 between bands.  The class on which delimiter preprocessing
    provably commutes with plain decomposition."""
    def bands(n_bands):
        widths, seps = [], []
        for i in range(n_bands):
            widths.append(rng.randint(3, 6))
            if i < n_bands - 1:
                seps.append(rng.randint(1, 2))
        return widths, seps

    kx, ky = rng.randint(2, 3), rng.randint(2, 3)
    ws, vseps = bands(kx)
    hs, hseps = bands(ky)
    width = sum(ws) + sum(vseps)
    height = sum(hs) + sum(hseps)
    rows = [["E"] * width for _ in range(height)]
    tile = 0
    x0 = 1
    for bx in range(kx):
        y0 = 1
        for by in range(ky):
            tile += 1
            for y in range(y0, y0 + hs[by]):
                rows[y - 1][x0 - 1:x0 - 1 + ws[bx]] = [f"T{tile}"] * ws[bx]
            y0 += hs[by] + (hseps[by] if by < ky - 1 else 0)
        x0 += ws[bx] + (vseps[bx] if bx < kx - 1 else 0)
    return FingerprintGrid(rows)


def banded_tile_workbook(rng: random.Random, name: str = "banded") -> Workbook:
    """Same tile layout as banded_tile_grid but as a real workbook: each
    tile holds one distinct absolute-anchor formula, separators blank."""
    grid = banded_tile_grid(rng)
    cells = {}
    for y in range(1, grid.height + 1):
        for x in range(1, grid.width + 1):
            label = grid.fingerprint_at(x, y)
            if label == "E":
                continue
            anchor_row = int(label[1:]) + 50
            cells[(x, y)] = CellContent.formula(f"=$AA${anchor_row}")
    return Workbook(name, [Worksheet("Sheet1", cells)])


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES
