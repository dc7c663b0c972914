#!/usr/bin/env python3
"""Time the analysis phases across growing synthetic sheets.

Four families of sheets.  Stripes repeat a number-block / sum-column /
blank-column pattern, so cell count scales while the region structure
stays comparable; the wide, five-row ones (2000x5, 4000x5) hold
thousands of delimiter runs side by side.  Running totals hold numbers
in column A and `=SUM($A$1:A{r})` in column B, so every formula cell
has a fingerprint of its own, as a cumulative column in a ledger does.
Ledgers hold numbers in column A and, in column B, `=A{r}`,
`=A{r}+A{r+1}` and `=SUM(A{r}:A{r+2})` in turn: three fingerprints in
a cycle beside a uniform column, which the entropy tree peels off one
cell per node (`entropy._line_cut`), so the row grows with the square
of its length.
Noisy n x n sheets are the benchmark's `perfbench/workloads.noisy_book`
(seed 7): numbers with 30% of the cells holding one of four labels, so
the layout has many small regions and many candidate fixes.  Crossed
n x n sheets are n x n stripes whose middle row is blank: the blank
columns and that row are delimiter runs on both axes, so the delimiter
pass searches piece after piece, each search cutting the next stripe's
number and sum columns, or its blank column, off the side of what is
left.  Then comes one
sparse sheet: three cells, A1, H30000 and P65536, in a 16 x 65,536 used
range that is almost all blank regions.  Last comes the stripes
200 x 200 sheet again, its addresses written in a shuffled order (seed
7): the vectors pass checks in one pass that a sheet's cells are stored
in row-major order and takes their bounds on the way, and only a sheet
that fails the check, as this one does, is sorted and scanned for its
bounds, so this row keeps that cost next to the ordered one.  Reports
per-phase CPU time (`time.process_time`) for each sheet, starting with
the load: each workbook is serialized to its JSON file format and
parsed back with `parse_workbook_json`, which is what `gridlint analyze`
spends before the analysis.  The phases run as `analyze_workbook` runs
them, with the cyclic garbage collector paused.  The `delim` column is
the part of the decomposition spent in `entropy.delimiter_splits`,
timed by wrapping that module attribute while `decompose_grid` runs.
Each sheet is loaded and analysed RUNS times, and each column is the
minimum over those runs.  The runs are interleaved: every sheet runs
once, then every sheet again, so a slow stretch of a shared machine
touches one run of several sheets rather than every run of one sheet.

    python3 scripts/scaling_benchmark.py [--sizes WxH,...] [--totals N,...] [--ledger N,...] [--noisy N,...]
        [--crossed N,...]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gridlint import entropy  # noqa: E402
from gridlint.entropy import decompose_grid  # noqa: E402
from gridlint.fixes import build_fixes  # noqa: E402
from gridlint.model import (  # noqa: E402
    CellContent, Workbook, Worksheet, collector_paused, column_to_letters, parse_workbook_json, serialize_workbook,
)
from gridlint.vectors import analyze_sheet_vectors  # noqa: E402

RUNS = 3


def striped_workbook(columns: int, rows: int) -> Workbook:
    cells = {}
    for col in range(1, columns + 1):
        role = (col - 1) % 5
        for row in range(1, rows + 1):
            if role < 3:
                cells[(col, row)] = CellContent.number(float((col * 7 + row * 3) % 50 + 1))
            elif role == 3:
                first = column_to_letters(col - 3)
                last = column_to_letters(col - 1)
                cells[(col, row)] = CellContent.formula(f"=SUM({first}{row}:{last}{row})")
    cells[(columns, rows)] = CellContent.number(1.0)
    return Workbook(f"stripes_{columns}x{rows}", [Worksheet("Sheet1", cells)])


def running_totals_workbook(rows: int) -> Workbook:
    cells = {}
    for row in range(1, rows + 1):
        cells[(1, row)] = CellContent.number(float(row * 7 % 99 + 1))
        cells[(2, row)] = CellContent.formula(f"=SUM($A$1:A{row})")
    return Workbook(f"running_totals_{rows}", [Worksheet("Sheet1", cells)])


def ledger_workbook(rows: int) -> Workbook:
    formulas = ("=A{0}", "=A{0}+A{1}", "=SUM(A{0}:A{2})")
    cells = {}
    for row in range(1, rows + 1):
        cells[(1, row)] = CellContent.number(float(row * 7 % 99 + 1))
        cells[(2, row)] = CellContent.formula(formulas[(row - 1) % 3].format(row, row + 1, row + 2))
    return Workbook(f"ledger_{rows}", [Worksheet("Sheet1", cells)])


def crossed_workbook(n: int) -> Workbook:
    """Stripes n x n with the middle row left blank."""
    middle = n // 2 + 1
    cells = {cell: content for cell, content in striped_workbook(n, n).sheets[0].cells.items() if cell[1] != middle}
    return Workbook(f"crossed_{n}x{n}", [Worksheet("Sheet1", cells)])


def sparse_workbook() -> Workbook:
    cells = {(1, 1): CellContent.number(1.0), (8, 30_000): CellContent.formula("=A1"),
             (16, 65_536): CellContent.number(2.0)}
    return Workbook("sparse_16x65536", [Worksheet("Sheet1", cells)])


def shuffled_text(workbook: Workbook, name: str, seed: int) -> str:
    """The workbook's JSON file format under another name, each sheet's
    addresses in a shuffled order."""
    doc = json.loads(serialize_workbook(workbook))
    doc["workbook"] = name
    rng = random.Random(seed)
    for sheet in doc["sheets"]:
        cells = list(sheet["cells"].items())
        rng.shuffle(cells)
        sheet["cells"] = dict(cells)
    return json.dumps(doc, indent=2) + "\n"


@collector_paused
def phase_times(text: str) -> tuple[str, int, int, tuple[float, ...]]:
    """(workbook name, cells, regions, CPU seconds of the load, vectors,
    decomposition, its delimiter pass, fixes and all four) for a one-sheet
    workbook's JSON."""
    clock = time.process_time
    splits = entropy.delimiter_splits
    delim = []

    def timed_splits(*args, **kwargs):
        begin = clock()
        pieces = splits(*args, **kwargs)
        delim.append(clock() - begin)
        return pieces

    start = clock()
    workbook = parse_workbook_json(text)
    loaded = clock()
    table = analyze_sheet_vectors(workbook, workbook.sheets[0])
    vectored = clock()
    entropy.delimiter_splits = timed_splits
    try:
        regions = decompose_grid(table.grid)
    finally:
        entropy.delimiter_splits = splits
    decomposed = clock()
    build_fixes(table, regions, table.rect.area)
    done = clock()
    times = (loaded - start, vectored - loaded, decomposed - vectored, sum(delim), done - decomposed, done - start)
    return workbook.name, table.rect.area, len(regions), times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="20x25,50x40,100x100,100x200,200x200,400x400,2000x5,4000x5",
                        help="comma-separated WxH stripes sheet sizes")
    parser.add_argument("--totals", default="500,1000,2000,4000,8000",
                        help="comma-separated row counts of running-totals sheets")
    parser.add_argument("--ledger", default="750,1500",
                        help="comma-separated row counts of ledger sheets")
    parser.add_argument("--noisy", default="40,80,160",
                        help="comma-separated side lengths of noisy n x n sheets")
    parser.add_argument("--crossed", default="100,200,400",
                        help="comma-separated side lengths of crossed n x n stripes")
    args = parser.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import noisy_book

    workbooks = []
    for token in args.sizes.split(","):
        columns, rows = (int(part) for part in token.lower().split("x"))
        workbooks.append(serialize_workbook(striped_workbook(columns, rows)))
    workbooks += [serialize_workbook(running_totals_workbook(int(token))) for token in args.totals.split(",")]
    workbooks += [serialize_workbook(ledger_workbook(int(token))) for token in args.ledger.split(",")]
    for n in (int(token) for token in args.noisy.split(",")):
        workbooks.append(noisy_book(random.Random(7), n, f"noisy_{n}x{n}", mask_seed=n * 100).gridbook())
    workbooks += [serialize_workbook(crossed_workbook(int(token))) for token in args.crossed.split(",")]
    workbooks.append(serialize_workbook(sparse_workbook()))
    workbooks.append(shuffled_text(striped_workbook(200, 200), "shuffled_200x200", seed=7))

    # Every sheet runs once, then every sheet again, RUNS times.
    runs = [[phase_times(text) for text in workbooks] for _ in range(RUNS)]
    columns = ("load", "vectors", "decomp", "delim", "fixes", "total")
    print(f"{'sheet':<20} {'cells':>8}" + "".join(f" {column:>9}" for column in columns) + f" {'regions':>8}")
    for results in zip(*runs):
        name, cells, regions, _ = results[0]
        best = map(min, *(times for *_, times in results))
        print(f"{name:<20} {cells:>8}" + "".join(f" {seconds * 1000:>7.1f}ms" for seconds in best) + f" {regions:>8}")


if __name__ == "__main__":
    main()
