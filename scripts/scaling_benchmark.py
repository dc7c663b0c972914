#!/usr/bin/env python3
"""Time the analysis phases across growing synthetic sheets.

Three families of sheets.  Stripes repeat a number-block / sum-column /
blank-column pattern, so cell count scales while the region structure
stays comparable.  Running totals hold numbers in column A and
`=SUM($A$1:A{r})` in column B, so every formula cell has a fingerprint
of its own, as a cumulative column in a ledger does.  Noisy n x n
sheets are the benchmark's `perfbench/workloads.noisy_book` (seed 7):
numbers with 30% of the cells holding one of four labels, so the
layout has many small regions and many candidate fixes.  Then comes one
sparse sheet: three cells, A1, H30000 and P65536, in a 16 x 65,536 used
range that is almost all blank regions.  Last comes the stripes
200 x 200 sheet again, its addresses written in a shuffled order (seed
7): the vectors pass checks in one pass that a sheet's cells are stored
in row-major order and takes their bounds on the way, and only a sheet
that fails the check, as this one does, is sorted and scanned for its
bounds, so this row keeps that cost next to the ordered one.  Reports
per-phase wall time for each sheet, starting with the load: each
workbook is serialized to its JSON file format and parsed back with
`parse_workbook_json`, which is what `gridlint analyze` spends before
the analysis.  Each sheet is loaded and analysed RUNS times, and each
column is the minimum over those runs: on a shared machine a single
run's phase times scatter by about 30%, the minimum far less.

    python3 scripts/scaling_benchmark.py [--sizes WxH,...] [--totals N,...] [--noisy N,...]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gridlint.model import CellContent, Workbook, Worksheet, column_to_letters, parse_workbook_json, serialize_workbook  # noqa: E402
from gridlint.pipeline import analyze_workbook  # noqa: E402

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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="20x25,50x40,100x100,100x200,200x200,400x400",
                        help="comma-separated WxH stripes sheet sizes")
    parser.add_argument("--totals", default="500,1000,2000,4000,8000",
                        help="comma-separated row counts of running-totals sheets")
    parser.add_argument("--noisy", default="40,80,160",
                        help="comma-separated side lengths of noisy n x n sheets")
    args = parser.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import noisy_book

    workbooks = []
    for token in args.sizes.split(","):
        columns, rows = (int(part) for part in token.lower().split("x"))
        workbooks.append(serialize_workbook(striped_workbook(columns, rows)))
    workbooks += [serialize_workbook(running_totals_workbook(int(token))) for token in args.totals.split(",")]
    for n in (int(token) for token in args.noisy.split(",")):
        workbooks.append(noisy_book(random.Random(7), n, f"noisy_{n}x{n}", mask_seed=n * 100).gridbook())
    workbooks.append(serialize_workbook(sparse_workbook()))
    workbooks.append(shuffled_text(striped_workbook(200, 200), "shuffled_200x200", seed=7))

    print(f"{'sheet':<20} {'cells':>8} {'load':>9} {'vectors':>9} {'decomp':>9} {'fixes':>9} {'total':>9} {'regions':>8}")
    for text in workbooks:
        best = None
        for _ in range(RUNS):
            start = time.perf_counter()
            workbook = parse_workbook_json(text)
            load = time.perf_counter() - start
            analysis = analyze_workbook(workbook)
            t = analysis.timings
            times = (load, t["vectors"], t["decomposition"], t["fixes"], time.perf_counter() - start)
            best = times if best is None else tuple(map(min, best, times))
        print(
            f"{workbook.name:<20}"
            f" {analysis.sheets[0].cells:>8}"
            + "".join(f" {seconds * 1000:>7.1f}ms" for seconds in best)
            + f" {analysis.total_regions():>8}",
            flush=True,
        )


if __name__ == "__main__":
    main()
