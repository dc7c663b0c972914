#!/usr/bin/env python3
"""Time the analysis phases across growing synthetic sheets.

Two families of sheets.  Stripes repeat a number-block / sum-column /
blank-column pattern, so cell count scales while the region structure
stays comparable.  Running totals hold numbers in column A and
`=SUM($A$1:A{r})` in column B, so every formula cell has a fingerprint
of its own, as a cumulative column in a ledger does.  Reports per-phase
wall time for each sheet, starting with the load: each workbook is
serialized to its JSON file format and parsed back with
`parse_workbook_json`, which is what `gridlint analyze` spends before
the analysis.

    PYTHONPATH=src python3 scripts/scaling_benchmark.py [--sizes WxH,...] [--totals N,...]
"""

from __future__ import annotations

import argparse
import time

from gridlint.model import CellContent, Workbook, Worksheet, column_to_letters, parse_workbook_json, serialize_workbook
from gridlint.pipeline import analyze_workbook


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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="20x25,50x40,100x100,100x200,200x200,400x400",
                        help="comma-separated WxH stripes sheet sizes")
    parser.add_argument("--totals", default="500,1000,2000,4000",
                        help="comma-separated row counts of running-totals sheets")
    args = parser.parse_args()

    workbooks = []
    for token in args.sizes.split(","):
        columns, rows = (int(part) for part in token.lower().split("x"))
        workbooks.append(striped_workbook(columns, rows))
    workbooks += [running_totals_workbook(int(token)) for token in args.totals.split(",")]

    print(f"{'sheet':<20} {'cells':>8} {'load':>9} {'vectors':>9} {'decomp':>9} {'fixes':>9} {'total':>9} {'regions':>8}")
    for workbook in workbooks:
        text = serialize_workbook(workbook)
        start = time.perf_counter()
        workbook = parse_workbook_json(text)
        load = time.perf_counter() - start
        analysis = analyze_workbook(workbook)
        total = time.perf_counter() - start
        t = analysis.timings
        print(
            f"{workbook.name:<20}"
            f" {analysis.sheets[0].cells:>8}"
            f" {load * 1000:>7.1f}ms"
            f" {t['vectors'] * 1000:>7.1f}ms"
            f" {t['decomposition'] * 1000:>7.1f}ms"
            f" {t['fixes'] * 1000:>7.1f}ms"
            f" {total * 1000:>7.1f}ms"
            f" {analysis.total_regions():>8}",
            flush=True,
        )


if __name__ == "__main__":
    main()
