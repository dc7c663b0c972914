#!/usr/bin/env python3
"""Time the analysis phases across growing synthetic sheets.

Each sheet repeats a number-block / sum-column / blank-column stripe
pattern, so cell count scales while the region structure stays
comparable.  Reports per-phase wall time and whether the whole run fits
the interactive budget.
"""

from __future__ import annotations

import argparse
import time

from gridlint.model import CellContent, Workbook, Worksheet, column_to_letters
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="20x25,50x40,100x100,100x200,200x200,400x400",
                        help="comma-separated WxH sheet sizes")
    args = parser.parse_args()

    print(f"{'cells':>8} {'vectors':>9} {'decomp':>9} {'fixes':>9} {'total':>9} {'regions':>8}")
    for token in args.sizes.split(","):
        columns, rows = (int(part) for part in token.lower().split("x"))
        workbook = striped_workbook(columns, rows)
        start = time.perf_counter()
        analysis = analyze_workbook(workbook)
        total = time.perf_counter() - start
        t = analysis.timings
        print(
            f"{analysis.sheets[0].cells:>8}"
            f" {t['vectors'] * 1000:>7.1f}ms"
            f" {t['decomposition'] * 1000:>7.1f}ms"
            f" {t['fixes'] * 1000:>7.1f}ms"
            f" {total * 1000:>7.1f}ms"
            f" {analysis.total_regions():>8}"
        )


if __name__ == "__main__":
    main()
