#!/usr/bin/env python3
"""Survey fingerprint aliasing and cluster shapes across workbooks.

For each .gridbook file, given directly or found in a given directory,
this reports the fingerprint collision rate (fraction of same-fingerprint
formula pairs whose underlying reference vector sets actually differ)
and the share of fingerprint clusters that form solid rectangles,
overall and for formula-only clusters.  Low
collision and high rectangularity are what make fingerprints a usable
proxy for formula-shape equality on real sheets.

It also counts the formula cells whose reference vectors cancel to the
fingerprint of a blank cell (`=A1+A3` in A2) or of a number cell
(`=B1+B3+1` in B2): the decomposition cannot tell those from data.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from gridlint.evaluate import collision_rate, rectangularity_stats
from gridlint.model import CellKind, load_workbook
from gridlint.pipeline import analyze_sheet
from gridlint.vectors import EMPTY_FINGERPRINT, NUMBER_FINGERPRINT


def data_like(tables, fingerprint) -> int:
    """Formula cells whose fingerprint is that of a data cell."""
    return sum(
        1
        for table in tables
        for key, kind in table.kinds.items()
        if kind is CellKind.FORMULA and table.fingerprint(*key) == fingerprint
    )


def survey(path: Path) -> tuple[float, str, str, int, int, int]:
    workbook = load_workbook(path)
    tables = [
        analyze_sheet(workbook, sheet).table
        for sheet in workbook.sheets
        if sheet.cells
    ]
    rate = collision_rate(tables)
    frac_all, frac_formula = rectangularity_stats(tables)
    fmt = lambda v: "n/a" if v is None else f"{100 * v:.1f}%"
    cells = sum(t.rect.area for t in tables)
    return (rate, fmt(frac_all), fmt(frac_formula), cells,
            data_like(tables, EMPTY_FINGERPRINT), data_like(tables, NUMBER_FINGERPRINT))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths", nargs="*", type=Path,
        default=sorted(Path(__file__).resolve().parent.parent.glob("fixtures/*.gridbook")),
        help="workbook files or directories of them (default: the bundled fixtures)",
    )
    args = parser.parse_args()
    paths = [f for p in args.paths for f in (sorted(p.glob("*.gridbook")) if p.is_dir() else [p])]

    print(f"{'workbook':<24} {'cells':>6} {'collisions':>10} {'rect(all)':>10} {'rect(formula)':>14}"
          f" {'as blank':>9} {'as number':>10}")
    blank = number = 0
    for path in paths:
        rate, frac_all, frac_formula, cells, as_blank, as_number = survey(path)
        blank += as_blank
        number += as_number
        print(f"{path.stem:<24} {cells:>6} {100 * rate:>9.2f}% {frac_all:>10} {frac_formula:>14}"
              f" {as_blank:>9} {as_number:>10}")
    print(f"formula cells with a blank cell's fingerprint: {blank}, with a number cell's: {number}")


if __name__ == "__main__":
    main()
