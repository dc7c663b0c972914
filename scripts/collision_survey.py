#!/usr/bin/env python3
"""Survey fingerprint aliasing and cluster shapes across workbooks.

For each .gridbook file, given directly or found in a given directory,
this reports the fingerprint collision rate (fraction of same-fingerprint
formula pairs whose underlying reference vector sets actually differ)
and the share of fingerprint clusters that form solid rectangles,
overall and for formula-only clusters.  Low
collision and high rectangularity are what make fingerprints a usable
proxy for formula-shape equality on real sheets.

It also counts the formula cells whose reference vectors sum to
(0, 0, 0), such as `=A1+A3` in A2 or `=B1+B3+1` in B2, and so take the
reserved fingerprint (0, 0, 0, 2 + flag) rather than a data cell's:
without a numeric constant (flag 0) and with one (flag 1).

The statistics are defined here, not in `gridlint`: the analysis reads
none of them.  Each reads the sheets' vector tables alone.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gridlint.model import CellKind, load_workbook  # noqa: E402
from gridlint.vectors import Fingerprint, SheetVectors, analyze_sheet_vectors, offset_box  # noqa: E402


def _connected_clusters(table: SheetVectors) -> list[tuple[frozenset, tuple]]:
    """Maximal edge-connected same-fingerprint cell sets, skipping blanks.

    Returns (cells, fingerprint) pairs; deterministic order."""
    rect = table.rect
    seen: set[tuple[int, int]] = set()
    clusters: list[tuple[frozenset, tuple]] = []
    for y in range(rect.top, rect.bottom + 1):
        for x in range(rect.left, rect.right + 1):
            if (x, y) in seen or table.kind(x, y) is CellKind.EMPTY:
                continue
            fp = table.fingerprint(x, y)
            stack = [(x, y)]
            members = set()
            while stack:
                cx, cy = stack.pop()
                if (cx, cy) in members:
                    continue
                members.add((cx, cy))
                for nx, ny in ((cx + 1, cy), (cx - 1, cy), (cx, cy + 1), (cx, cy - 1)):
                    if (rect.contains(nx, ny) and (nx, ny) not in members
                            and table.kind(nx, ny) is not CellKind.EMPTY and table.fingerprint(nx, ny) == fp):
                        stack.append((nx, ny))
            seen |= members
            clusters.append((frozenset(members), fp))
    return clusters


def _is_rectangular(cells: frozenset) -> bool:
    columns, rows = zip(*cells)
    return (max(columns) - min(columns) + 1) * (max(rows) - min(rows) + 1) == len(cells)


def rectangularity_stats(tables: Sequence[SheetVectors]) -> tuple[Optional[float], Optional[float]]:
    """(rectangular fraction of all content clusters, of formula-only
    clusters); None when a denominator is empty."""
    all_total = all_rect = 0
    formula_total = formula_rect = 0
    for table in tables:
        for cells, _fp in _connected_clusters(table):
            rectangular = _is_rectangular(cells)
            all_total += 1
            all_rect += rectangular
            if all(table.kind(x, y) is CellKind.FORMULA for x, y in cells):
                formula_total += 1
                formula_rect += rectangular
    frac_all = all_rect / all_total if all_total else None
    frac_formula = formula_rect / formula_total if formula_total else None
    return frac_all, frac_formula


def _union_key(boxes: Sequence[tuple[int, int, int, int, int]]) -> tuple:
    """Canonical form of a union of integer boxes (z, x0, y0, x1, y1), bounds
    inclusive: per z, the maximal runs of rows that cover the same merged
    x-intervals.  Two unions hold the same points exactly when their keys
    are equal, without listing the points."""
    key = []
    for z in sorted({b[0] for b in boxes}):
        layer = [b for b in boxes if b[0] == z]
        edges = sorted({b[2] for b in layer} | {b[4] + 1 for b in layer})
        bands: list[tuple[int, int, tuple]] = []
        for y0, y_end in zip(edges, edges[1:]):
            merged: list[list[int]] = []
            for x0, x1 in sorted((b[1], b[3]) for b in layer if b[2] <= y0 <= b[4]):
                if merged and x0 <= merged[-1][1] + 1:
                    merged[-1][1] = max(merged[-1][1], x1)
                else:
                    merged.append([x0, x1])
            spans = tuple(map(tuple, merged))
            if bands and bands[-1][1] == y0 - 1 and bands[-1][2] == spans:
                bands[-1] = (bands[-1][0], y_end - 1, spans)
            elif spans:
                bands.append((y0, y_end - 1, spans))
        key.append((z, tuple(bands)))
    return tuple(key)


def collision_rate(tables: Sequence[SheetVectors]) -> float:
    """Fraction of same-fingerprint formula pairs whose reference-vector
    sets differ (the fingerprint sum hides a real shape difference).

    A reference's vectors fill a box (vectors.offset_box); each cell's set
    is compared through the canonical form of the union of its boxes.  The
    pairs that differ are the same-fingerprint pairs less the same-set ones."""
    by_fingerprint: Counter = Counter()
    by_set: Counter = Counter()
    for table in tables:
        for cell, rects in table.refs.items():
            fingerprint = table.fingerprint(*cell)
            boxes = [offset_box(r, *cell, table.sheet_name, table.workbook_name) for r in rects]
            by_fingerprint[fingerprint] += 1
            by_set[fingerprint, _union_key(boxes)] += 1
    pairs = sum(n * (n - 1) // 2 for n in by_fingerprint.values())
    same = sum(n * (n - 1) // 2 for n in by_set.values())
    return (pairs - same) / pairs if pairs else 0.0


RESERVED = Fingerprint(0, 0, 0, 2)
RESERVED_WITH_CONSTANT = Fingerprint(0, 0, 0, 3)


def formulas_with(tables, fingerprint) -> int:
    """Formula cells whose fingerprint is the given one."""
    return sum(
        1
        for table in tables
        for cell in table.refs
        if table.fingerprint(*cell) == fingerprint
    )


def survey(path: Path) -> tuple[float, str, str, int, int, int]:
    workbook = load_workbook(path)
    shapes: dict = {}
    tables = [analyze_sheet_vectors(workbook, sheet, shapes) for sheet in workbook.sheets if sheet.cells]
    rate = collision_rate(tables)
    frac_all, frac_formula = rectangularity_stats(tables)
    fmt = lambda v: "n/a" if v is None else f"{100 * v:.1f}%"
    cells = sum(t.rect.area for t in tables)
    return (rate, fmt(frac_all), fmt(frac_formula), cells,
            formulas_with(tables, RESERVED), formulas_with(tables, RESERVED_WITH_CONSTANT))


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
          f" {'reserved':>9} {'reserved+c':>10}")
    plain = constant = 0
    for path in paths:
        rate, frac_all, frac_formula, cells, reserved, reserved_c = survey(path)
        plain += reserved
        constant += reserved_c
        print(f"{path.stem:<24} {cells:>6} {100 * rate:>9.2f}% {frac_all:>10} {frac_formula:>14}"
              f" {reserved:>9} {reserved_c:>10}")
    print(f"formula cells with the reserved fingerprint: {plain} without a numeric constant, {constant} with one")


if __name__ == "__main__":
    main()
