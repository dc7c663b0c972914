"""Turns each cell into a small numeric summary of its reference shape.

Every formula reference becomes an offset vector (dx, dy, dz, dc):

* on-sheet relative references store the offset from the formula's own cell,
* on-sheet absolute anchors store the offset from the sheet origin (A1),
* off-sheet references set dz = 1 and use the origin rule for dx, dy,
* dc marks constants and is 0 for references themselves.

A cell's fingerprint is the componentwise sum of its vectors, with the
constant slot replaced by a presence flag.  Data cells collapse to fixed
null vectors so that layout structure survives in the grid:

    number -> (0, 0, 0, 1)    text -> (0, 0, 0, -1)    empty -> (0, 0, 0, 0)

The location fingerprint sums the absolute coordinates of the referents
instead, and is used to measure how far a proposed rewrite moves them.

A range contributes one vector per cell it covers.  The analysis never
lists those cells: over a w x h rectangle every sum above has a closed
form in n = w*h and the arithmetic sums of its columns and rows, so a
whole column costs what one cell does.  The tests keep the cell-by-cell
definition that the closed forms are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .formula import FormulaParseError, RawReference, RefRect, numeric_constant_count, parse_formula, ref_rects
from .model import CellKind, Rect, Workbook, Worksheet, to_a1


class RefVector(NamedTuple):
    dx: int
    dy: int
    dz: int
    dc: int


class Fingerprint(NamedTuple):
    x: int
    y: int
    z: int
    c: int


class LocFingerprint(NamedTuple):
    x: int
    y: int
    z: int


NUMBER_FINGERPRINT = Fingerprint(0, 0, 0, 1)
TEXT_FINGERPRINT = Fingerprint(0, 0, 0, -1)
EMPTY_FINGERPRINT = Fingerprint(0, 0, 0, 0)


def is_off_sheet(ref: RawReference | RefRect, sheet: str, workbook: str) -> bool:
    if ref.workbook is not None and ref.workbook != workbook:
        return True
    return ref.sheet is not None and ref.sheet != sheet


def box_sums(left: int, top: int, right: int, bottom: int) -> tuple[int, int, int]:
    """(n, sum of x, sum of y) over the integer points of a box, bounds
    inclusive.  Exact: (left + right) * w is even, since w odd means
    left + right even."""
    w = right - left + 1
    h = bottom - top + 1
    return w * h, (left + right) * w * h // 2, (top + bottom) * w * h // 2


def offset_box(rect: RefRect, column: int, row: int, sheet: str, workbook: str) -> tuple[int, int, int, int, int]:
    """(dz, dx_lo, dy_lo, dx_hi, dy_hi): the offset vector of each cell
    of rect, written in the cell at (column, row), lies in this box."""
    if is_off_sheet(rect, sheet, workbook):
        return 1, rect.left - 1, rect.top - 1, rect.right - 1, rect.bottom - 1
    x0 = 1 if rect.column_absolute else column
    y0 = 1 if rect.row_absolute else row
    return 0, rect.left - x0, rect.top - y0, rect.right - x0, rect.bottom - y0


def null_fingerprint(kind: CellKind) -> Fingerprint:
    if kind is CellKind.NUMBER:
        return NUMBER_FINGERPRINT
    if kind is CellKind.TEXT:
        return TEXT_FINGERPRINT
    if kind is CellKind.EMPTY:
        return EMPTY_FINGERPRINT
    raise ValueError("formula cells have no null fingerprint")


def rects_fingerprint(rects: Iterable[RefRect], column: int, row: int, sheet: str, workbook: str,
                      has_numeric_constant: bool) -> Fingerprint:
    """The fingerprint of the offset vectors of every covered cell, summed
    per rectangle in closed form."""
    x = y = z = 0
    for rect in rects:
        dz, *box = offset_box(rect, column, row, sheet, workbook)
        n, xs, ys = box_sums(*box)
        x += xs
        y += ys
        z += dz * n
    return Fingerprint(x, y, z, 1 if has_numeric_constant else 0)


def location_fingerprint(rects: Iterable[RefRect], sheet: str, workbook: str) -> LocFingerprint:
    """Sum of the absolute (column, row, off-sheet flag) of every referent."""
    x = y = z = 0
    for rect in rects:
        n, xs, ys = box_sums(rect.left, rect.top, rect.right, rect.bottom)
        x += xs
        y += ys
        z += n if is_off_sheet(rect, sheet, workbook) else 0
    return LocFingerprint(x, y, z)


def translated_location_fingerprint(rects: Iterable[RefRect], sheet: str, workbook: str,
                                    from_cell: tuple[int, int], to_cell: tuple[int, int]) -> LocFingerprint:
    """Location fingerprint the reference pattern would have after moving the
    formula from from_cell to to_cell.  Relative axes shift with the formula;
    absolute anchors and off-sheet references stay put."""
    dc = to_cell[0] - from_cell[0]
    dr = to_cell[1] - from_cell[1]
    x = y = z = 0
    for rect in rects:
        n, xs, ys = box_sums(rect.left, rect.top, rect.right, rect.bottom)
        off = is_off_sheet(rect, sheet, workbook)
        x += xs if (off or rect.column_absolute) else xs + n * dc
        y += ys if (off or rect.row_absolute) else ys + n * dr
        z += n if off else 0
    return LocFingerprint(x, y, z)


@dataclass
class SheetVectors:
    """Per-cell analysis table for one sheet's used range.

    Formula cells that fail to parse are downgraded to text here (with a
    diagnostic) so every later stage sees one consistent view.
    """

    sheet_name: str
    workbook_name: str
    rect: Rect
    kinds: dict[tuple[int, int], CellKind]
    fingerprints: dict[tuple[int, int], Fingerprint]
    refs: dict[tuple[int, int], tuple[RefRect, ...]]
    diagnostics: list[str] = field(default_factory=list)

    def kind(self, column: int, row: int) -> CellKind:
        return self.kinds.get((column, row), CellKind.EMPTY)

    def fingerprint(self, column: int, row: int) -> Fingerprint:
        return self.fingerprints.get((column, row), EMPTY_FINGERPRINT)


def analyze_sheet_vectors(workbook: Workbook, sheet: Worksheet) -> SheetVectors:
    """Parse every formula on the sheet and compute all per-cell summaries."""
    rect = sheet.used_range()
    table = SheetVectors(sheet.name, workbook.name, rect, {}, {}, {})
    for (column, row), content in sorted(sheet.cells.items(), key=lambda item: (item[0][1], item[0][0])):
        kind = content.kind
        if kind is CellKind.FORMULA:
            try:
                ast = parse_formula(content.value)
            except FormulaParseError as exc:
                table.diagnostics.append(
                    f"{sheet.name}!{to_a1(column, row)}: unparseable formula treated as text ({exc})"
                )
                table.kinds[(column, row)] = CellKind.TEXT
                table.fingerprints[(column, row)] = TEXT_FINGERPRINT
                continue
            refs = tuple(ref_rects(ast))
            table.kinds[(column, row)] = CellKind.FORMULA
            table.refs[(column, row)] = refs
            table.fingerprints[(column, row)] = rects_fingerprint(
                refs, column, row, sheet.name, workbook.name, numeric_constant_count(ast) > 0
            )
        else:
            table.kinds[(column, row)] = kind
            table.fingerprints[(column, row)] = null_fingerprint(kind)
    return table
