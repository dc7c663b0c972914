"""Turns each cell into a small numeric summary of its reference shape.

Every formula reference becomes an offset vector (dx, dy, dz, dc):

* on-sheet relative references store the offset from the formula's own cell,
* on-sheet absolute anchors store the offset from the sheet origin (A1),
* off-sheet references set dz = 1 and use the origin rule for dx, dy,
* dc marks constants and is 0 for references themselves.

A cell a range covers counts as anchored on an axis only when both of
the range's corners anchor it.

A cell's fingerprint is the componentwise sum of its vectors, with the
constant slot replaced by a presence flag.  Data cells collapse to fixed
null vectors so that layout structure survives in the grid:

    number -> (0, 0, 0, 1)    text -> (0, 0, 0, -1)    empty -> (0, 0, 0, 0)

Copies of a formula up to translation mostly share a fingerprint, but
not always.  A range anchored on one corner only grows as it is copied:
=SUM(B$1:B5) in C5 gives (-5, -10, 0, 0) and =SUM(B$1:B6) in C6 gives
(-6, -15, 0, 0).  A relative off-sheet reference follows the origin
rule: =Sheet2!B5 in C5 gives (1, 4, 1, 0) and =Sheet2!B6 in C6 gives
(1, 5, 1, 0).

The location fingerprint sums the absolute coordinates of the referents
instead, and is used to measure how far a proposed rewrite moves them.

A range contributes one vector per cell it covers.  The analysis never
lists those cells: over a w x h rectangle every sum above has a closed
form in n = w*h and the arithmetic sums of its columns and rows, so a
whole column costs what one cell does.  The tests keep the cell-by-cell
definition that the closed forms are checked against.

Costs.  A workbook's formulas are keyed by shape (`formula.shape_key`),
so one parse serves every copy of a formula on any of its sheets,
wherever it is translated to.  Each cell then costs O(#refs): lexing its
text, filling the shape's template with its own corners, and the
fingerprint sums.
Fingerprints are computed per cell, not per shape, for the two cases
above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from .formula import (
    FormulaParseError,
    RawReference,
    RefRect,
    numeric_constant_count,
    parse_formula,
    ref_template,
    shape_key,
    template_rects,
)
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


def analyze_sheet_vectors(workbook: Workbook, sheet: Worksheet,
                          shapes: Optional[dict[str, tuple[tuple, bool]]] = None) -> SheetVectors:
    """Parse every formula shape on the sheet and compute all per-cell summaries.

    A shape is parsed once, and its template and numeric-constant flag
    serve every later cell with its key.  A key is kept only when the
    parsed corners are the lexed ones; a formula that fails to parse is
    parsed again at each cell, for a diagnostic with its own offsets.
    `shapes` is the key -> (template, flag) dictionary to read and fill;
    a template names sheets as written, so the sheets of one workbook can
    share one.  By default the sheet gets its own.
    """
    rect = sheet.used_range()
    table = SheetVectors(sheet.name, workbook.name, rect, {}, {}, {})
    if shapes is None:
        shapes = {}
    for (column, row), content in sorted(sheet.cells.items(), key=lambda item: (item[0][1], item[0][0])):
        kind = content.kind
        if kind is CellKind.FORMULA:
            key, corners = shape_key(content.value, column, row)
            shape = shapes.get(key)
            if shape is None:
                try:
                    ast = parse_formula(content.value)
                except FormulaParseError as exc:
                    table.diagnostics.append(
                        f"{sheet.name}!{to_a1(column, row)}: unparseable formula treated as text ({exc})"
                    )
                    table.kinds[(column, row)] = CellKind.TEXT
                    table.fingerprints[(column, row)] = TEXT_FINGERPRINT
                    continue
                template, parsed = ref_template(ast)
                shape = template, numeric_constant_count(ast) > 0
                if key is not None and parsed == corners:
                    shapes[key] = shape
                corners = parsed
            refs = template_rects(shape[0], corners)
            table.kinds[(column, row)] = CellKind.FORMULA
            table.refs[(column, row)] = refs
            table.fingerprints[(column, row)] = rects_fingerprint(
                refs, column, row, sheet.name, workbook.name, shape[1]
            )
        else:
            table.kinds[(column, row)] = kind
            table.fingerprints[(column, row)] = null_fingerprint(kind)
    return table
