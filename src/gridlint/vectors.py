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
wherever it is translated to.  Each formula cell then costs O(#refs):
lexing its text, filling the shape's template with its own corners
and summing the fingerprint of those rectangles, per cell since copies
of a shape need not share one (the two cases above).  One row-major pass
writes each cell's kind, references and fingerprint code, so the used
range's code rows come out of the pass itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional

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
from .grid import FingerprintGrid
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

    `kinds` and `refs` are keyed by stored cell in row-major order; `grid`
    holds every fingerprint of the used range, re-based to (1, 1).
    Formula cells that fail to parse are downgraded to text here (with a
    diagnostic) so every later stage sees one consistent view.
    """

    sheet_name: str
    workbook_name: str
    rect: Rect
    kinds: dict[tuple[int, int], CellKind]
    grid: FingerprintGrid
    refs: dict[tuple[int, int], tuple[RefRect, ...]]
    diagnostics: list[str] = field(default_factory=list)

    def kind(self, column: int, row: int) -> CellKind:
        return self.kinds.get((column, row), CellKind.EMPTY)

    def fingerprint(self, column: int, row: int) -> Fingerprint:
        rect = self.rect
        if rect.left <= column <= rect.right and rect.top <= row <= rect.bottom:
            return self.grid.palette[self.grid.code_rows[row - rect.top][column - rect.left]]
        return EMPTY_FINGERPRINT

    @property
    def fingerprints(self) -> Mapping[tuple[int, int], Fingerprint]:
        """The fingerprint of every stored cell, in row-major order: a
        read-only mapping built on each call."""
        return MappingProxyType({cell: self.fingerprint(*cell) for cell in self.kinds})


_ROW_MAJOR = itemgetter(1, 0)


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

    Cells are visited in row-major order, and each fingerprint gets its
    code on first appearance, a blank one at the first unstored cell, as
    `FingerprintGrid(rows)` numbers them.  Rows that hold no stored cell
    share one list.
    """
    rect = sheet.used_range()
    left, top, width, area = rect.left, rect.top, rect.width, rect.area
    if shapes is None:
        shapes = {}
    kinds: dict[tuple[int, int], CellKind] = {}
    refs: dict[tuple[int, int], tuple[RefRect, ...]] = {}
    diagnostics: list[str] = []

    def formula_fingerprint(column: int, row: int, text: str) -> Optional[Fingerprint]:
        """Fill the cell's references and return its fingerprint; None
        (with a diagnostic) when the formula does not parse."""
        key, corners = shape_key(text, column, row)
        shape = shapes.get(key)
        if shape is None:
            try:
                ast = parse_formula(text)
            except FormulaParseError as exc:
                diagnostics.append(
                    f"{sheet.name}!{to_a1(column, row)}: unparseable formula treated as text ({exc})"
                )
                return None
            template, parsed = ref_template(ast)
            shape = template, numeric_constant_count(ast) > 0
            if key is not None and parsed == corners:
                shapes[key] = shape
            corners = parsed
        rects = refs[(column, row)] = template_rects(shape[0], corners)
        return rects_fingerprint(rects, column, row, sheet.name, workbook.name, shape[1])

    codes: dict[Fingerprint, int] = {}
    code_rows: list[list[int]] = []
    line: list[int] = []  # the codes of the row being written, left to right
    blank_row: list[int] = []  # shared by every row that holds no stored cell

    def blanks(count: int) -> None:
        """Write the blank's code into the next `count` cells."""
        nonlocal line, blank_row
        blank = codes.setdefault(EMPTY_FINGERPRINT, len(codes))
        if line:
            done = min(count, width - len(line))
            line += [blank] * done
            count -= done
            if len(line) == width:
                code_rows.append(line)
                line = []
        whole, count = divmod(count, width)
        if whole:
            blank_row = blank_row or [blank] * width
            code_rows.extend([blank_row] * whole)
        line += [blank] * count

    cells = sheet.cells
    following = 0  # the position after the last stored cell
    for cell in sorted(cells, key=_ROW_MAJOR):
        column, row = cell
        position = (row - top) * width + column - left
        if position != following:
            blanks(position - following)
        following = position + 1
        kind, value = cells[cell]
        if kind is CellKind.NUMBER:  # an enum hashes in Python, so no dictionary here
            fingerprint = NUMBER_FINGERPRINT
        elif kind is CellKind.FORMULA:
            fingerprint = formula_fingerprint(column, row, value)
            if fingerprint is None:
                kind, fingerprint = CellKind.TEXT, TEXT_FINGERPRINT
        else:
            fingerprint = null_fingerprint(kind)
        kinds[cell] = kind
        line.append(codes.setdefault(fingerprint, len(codes)))
        if len(line) == width:
            code_rows.append(line)
            line = []
    if following != area:
        blanks(area - following)
    grid = FingerprintGrid.from_codes(code_rows, tuple(codes))
    return SheetVectors(sheet.name, workbook.name, rect, kinds, grid, refs, diagnostics)
