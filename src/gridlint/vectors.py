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

A formula whose vectors sum to (0, 0, 0), such as =A1+A3 in A2 or the
reference-free =100*12, takes the reserved (0, 0, 0, 2 + flag) instead,
so no formula shares a data cell's fingerprint and a cell's kind follows
from its fingerprint alone.

Copies of a formula up to translation mostly share a fingerprint, but
not always.  A range anchored on one corner only grows as it is copied:
=SUM(B$1:B5) in C5 gives (-5, -10, 0, 0) and =SUM(B$1:B6) in C6 gives
(-6, -15, 0, 0).  A relative off-sheet reference follows the origin
rule: =Sheet2!B5 in C5 gives (1, 4, 1, 0) and =Sheet2!B6 in C6 gives
(1, 5, 1, 0).

The location fingerprint sums the absolute coordinates of the referents
instead; summed with the formula shifted to another cell (relative axes
move, anchors stay), it measures how far a proposed rewrite moves them.

A range contributes one vector per cell it covers.  The analysis never
lists those cells: over a w x h rectangle every sum above has a closed
form in n = w*h and the arithmetic sums of its columns and rows, so a
whole column costs what one cell does.  The tests keep the cell-by-cell
definition that the closed forms are checked against.

Costs.  A workbook's formulas are keyed by shape (`formula.shape_key`),
so one parse serves every copy of a formula on any of its sheets,
wherever it is translated to.  A formula cell whose neighbour above,
or else on its left, has a parsed shape is first compared with the
copy of that shape printed for the cell (`formula.shape_printer`): a
translated copy, as most cells of a copied run are, costs that one
string comparison and is never lexed.  Any other formula cell is
lexed once.  Either way it then costs O(#refs) to fill the shape's
template with its own corners.  Its fingerprint is summed per cell
only when copies of its shape need not share one: when a reference
names a sheet or workbook, a range is anchored differently at its two
corners (the two cases above), or the shape holds a whole line.  Any
other shape keeps the fingerprint of its first use for every copy.
One pass in row-major order writes each stored cell's fingerprint code
into the grid's code rows (a number or text cell costs an identity test
and an append) and gives each formula its references; a sheet stored in
that order, as a loaded `serialize_workbook` file is, is neither sorted
nor scanned for its used range (`Worksheet.in_row_major_order`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional

from .formula import (
    FormulaParseError,
    RefRect,
    parse_formula,
    shape_key,
    shape_printer,
    template_rects,
)
from .grid import FingerprintGrid
from .model import CellKind, FormatError, Rect, Workbook, Worksheet, to_a1


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
# The kind of data cell each null fingerprint stands for.
DATA_KINDS = {NUMBER_FINGERPRINT: CellKind.NUMBER, TEXT_FINGERPRINT: CellKind.TEXT, EMPTY_FINGERPRINT: CellKind.EMPTY}
_FORMULA, _NUMBER, _TEXT = CellKind.FORMULA, CellKind.NUMBER, CellKind.TEXT


def is_off_sheet(ref: RefRect, sheet: str, workbook: str) -> bool:
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
    for fingerprint, data_kind in DATA_KINDS.items():
        if data_kind is kind:
            return fingerprint
    raise ValueError("formula cells have no null fingerprint")


def rects_fingerprint(rects: Iterable[RefRect], column: int, row: int, sheet: str, workbook: str,
                      has_numeric_constant: bool) -> Fingerprint:
    """The fingerprint of the offset vectors of every covered cell, summed
    per rectangle in closed form; (0, 0, 0, 2 + flag) when they cancel."""
    x = y = z = 0
    for rect in rects:
        dz, *box = offset_box(rect, column, row, sheet, workbook)
        n, xs, ys = box_sums(*box)
        x += xs
        y += ys
        z += dz * n
    flag = 1 if has_numeric_constant else 0
    return Fingerprint(x, y, z, flag if x or y or z else 2 + flag)


def location_fingerprint(rects: Iterable[RefRect], sheet: str, workbook: str,
                         shift: tuple[int, int] = (0, 0)) -> LocFingerprint:
    """Sum of the absolute (column, row, off-sheet flag) of every referent,
    with the formula moved by shift = (columns, rows): relative axes move
    with it; absolute anchors and off-sheet references stay put."""
    dc, dr = shift
    x = y = z = 0
    for rect in rects:
        n, xs, ys = box_sums(rect.left, rect.top, rect.right, rect.bottom)
        if is_off_sheet(rect, sheet, workbook):
            z += n
        else:
            xs += 0 if rect.column_absolute else n * dc
            ys += 0 if rect.row_absolute else n * dr
        x += xs
        y += ys
    return LocFingerprint(x, y, z)


@dataclass
class SheetVectors:
    """Per-cell analysis table for one sheet's used range.

    `grid` holds every fingerprint of the used range, at the cells' own
    sheet coordinates; `refs` is keyed by formula cell in row-major
    order.  A formula that fails to parse is downgraded to text here
    (with a diagnostic), so a cell is a formula exactly when it is in
    `refs`, which is exactly when its fingerprint is not in `DATA_KINDS`.
    """

    sheet_name: str
    workbook_name: str
    grid: FingerprintGrid
    refs: dict[tuple[int, int], tuple[RefRect, ...]]
    diagnostics: list[str] = field(default_factory=list)

    @property
    def rect(self) -> Rect:
        """The used range: the grid's."""
        return self.grid.full_rect()

    def kind(self, column: int, row: int) -> CellKind:
        return DATA_KINDS.get(self.fingerprint(column, row), CellKind.FORMULA)

    def fingerprint(self, column: int, row: int) -> Fingerprint:
        grid = self.grid
        if 0 <= column - grid.left < grid.width and 0 <= row - grid.top < grid.height:
            return grid.fingerprint_at(column, row)
        return EMPTY_FINGERPRINT

    @property
    def fingerprints(self) -> Mapping[tuple[int, int], Fingerprint]:
        """The fingerprint of every cell that is not blank, in row-major
        order (for a loaded workbook, every stored cell): a read-only
        mapping built on each call."""
        grid, palette = self.grid, self.grid.palette
        blank = palette.index(EMPTY_FINGERPRINT) if EMPTY_FINGERPRINT in palette else None
        return MappingProxyType({
            (column, row): palette[code]
            for row, line in enumerate(grid.code_rows, grid.top)
            if line.count(blank) != len(line)  # blank rows cost one count
            for column, code in enumerate(line, grid.left)
            if code != blank
        })


# Largest used range analysed, in cells.  The code rows, the entropy tree
# and the HTML view are dense over the used range, so a sheet holding
# only A1 and XFD1048576 (about 1.7e10 cells) is refused before any
# formula is read instead of exhausting memory.
MAX_USED_CELLS = 2**20


def translation_invariant(template: tuple, corners: list) -> bool:
    """Whether every translated copy of a shape has one fingerprint: no
    reference names a sheet or workbook (on or off the sheet depends on
    the sheet), every range is anchored alike at both corners, and no
    whole line is fixed in the template."""
    for entry in template:
        if type(entry) is RefRect:
            return False
        i, j, sheet, workbook = entry
        if sheet is not None or workbook is not None or corners[i][2:] != corners[j][2:]:
            return False
    return True


class _Shape:
    """A parsed formula shape: its reference template, whether it holds a
    numeric constant, its printer (`formula.shape_printer`), built when a
    neighbour first lends its key, and, once used, the fingerprint that
    every copy of a `translation_invariant` shape shares."""

    __slots__ = ("template", "has_constant", "printer", "invariant", "fingerprint")

    def __init__(self, template: tuple, has_constant: bool, invariant: bool):
        self.template = template
        self.has_constant = has_constant
        self.printer = None
        self.invariant = invariant
        self.fingerprint: Optional[Fingerprint] = None


def analyze_sheet_vectors(workbook: Workbook, sheet: Worksheet,
                          shapes: Optional[dict[str, _Shape]] = None) -> SheetVectors:
    """Parse every formula shape on the sheet and compute all per-cell summaries.

    A shape is parsed once, and its template and numeric-constant flag
    serve every later cell with its key.  A key is kept only when the
    parsed corners are the lexed ones; a formula that fails to parse is
    parsed again at each cell, for a diagnostic with its own offsets.
    `shapes` is the key -> shape dictionary to read and fill; a template
    names sheets as written, so the sheets of one workbook can share one.
    By default the sheet gets its own.

    A formula cell whose neighbour above, else on its left, has a key in
    `shapes` is first compared with the copy of that shape printed for
    it; when the texts are equal, the key and the printed corners are the
    ones `shape_key` would lex, and the cell is not lexed.  A cell lends
    its key to the cells below and right of it only when that key is in
    `shapes`, so a formula that failed to parse lends nothing.

    Cells are visited in row-major order (`Worksheet.in_row_major_order`),
    and each fingerprint gets its code on first appearance, a blank one
    at the first unstored cell, as `FingerprintGrid(rows)` numbers them.
    The same pass writes the code rows: each gap is padded with the blank
    code as that code is assigned, rows that hold no stored cell share
    one blank row, and a number or text cell takes its kind's code after
    one identity test, hashing no fingerprint.
    """
    stored, rect = sheet.in_row_major_order()
    if rect.area > MAX_USED_CELLS:
        raise FormatError(
            f"sheet {sheet.name!r}: used range {rect.a1()} spans {rect.area} cells, "
            f"more than the {MAX_USED_CELLS} analysed"
        )
    left, top, width = rect.left, rect.top, rect.width
    if shapes is None:
        shapes = {}
    refs: dict[tuple[int, int], tuple[RefRect, ...]] = {}
    diagnostics: list[str] = []

    def formula_fingerprint(column: int, row: int, text: str,
                            above: dict[int, str], current: dict[int, str]) -> Optional[Fingerprint]:
        """Fill the cell's references and return its fingerprint; None
        (with a diagnostic) when the formula does not parse.  `above`
        and `current` map columns to the keys that the formulas of the
        row above and of this row lend; the cell adds its own."""
        above_key, left_key = above.get(column), current.get(column - 1)
        for key in (above_key, left_key if left_key != above_key else None):
            if key is None:
                continue
            shape = shapes[key]
            if shape.printer is None:
                shape.printer = shape_printer(key)
            copy = shape.printer(column, row)
            if copy is not None and copy[0] == text:
                corners = copy[1]
                break
        else:
            key, corners = shape_key(text, column, row)
            shape = shapes.get(key)
            if shape is None:
                try:
                    template, parsed, has_constant = parse_formula(text)
                except FormulaParseError as exc:
                    diagnostics.append(
                        f"{sheet.name}!{to_a1(column, row)}: unparseable formula treated as text ({exc})"
                    )
                    return None
                shape = _Shape(template, has_constant, translation_invariant(template, parsed))
                if key is not None and parsed == corners:
                    shapes[key] = shape
                else:
                    key = None
                corners = parsed
        if key is not None:
            current[column] = key
        rects = refs[(column, row)] = template_rects(shape.template, corners)
        fingerprint = shape.fingerprint
        if fingerprint is None:
            fingerprint = rects_fingerprint(rects, column, row, sheet.name, workbook.name, shape.has_constant)
            if shape.invariant:
                shape.fingerprint = fingerprint
        return fingerprint

    codes: dict[Fingerprint, int] = {}
    blank_row: list[int] = []  # the blank code width times, once a cell is left blank

    def pad(line: list[int], end: int) -> None:  # the blank gets its code at the first blank cell
        nonlocal blank_row
        if not blank_row:
            blank_row = [codes.setdefault(EMPTY_FINGERPRINT, len(codes))] * width
        line += blank_row[len(line):end]

    cells = sheet.cells
    code_rows: list[list[int]] = []
    line: list[int] = []  # the codes of row line_row so far
    line_row = top
    number_code = text_code = None
    above: dict[int, str] = {}
    lending: dict[int, str] = {}  # the keys the formulas of lending_row lend
    lending_row = 0
    for cell in stored:
        column, row = cell
        if row != line_row:
            code_rows.append(line)
            if len(line) != width or row != line_row + 1:
                pad(line, width)
                code_rows += [blank_row] * (row - line_row - 1)
            line, line_row = [], row
        if len(line) != column - left:
            pad(line, column - left)
        kind, value = cells[cell]
        if kind is _NUMBER:
            if number_code is None:
                number_code = codes.setdefault(NUMBER_FINGERPRINT, len(codes))
            line.append(number_code)
            continue
        if kind is _FORMULA:
            if row != lending_row:
                above = lending if row == lending_row + 1 else {}
                lending, lending_row = {}, row
            fingerprint = formula_fingerprint(column, row, value, above, lending)
            if fingerprint is not None:
                line.append(codes.setdefault(fingerprint, len(codes)))
                continue
        elif kind is not _TEXT:
            line.append(codes.setdefault(null_fingerprint(kind), len(codes)))
            continue
        # Text, or a formula downgraded to text.
        if text_code is None:
            text_code = codes.setdefault(TEXT_FINGERPRINT, len(codes))
        line.append(text_code)
    if len(line) != width:
        pad(line, width)
    code_rows.append(line)

    grid = FingerprintGrid.from_codes(code_rows, tuple(codes), left, top)
    return SheetVectors(sheet.name, workbook.name, grid, refs, diagnostics)
