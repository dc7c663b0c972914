"""In-memory workbook model and the canonical JSON workbook format.

A workbook file is a JSON document:

    {"workbook": "<name>",
     "sheets": [{"name": "<sheet>",
                 "cells": {"<A1>": {"f": "=SUM(A1:A9)"} | {"n": 3.5} | {"s": "label"}}}]}

Column letters are bijective base-26 (A=1 .. Z=26, AA=27) and case-insensitive;
a cell address lies on the sheet, in columns A..XFD and from row 1 (rows past
the sheet's last are still read, as the formula parser reads them).
Each cell carries exactly one of the keys "f" (formula), "n" (number), "s" (text).
Text cells containing only whitespace are dropped at load time, so they behave
like empty cells and do not extend the used range.  A key repeated in any
object of the document is refused.

The loader turns each cell object into its `CellContent` as the JSON is
decoded, so a stored cell costs one small object; a payload that is not a
well-formed one-key cell is left to `_load_cell`, which names what is wrong.
A sheet is its `cells` dictionary alone.  The analysis reads them in
row-major order (`Worksheet.in_row_major_order`): one pass checks that
they are stored in that order, as the loader reads a file
`serialize_workbook` wrote, and takes their used range on the way, so
only a sheet in another order is sorted and scanned for its bounds.

`parse_workbook_json`, and so `load_workbook`, runs with the cyclic
garbage collector paused (`collector_paused`), as does
`pipeline.analyze_workbook`.
"""

from __future__ import annotations

import functools
import gc
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar


class GridlintError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(GridlintError):
    """The workbook or annotation file violates the expected format."""


class DuplicateCellError(FormatError):
    """One sheet declares the same cell address twice."""


class EmptySheetError(GridlintError):
    """Operation needs at least one non-empty cell on the sheet."""


# Sheet extent (A..XFD, rows 1..1,048,576).
SHEET_COLUMNS = 16_384
SHEET_ROWS = 1_048_576

_COLUMN_RE = re.compile(r"([A-Za-z]+)([0-9]+)")

# Column letters -> index, shared by parse_a1 and the formula lexer.  Filled
# on first use with upper-case spellings of columns A..XFD only, so it holds
# at most SHEET_COLUMNS entries whatever the input.
_COLUMNS: dict[str, int] = {}


_Call = TypeVar("_Call", bound=Callable)


def collector_paused(function: _Call) -> _Call:
    """`function` with the cyclic garbage collector paused while it runs.

    A workbook's load and analysis allocate hundreds of thousands of
    small objects that hold no cycle, and each collection on the way
    would scan the young ones and rescan the old.  The caller's state
    is restored on every exit, a raise included: a collector the caller
    paused stays paused.
    """

    @functools.wraps(function)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return function(*args, **kwargs)
        gc.disable()
        try:
            return function(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def outside_sheet(column: int, row: int) -> bool:
    """A column past XFD or a row before 1: neither a cell address nor a
    formula reference may name it.

    Rows past SHEET_ROWS are still read: a range such as B1:B1100000 is
    analysed in closed form, as the tests and the `lookups` benchmark
    workload expect.
    """
    return column > SHEET_COLUMNS or row < 1


def column_to_letters(column: int) -> str:
    """Render a 1-based column index as letters (1 -> A, 27 -> AA)."""
    if column < 1:
        raise ValueError(f"column index must be >= 1, got {column}")
    letters = []
    while column > 0:
        column, rem = divmod(column - 1, 26)
        letters.append(chr(ord("A") + rem))
    return "".join(reversed(letters))


def letters_to_column(letters: str) -> int:
    """Parse column letters to a 1-based index (case-insensitive)."""
    column = _COLUMNS.get(letters)
    if column is not None:
        return column
    if not letters or not letters.isalpha():
        raise ValueError(f"invalid column letters: {letters!r}")
    column = 0
    for ch in letters.upper():
        column = column * 26 + (ord(ch) - ord("A") + 1)
    if column <= SHEET_COLUMNS and letters.isascii() and letters.isupper():
        _COLUMNS[letters] = column
    return column


def parse_a1(text: str) -> tuple[int, int]:
    """Parse an A1-style address into (column, row); refuse one off the sheet."""
    m = _COLUMN_RE.fullmatch(text)
    if not m:
        raise FormatError(f"invalid cell address: {text!r}")
    letters, digits = m.groups()
    try:
        row = int(digits)
    except ValueError:  # more digits than Python converts
        raise FormatError(f"invalid cell address: row of {len(digits)} digits") from None
    column = letters_to_column(letters)
    if outside_sheet(column, row):
        raise FormatError(f"invalid cell address: {text!r} is outside the sheet")
    return column, row


def to_a1(column: int, row: int) -> str:
    return f"{column_to_letters(column)}{row}"


class CellKind(Enum):
    FORMULA = "formula"
    NUMBER = "number"
    TEXT = "text"
    EMPTY = "empty"


class CellContent(NamedTuple):
    """Stored content of one cell.

    value holds the formula text (including the leading "="), the numeric
    value, or the string, depending on kind.  Empty cells have value None.
    """

    kind: CellKind
    value: str | float | None = None

    @staticmethod
    def formula(text: str) -> "CellContent":
        if not text.startswith("="):
            raise FormatError(f"formula text must start with '=': {text!r}")
        return CellContent(CellKind.FORMULA, text)

    @staticmethod
    def number(value: float) -> "CellContent":
        if isinstance(value, bool):
            value = 1 if value else 0
        return CellContent(CellKind.NUMBER, value)

    @staticmethod
    def text(value: str) -> "CellContent":
        return CellContent(CellKind.TEXT, value)



# A NamedTuple class may not define __new__, so Rect's check lives in a
# subclass of one.
class _Corners(NamedTuple):
    left: int
    top: int
    right: int
    bottom: int


class Rect(_Corners):
    """Inclusive rectangle of cells, 1-based coordinates.

    A tuple of its corners (left, top, right, bottom): it is immutable,
    hashes and orders as that tuple, and compares equal to it.  The
    constructor checks the corners, and every site in the package builds
    its rectangles through it; the named tuple's own `_make` and
    `_replace` do not check.
    """

    __slots__ = ()

    def __new__(cls, left: int, top: int, right: int, bottom: int) -> "Rect":
        if left < 1 or top < 1:
            raise ValueError(f"coordinates are 1-based: {(left, top, right, bottom)}")
        if left > right or top > bottom:
            raise ValueError(f"degenerate rectangle: {(left, top, right, bottom)}")
        return tuple.__new__(cls, (left, top, right, bottom))

    @property
    def width(self) -> int:
        return self.right - self.left + 1

    @property
    def height(self) -> int:
        return self.bottom - self.top + 1

    @property
    def area(self) -> int:
        return (self.right - self.left + 1) * (self.bottom - self.top + 1)

    def contains(self, column: int, row: int) -> bool:
        return self.left <= column <= self.right and self.top <= row <= self.bottom

    def cells(self) -> Iterator[tuple[int, int]]:
        """Yield (column, row) pairs in row-major order."""
        for row in range(self.top, self.bottom + 1):
            for column in range(self.left, self.right + 1):
                yield column, row

    def a1(self) -> str:
        start = to_a1(self.left, self.top)
        if self.area == 1:
            return start
        return f"{start}:{to_a1(self.right, self.bottom)}"


_ROW = itemgetter(1)
_ROW_MAJOR = itemgetter(1, 0)


@dataclass
class Worksheet:
    """One sheet: a sparse mapping from (column, row) to stored content."""

    name: str
    cells: dict[tuple[int, int], CellContent] = field(default_factory=dict)

    def used_range(self) -> Rect:
        """Smallest rectangle covering every stored cell."""
        cells = self.cells
        if not cells:
            raise EmptySheetError(f"sheet {self.name!r} has no content")
        # Addresses compare column first, so min and max give the columns.
        return Rect(min(cells)[0], _ROW(min(cells, key=_ROW)), max(cells)[0], _ROW(max(cells, key=_ROW)))

    def in_row_major_order(self) -> tuple[Sequence[tuple[int, int]], Rect]:
        """(the stored addresses in row-major order, the used range).

        One pass checks that `cells` already lists its addresses in
        row-major order and takes the columns they span on the way: in
        that order a row's first address holds its leftmost column and
        its last the rightmost.  A sheet in any other order is sorted
        and scanned for its bounds.
        """
        cells = self.cells
        if not cells:
            raise EmptySheetError(f"sheet {self.name!r} has no content")
        addresses = iter(cells)
        column_before, row_before = next(addresses)
        left = right = column_before
        top = row_before
        for column, row in addresses:
            if row == row_before:
                if column < column_before:
                    break
            elif row > row_before:
                if column < left:
                    left = column
                if column_before > right:
                    right = column_before
                row_before = row
            else:
                break
            column_before = column
        else:
            return list(cells), Rect(left, top, max(right, column_before), row_before)
        return sorted(cells, key=_ROW_MAJOR), self.used_range()


@dataclass
class Workbook:
    """A named, ordered collection of worksheets.  Treated as immutable
    once loaded; the analysis never writes back."""

    name: str
    sheets: list[Worksheet] = field(default_factory=list)


_FORMULA, _NUMBER, _TEXT = CellKind.FORMULA, CellKind.NUMBER, CellKind.TEXT
# Builds a CellContent without the NamedTuple's own __new__, a Python call.
_new_tuple = tuple.__new__
# The key of a one-key cell object, by the kind it is read as.
_PAYLOAD_KEYS = {_FORMULA: "f", _NUMBER: "n", _TEXT: "s"}


def _load_cell(address: str, payload: object) -> None:
    """Check a cell object that the decode hook left as it is: either
    whitespace-only text, which is dropped, or a fault, which raises the
    error that names it.  Every well-formed one-key cell is a
    CellContent already."""
    if not isinstance(payload, dict):
        raise FormatError(f"cell {address!r}: expected an object, got {type(payload).__name__}")
    keys = set(payload)
    if len(keys & {"f", "n", "s"}) != 1 or keys - {"f", "n", "s"}:
        raise FormatError(f"cell {address!r}: exactly one of 'f', 'n', 's' required, got {sorted(keys)}")
    if "f" in payload:
        raise FormatError(f"cell {address!r}: 'f' must be a string starting with '='")
    if "n" in payload:
        raise FormatError(f"cell {address!r}: 'n' must be a number")
    if not isinstance(payload["s"], str):
        raise FormatError(f"cell {address!r}: 's' must be a string")


def _first_repeat(pairs: list[tuple[str, object]]) -> str:
    seen = set()
    for key, _ in pairs:
        if key in seen:
            return key
        seen.add(key)
    raise AssertionError("no key repeats")


def _duplicate_error(doc: object, obj: dict, key: str, source: str) -> FormatError:
    """The error for the first object that repeats a key: a cell address
    when the object is a sheet's cells, any other key otherwise."""
    sheets = doc.get("sheets") if isinstance(doc, dict) else None
    for raw in sheets if isinstance(sheets, list) else ():
        if isinstance(raw, dict) and raw.get("cells") is obj:
            return DuplicateCellError(f"{source}: sheet {raw.get('name')!r}: duplicate cell address {key!r}")
    return FormatError(f"{source}: duplicate key {key!r}")


@collector_paused
def parse_workbook_json(text: str, *, source: str = "<string>") -> Workbook:
    """Parse canonical workbook JSON into a Workbook."""
    repeated: list[tuple[dict, str]] = []

    def pairs_hook(pairs: list[tuple[str, object]]) -> object:
        # Every JSON object passes through here as it closes.  A well-formed
        # one-key cell becomes its CellContent at once; json.loads would
        # silently keep the last of repeated keys, so they are noted here.
        if len(pairs) == 1:
            key, value = pairs[0]
            kind = type(value)
            if key == "f":
                if kind is str and value.startswith("="):
                    return _new_tuple(CellContent, (_FORMULA, value))
            elif key == "n":
                if kind is int or kind is float:
                    return _new_tuple(CellContent, (_NUMBER, value))
                if kind is bool:
                    return _new_tuple(CellContent, (_NUMBER, int(value)))
            elif key == "s" and kind is str and value.strip():
                return _new_tuple(CellContent, (_TEXT, value))
            return dict(pairs)
        obj = dict(pairs)
        if len(obj) != len(pairs) and not repeated:
            repeated.append((obj, _first_repeat(pairs)))
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=pairs_hook)
    except ValueError as exc:
        # JSONDecodeError, or an integer past Python's digit limit.
        raise FormatError(f"{source}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError(f"{source}: JSON nested too deeply") from exc
    if repeated:
        raise _duplicate_error(doc, *repeated[0], source)
    if not isinstance(doc, dict) or "workbook" not in doc or "sheets" not in doc:
        raise FormatError(f"{source}: top level must be an object with 'workbook' and 'sheets'")
    name = doc["workbook"]
    if not isinstance(name, str) or not name:
        raise FormatError(f"{source}: 'workbook' must be a non-empty string")
    raw_sheets = doc["sheets"]
    if not isinstance(raw_sheets, list):
        raise FormatError(f"{source}: 'sheets' must be a list")
    sheets = []
    seen_names = set()
    for raw in raw_sheets:
        if not isinstance(raw, dict) or "name" not in raw or "cells" not in raw:
            raise FormatError(f"{source}: each sheet needs 'name' and 'cells'")
        sheet_name = raw["name"]
        if not isinstance(sheet_name, str) or not sheet_name:
            raise FormatError(f"{source}: sheet names must be non-empty strings")
        if sheet_name in seen_names:
            raise FormatError(f"{source}: duplicate sheet name {sheet_name!r}")
        seen_names.add(sheet_name)
        raw_cells = raw["cells"]
        if type(raw_cells) is CellContent:
            # A one-key cell object where the cells belong: its key is no address.
            raise FormatError(f"invalid cell address: {_PAYLOAD_KEYS[raw_cells.kind]!r}")
        if not isinstance(raw_cells, dict):
            raise FormatError(f"{source}: sheet {sheet_name!r}: 'cells' must be an object")
        cells: dict[tuple[int, int], CellContent] = {}
        for addr_text, content in raw_cells.items():
            address = parse_a1(addr_text)
            if address in cells:
                raise DuplicateCellError(
                    f"{source}: sheet {sheet_name!r}: duplicate cell address {addr_text!r}"
                )
            if type(content) is not CellContent:
                _load_cell(addr_text, content)  # whitespace-only text, or it raises
                continue
            cells[address] = content
        sheets.append(Worksheet(sheet_name, cells))
    return Workbook(name, sheets)


def load_workbook(path: str) -> Workbook:
    """Load a workbook from a canonical JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    return parse_workbook_json(text, source=path)


def serialize_workbook(workbook: Workbook) -> str:
    """Render a workbook back to canonical JSON.  load(serialize(w)) == w."""
    sheets = []
    for ws in workbook.sheets:
        cells = {}
        for (column, row) in sorted(ws.cells, key=_ROW_MAJOR):
            content = ws.cells[(column, row)]
            if content.kind is CellKind.FORMULA:
                cells[to_a1(column, row)] = {"f": content.value}
            elif content.kind is CellKind.NUMBER:
                cells[to_a1(column, row)] = {"n": content.value}
            else:
                cells[to_a1(column, row)] = {"s": content.value}
        sheets.append({"name": ws.name, "cells": cells})
    return json.dumps({"workbook": workbook.name, "sheets": sheets}, indent=2) + "\n"

