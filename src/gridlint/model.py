"""In-memory workbook model and the canonical JSON workbook format.

A workbook file is a JSON document:

    {"workbook": "<name>",
     "sheets": [{"name": "<sheet>",
                 "cells": {"<A1>": {"f": "=SUM(A1:A9)"} | {"n": 3.5} | {"s": "label"}}}]}

Column letters are bijective base-26 (A=1 .. Z=26, AA=27) and case-insensitive.
Each cell carries exactly one of the keys "f" (formula), "n" (number), "s" (text).
Text cells containing only whitespace are dropped at load time, so they behave
like empty cells and do not extend the used range.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator


class GridlintError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(GridlintError):
    """The workbook or annotation file violates the expected format."""


class DuplicateCellError(FormatError):
    """One sheet declares the same cell address twice."""


class EmptySheetError(GridlintError):
    """Operation needs at least one non-empty cell on the sheet."""


_COLUMN_RE = re.compile(r"^([A-Za-z]+)([0-9]+)$")


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
    if not letters or not letters.isalpha():
        raise ValueError(f"invalid column letters: {letters!r}")
    column = 0
    for ch in letters.upper():
        column = column * 26 + (ord(ch) - ord("A") + 1)
    return column


def parse_a1(text: str) -> tuple[int, int]:
    """Parse an A1-style address into (column, row)."""
    m = _COLUMN_RE.match(text)
    if not m:
        raise FormatError(f"invalid cell address: {text!r}")
    try:
        row = int(m.group(2))
    except ValueError:  # more digits than Python converts
        raise FormatError(f"invalid cell address: row of {len(m.group(2))} digits") from None
    if row < 1:
        raise FormatError(f"invalid cell address: {text!r}")
    return letters_to_column(m.group(1)), row


def to_a1(column: int, row: int) -> str:
    return f"{column_to_letters(column)}{row}"


@dataclass(frozen=True, order=True)
class CellAddress:
    """Absolute cell position: 1-based column and row on a named sheet."""

    column: int
    row: int
    sheet: str
    workbook: str

    def a1(self) -> str:
        return to_a1(self.column, self.row)

    def __repr__(self) -> str:
        return f"CellAddress({self.a1()}, sheet={self.sheet!r}, workbook={self.workbook!r})"


class CellKind(Enum):
    FORMULA = "formula"
    NUMBER = "number"
    TEXT = "text"
    EMPTY = "empty"


@dataclass(frozen=True)
class CellContent:
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


EMPTY_CELL = CellContent(CellKind.EMPTY)


@dataclass(frozen=True, order=True)
class Rect:
    """Inclusive rectangle of cells, 1-based coordinates."""

    left: int
    top: int
    right: int
    bottom: int

    def __post_init__(self) -> None:
        if self.left < 1 or self.top < 1:
            raise ValueError(f"coordinates are 1-based: {self}")
        if self.left > self.right or self.top > self.bottom:
            raise ValueError(f"degenerate rectangle: {self}")

    @property
    def width(self) -> int:
        return self.right - self.left + 1

    @property
    def height(self) -> int:
        return self.bottom - self.top + 1

    @property
    def area(self) -> int:
        return self.width * self.height

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


@dataclass
class Worksheet:
    """One sheet: a sparse mapping from (column, row) to stored content."""

    name: str
    cells: dict[tuple[int, int], CellContent] = field(default_factory=dict)

    def used_range(self) -> Rect:
        """Smallest rectangle covering every stored cell."""
        if not self.cells:
            raise EmptySheetError(f"sheet {self.name!r} has no content")
        cols = [c for c, _ in self.cells]
        rows = [r for _, r in self.cells]
        return Rect(min(cols), min(rows), max(cols), max(rows))


@dataclass
class Workbook:
    """A named, ordered collection of worksheets.  Treated as immutable
    once loaded; the analysis never writes back."""

    name: str
    sheets: list[Worksheet] = field(default_factory=list)

    def sheet(self, name: str) -> Worksheet:
        for ws in self.sheets:
            if ws.name == name:
                return ws
        raise KeyError(f"no sheet named {name!r}")


def _cells_pairs_hook(pairs: list[tuple[str, object]]) -> dict:
    # Duplicate keys inside one JSON object are silently collapsed by json.loads,
    # so duplicates are detected here before normalization can hide them.
    seen = set()
    out = {}
    for key, value in pairs:
        if key in seen:
            raise DuplicateCellError(f"duplicate cell address {key!r}")
        seen.add(key)
        out[key] = value
    return out


def _load_cell(address: str, payload: object) -> CellContent | None:
    if not isinstance(payload, dict):
        raise FormatError(f"cell {address!r}: expected an object, got {type(payload).__name__}")
    keys = set(payload)
    if len(keys & {"f", "n", "s"}) != 1 or keys - {"f", "n", "s"}:
        raise FormatError(f"cell {address!r}: exactly one of 'f', 'n', 's' required, got {sorted(keys)}")
    if "f" in payload:
        text = payload["f"]
        if not isinstance(text, str) or not text.startswith("="):
            raise FormatError(f"cell {address!r}: 'f' must be a string starting with '='")
        return CellContent.formula(text)
    if "n" in payload:
        value = payload["n"]
        if isinstance(value, bool):
            return CellContent.number(value)
        if not isinstance(value, (int, float)):
            raise FormatError(f"cell {address!r}: 'n' must be a number")
        return CellContent.number(value)
    value = payload["s"]
    if not isinstance(value, str):
        raise FormatError(f"cell {address!r}: 's' must be a string")
    if value.strip() == "":
        return None
    return CellContent.text(value)


def parse_workbook_json(text: str, *, source: str = "<string>") -> Workbook:
    """Parse canonical workbook JSON into a Workbook."""
    try:
        doc = json.loads(text, object_pairs_hook=_cells_pairs_hook)
    except ValueError as exc:
        # JSONDecodeError, or an integer past Python's digit limit.
        raise FormatError(f"{source}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError(f"{source}: JSON nested too deeply") from exc
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
        if not isinstance(raw_cells, dict):
            raise FormatError(f"{source}: sheet {sheet_name!r}: 'cells' must be an object")
        cells: dict[tuple[int, int], CellContent] = {}
        for addr_text, payload in raw_cells.items():
            column, row = parse_a1(addr_text)
            if (column, row) in cells:
                raise DuplicateCellError(
                    f"{source}: sheet {sheet_name!r}: duplicate cell address {addr_text!r}"
                )
            content = _load_cell(addr_text, payload)
            if content is not None:
                cells[(column, row)] = content
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
        for (column, row) in sorted(ws.cells, key=lambda cr: (cr[1], cr[0])):
            content = ws.cells[(column, row)]
            if content.kind is CellKind.FORMULA:
                cells[to_a1(column, row)] = {"f": content.value}
            elif content.kind is CellKind.NUMBER:
                cells[to_a1(column, row)] = {"n": content.value}
            else:
                cells[to_a1(column, row)] = {"s": content.value}
        sheets.append({"name": ws.name, "cells": cells})
    return json.dumps({"workbook": workbook.name, "sheets": sheets}, indent=2) + "\n"


def save_workbook(workbook: Workbook, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_workbook(workbook))
