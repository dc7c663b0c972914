"""Fingerprints on a rectangular grid, kept as rows of small integer codes.

Code k stands for `palette[k]`, and codes are numbered 0, 1, 2, ... in
row-major order of first appearance.  The grid sits where its cells sit
on the sheet: its top-left cell is (left, top), (1, 1) by default, and
every coordinate it takes or returns is a sheet coordinate.  The entropy
cut sweeps count these codes without hashing a fingerprint per cell,
reading a rectangle's code-row slices (`block`) or one cell's code
(`code_at`).
`vectors.analyze_sheet_vectors` codes a sheet's stored cells in its own
pass and hands them over with the used range (`from_cells`).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat
from operator import getitem
from typing import Hashable, Iterable, Iterator

from .model import Rect

Fingerprintish = Hashable


class FingerprintGrid:
    """Immutable w x h grid of fingerprints as code rows and a palette."""

    def __init__(self, rows: Iterable[Iterable[Fingerprintish]]):
        codes: dict[Fingerprintish, int] = {}
        self._adopt([[codes.setdefault(fp, len(codes)) for fp in row] for row in rows], tuple(codes), 1, 1)

    @classmethod
    def from_codes(cls, code_rows: list[list[int]], palette: tuple, left: int, top: int) -> "FingerprintGrid":
        """The grid whose code rows and palette are given, numbered as
        `FingerprintGrid(rows)` numbers them, with its top-left cell at
        (left, top)."""
        grid = cls.__new__(cls)
        grid._adopt(code_rows, palette, left, top)
        return grid

    @classmethod
    def from_cells(cls, rect: Rect, cells: Iterable[tuple[int, int]], codes: Iterable[int], blank: int,
                   palette: tuple) -> "FingerprintGrid":
        """The grid over `rect` whose listed cells have the given codes and
        whose every other cell has the code `blank`."""
        left, top = rect.left, rect.top
        blank_row = [blank] * rect.width
        code_rows = [blank_row] * rect.height
        for (column, row), code in zip(cells, codes):
            line = code_rows[row - top]
            if line is blank_row:
                line = code_rows[row - top] = blank_row.copy()
            line[column - left] = code
        return cls.from_codes(code_rows, palette, left, top)

    def _adopt(self, code_rows: list[list[int]], palette: tuple, left: int, top: int) -> None:
        # code_rows[y - top][x - left] is the code of cell (x, y)'s fingerprint.
        self.code_rows = code_rows
        self.height = len(code_rows)
        self.width = len(code_rows[0]) if code_rows else 0
        if self.width < 1:
            raise ValueError("grid must be at least 1x1")
        if any(len(row) != self.width for row in code_rows):
            raise ValueError("all rows must have equal length")
        self.palette = palette
        self.left = left
        self.top = top

    def full_rect(self) -> Rect:
        return Rect(self.left, self.top, self.left + self.width - 1, self.top + self.height - 1)

    def block(self, rect: Rect) -> Iterator[list[int]]:
        """The code-row slices of `rect`, top to bottom; it must lie inside
        the grid.  Each slice is made as it is read, so counting a tall
        rectangle never holds all of them."""
        columns = slice(rect.left - self.left, rect.right - self.left + 1)
        return map(getitem, self.code_rows[rect.top - self.top:rect.bottom - self.top + 1], repeat(columns))

    def code_at(self, x: int, y: int) -> int:
        return self.code_rows[y - self.top][x - self.left]

    def fingerprint_at(self, x: int, y: int) -> Fingerprintish:
        return self.palette[self.code_at(x, y)]

    def counts_in(self, rect: Rect) -> dict[Fingerprintish, int]:
        """Fingerprint -> cell count inside rect, in code order; zero
        counts omitted."""
        full = self.full_rect()
        if not (full.left <= rect.left and rect.right <= full.right
                and full.top <= rect.top and rect.bottom <= full.bottom):
            raise ValueError(f"{rect} exceeds grid {full}")
        counts = Counter(chain.from_iterable(self.block(rect)))
        return {self.palette[code]: counts[code] for code in sorted(counts)}
