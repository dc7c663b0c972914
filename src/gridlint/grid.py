"""Fingerprints on a rectangular grid, kept as rows of small integer codes.

Code k stands for `palette[k]`, and codes are numbered 0, 1, 2, ... in
row-major order of first appearance.  The entropy cut sweeps count these
codes without hashing a fingerprint per cell, and `counts_in` counts the
code-row slices of a rectangle.  `vectors.analyze_sheet_vectors` writes
a sheet's code rows in its own pass over the cells (`from_codes`).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Hashable, Iterable

from .model import Rect

Fingerprintish = Hashable


class FingerprintGrid:
    """Immutable w x h grid of fingerprints as code rows and a palette."""

    def __init__(self, rows: Iterable[Iterable[Fingerprintish]]):
        codes: dict[Fingerprintish, int] = {}
        self._adopt([[codes.setdefault(fp, len(codes)) for fp in row] for row in rows], tuple(codes))

    @classmethod
    def from_codes(cls, code_rows: list[list[int]], palette: tuple) -> "FingerprintGrid":
        """The grid whose code rows and palette are given, numbered as
        `FingerprintGrid(rows)` numbers them."""
        grid = cls.__new__(cls)
        grid._adopt(code_rows, palette)
        return grid

    def _adopt(self, code_rows: list[list[int]], palette: tuple) -> None:
        # code_rows[y - 1][x - 1] is the code of cell (x, y)'s fingerprint.
        self.code_rows = code_rows
        self.height = len(code_rows)
        self.width = len(code_rows[0]) if code_rows else 0
        if self.width < 1:
            raise ValueError("grid must be at least 1x1")
        if any(len(row) != self.width for row in code_rows):
            raise ValueError("all rows must have equal length")
        self.palette = palette

    def full_rect(self) -> Rect:
        return Rect(1, 1, self.width, self.height)

    def fingerprint_at(self, x: int, y: int) -> Fingerprintish:
        return self.palette[self.code_rows[y - 1][x - 1]]

    def counts_in(self, rect: Rect) -> dict[Fingerprintish, int]:
        """Fingerprint -> cell count inside rect, in code order; zero
        counts omitted."""
        if rect.right > self.width or rect.bottom > self.height:
            raise ValueError(f"{rect} exceeds grid {self.width}x{self.height}")
        counts = Counter(chain.from_iterable(
            row[rect.left - 1:rect.right] for row in self.code_rows[rect.top - 1:rect.bottom]))
        return {self.palette[code]: counts[code] for code in sorted(counts)}
