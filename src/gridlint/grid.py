"""Fingerprints on a rectangular grid, kept as rows of small integer codes.

Code k stands for `palette[k]`, and codes are numbered 0, 1, 2, ... in
row-major order of first appearance.  The entropy cut sweeps count these
codes without hashing a fingerprint per cell, and `counts_in` counts the
code-row slices of a rectangle.
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
        # code_rows[y - 1][x - 1] is the code of cell (x, y)'s fingerprint.
        self.code_rows = [[codes.setdefault(fp, len(codes)) for fp in row] for row in rows]
        self.height = len(self.code_rows)
        self.width = len(self.code_rows[0]) if self.code_rows else 0
        if self.width < 1:
            raise ValueError("grid must be at least 1x1")
        if any(len(row) != self.width for row in self.code_rows):
            raise ValueError("all rows must have equal length")
        self.palette = tuple(codes)

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
