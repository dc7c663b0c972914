"""Bit-parallel occupancy index for fingerprints on a rectangular grid.

One arbitrary-precision integer per distinct fingerprint holds a bit for
every cell carrying it; cell (x, y) maps to bit (y-1)*width + (x-1).
Counting a fingerprint inside a rectangle is then a popcount of
(bitvector AND rectangle-mask), and a rectangle mask is built with two
multiplications instead of a per-row loop.

The same scan also numbers the fingerprints 0, 1, 2, ... in bitvector
order and keeps the grid as rows of those small integer codes, which the
entropy cut sweep counts without hashing a fingerprint per cell.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from .model import Rect

Fingerprintish = Hashable


class FingerprintGrid:
    """Immutable w x h grid of fingerprints with per-fingerprint bitvectors."""

    def __init__(self, width: int, height: int, cells: Mapping[tuple[int, int], Fingerprintish]):
        if width < 1 or height < 1:
            raise ValueError("grid must be at least 1x1")
        self.width = width
        self.height = height
        self._cells = dict(cells)
        bitvectors: dict[Fingerprintish, int] = {}
        codes: dict[Fingerprintish, int] = {}
        code_rows: list[list[int]] = []
        for y in range(1, height + 1):
            base = (y - 1) * width
            row = []
            for x in range(1, width + 1):
                fp = self._cells[(x, y)]
                bitvectors[fp] = bitvectors.get(fp, 0) | (1 << (base + x - 1))
                row.append(codes.setdefault(fp, len(codes)))
            code_rows.append(row)
        self.bitvectors = bitvectors
        # code_rows[y - 1][x - 1] is the position of cell (x, y)'s
        # fingerprint in bitvectors' iteration order.
        self.code_rows = code_rows
        self._row_multipliers: dict[int, int] = {}

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Fingerprintish]]) -> "FingerprintGrid":
        """Build from a row-major nested sequence of fingerprints."""
        grid_rows = [list(r) for r in rows]
        height = len(grid_rows)
        width = len(grid_rows[0]) if grid_rows else 0
        if any(len(r) != width for r in grid_rows):
            raise ValueError("all rows must have equal length")
        cells = {
            (x + 1, y + 1): grid_rows[y][x]
            for y in range(height)
            for x in range(width)
        }
        return cls(width, height, cells)

    def full_rect(self) -> Rect:
        return Rect(1, 1, self.width, self.height)

    def fingerprint_at(self, x: int, y: int) -> Fingerprintish:
        return self._cells[(x, y)]

    def bit_index(self, x: int, y: int) -> int:
        return (y - 1) * self.width + (x - 1)

    def _multiplier(self, nrows: int) -> int:
        # Sum of 2**(k*width) for k < nrows: multiplying a single-row mask by
        # this stamps it onto nrows consecutive rows at once.
        m = self._row_multipliers.get(nrows)
        if m is None:
            m = 0
            for k in range(nrows):
                m |= 1 << (k * self.width)
            self._row_multipliers[nrows] = m
        return m

    def rect_mask(self, rect: Rect) -> int:
        if rect.right > self.width or rect.bottom > self.height:
            raise ValueError(f"{rect} exceeds grid {self.width}x{self.height}")
        row_run = ((1 << rect.width) - 1) << (rect.left - 1)
        return (row_run * self._multiplier(rect.height)) << ((rect.top - 1) * self.width)

    def counts_in(self, rect: Rect) -> dict[Fingerprintish, int]:
        """Fingerprint -> cell count inside rect; zero counts omitted."""
        mask = self.rect_mask(rect)
        out = {}
        for fp, bv in self.bitvectors.items():
            n = (bv & mask).bit_count()
            if n:
                out[fp] = n
        return out

    def naive_counts_in(self, rect: Rect) -> dict[Fingerprintish, int]:
        """Plain cell-by-cell scan; the independent check for counts_in."""
        out: dict[Fingerprintish, int] = {}
        for x, y in rect.cells():
            fp = self._cells[(x, y)]
            out[fp] = out.get(fp, 0) + 1
        return out

    def distinct_in(self, rect: Rect) -> frozenset:
        return frozenset(self.counts_in(rect))

    def relabel(self, replacements: Mapping[tuple[int, int], Fingerprintish]) -> "FingerprintGrid":
        """New grid with some cells' fingerprints replaced."""
        cells = dict(self._cells)
        cells.update(replacements)
        return FingerprintGrid(self.width, self.height, cells)
