"""Bit-parallel occupancy index for fingerprints on a rectangular grid.

The grid is kept once, as rows of small integer codes: code k stands for
`palette[k]`, and codes are numbered 0, 1, 2, ... in row-major order of
first appearance.  The entropy cut sweep counts these codes without
hashing a fingerprint per cell.

One arbitrary-precision integer per code holds a bit for every cell
carrying it; cell (x, y) maps to bit (y-1)*width + (x-1).  Counting a
fingerprint inside a rectangle is then a popcount of (bitvector AND
rectangle-mask), and a rectangle mask is built with two multiplications
instead of a per-row loop.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from .model import Rect

Fingerprintish = Hashable


class FingerprintGrid:
    """Immutable w x h grid of fingerprints with per-code bitvectors."""

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
        bitvectors = [0] * len(codes)
        for y, row in enumerate(self.code_rows):
            # Gather each code's bits within the row first, so the
            # full-size bitvector is touched once per code per row.
            row_bits: dict[int, int] = {}
            for x, code in enumerate(row):
                row_bits[code] = row_bits.get(code, 0) | (1 << x)
            base = y * self.width
            for code, bits in row_bits.items():
                bitvectors[code] |= bits << base
        self.bitvectors = bitvectors
        self._row_multipliers: dict[int, int] = {}

    def full_rect(self) -> Rect:
        return Rect(1, 1, self.width, self.height)

    def fingerprint_at(self, x: int, y: int) -> Fingerprintish:
        return self.palette[self.code_rows[y - 1][x - 1]]

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
        """Fingerprint -> cell count inside rect, in code order; zero
        counts omitted."""
        mask = self.rect_mask(rect)
        out = {}
        for fp, bv in zip(self.palette, self.bitvectors):
            n = (bv & mask).bit_count()
            if n:
                out[fp] = n
        return out
