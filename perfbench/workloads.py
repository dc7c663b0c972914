"""Seeded synthetic workbooks, each with the fingerprints it must get.

Every formula is written through `Sheet.formula`, which renders the A1
text from reference objects and, at the same time, sums the reference
vectors of those objects in closed form: relative axes count from the
formula's cell, absolute axes from the sheet origin, and a reference to
another sheet uses the origin rule on both axes and counts 1 in z. A
range contributes the sum over its rectangle without listing its cells,
and an axis of a range is absolute only when both corners anchor it.
The constant slot is 1 exactly when the formula text holds a number.
None of this calls into gridlint, so the fingerprints the program
reports can be checked against it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

NUMBER_FP = (0, 0, 0, 1)
TEXT_FP = (0, 0, 0, -1)


def letters(column: int) -> str:
    out = ""
    while column > 0:
        column, rem = divmod(column - 1, 26)
        out = chr(ord("A") + rem) + out
    return out


def a1(column: int, row: int) -> str:
    return f"{letters(column)}{row}"


def _prefix(sheet: Optional[str]) -> str:
    if sheet is None:
        return ""
    if sheet.replace("_", "a").isalnum() and not sheet[0].isdigit():
        return f"{sheet}!"
    return "'" + sheet.replace("'", "''") + "'!"


class Ref(NamedTuple):
    column: int
    row: int
    col_abs: bool = False
    row_abs: bool = False
    sheet: Optional[str] = None

    def text(self) -> str:
        return (_prefix(self.sheet) + ("$" if self.col_abs else "") + letters(self.column)
                + ("$" if self.row_abs else "") + str(self.row))


class Rng(NamedTuple):
    first: Ref
    last: Ref

    def text(self) -> str:
        bare = self.last._replace(sheet=None)
        return f"{self.first.text()}:{bare.text()}"


Part = Union[Ref, Rng]


def _axis_sum(lo: int, hi: int, anchored: bool, origin: int) -> int:
    """Sum of the offsets of lo..hi from `origin`, or from 1 when anchored."""
    count = hi - lo + 1
    return (lo + hi) * count // 2 - count * (1 if anchored else origin)


def part_vector(part: Part, column: int, row: int, sheet: str) -> tuple[int, int, int]:
    """Closed-form (x, y, z) sum of one reference or range written at (column, row)."""
    first, last = (part, part) if isinstance(part, Ref) else part
    off = first.sheet is not None and first.sheet != sheet
    c0, c1 = sorted((first.column, last.column))
    r0, r1 = sorted((first.row, last.row))
    width, height = c1 - c0 + 1, r1 - r0 + 1
    col_abs = off or (first.col_abs and last.col_abs)
    row_abs = off or (first.row_abs and last.row_abs)
    x = height * _axis_sum(c0, c1, col_abs, column)
    y = width * _axis_sum(r0, r1, row_abs, row)
    return x, y, width * height if off else 0


@dataclass
class Sheet:
    name: str
    cells: dict = field(default_factory=dict)      # (col, row) -> cell payload
    expected: dict = field(default_factory=dict)   # (col, row) -> fingerprint
    injected: list = field(default_factory=list)   # cells holding a seeded error
    may_be_text: list = field(default_factory=list)  # formulas a parser may refuse

    def number(self, column: int, row: int, value: float) -> None:
        self.cells[(column, row)] = {"n": value}
        self.expected[(column, row)] = NUMBER_FP

    def text(self, column: int, row: int, value: str) -> None:
        self.cells[(column, row)] = {"s": value}
        self.expected[(column, row)] = TEXT_FP

    def formula(self, column: int, row: int, template: str, *parts: Part, const: bool = False) -> None:
        """Write `template` with each `{}` replaced by a part's A1 text.

        `const` says whether the template holds a numeric literal.
        """
        self.cells[(column, row)] = {"f": template.format(*(p.text() for p in parts))}
        x = y = z = 0
        for p in parts:
            dx, dy, dz = part_vector(p, column, row, self.name)
            x, y, z = x + dx, y + dy, z + dz
        self.expected[(column, row)] = (x, y, z, 1 if const else 0)


@dataclass
class Book:
    name: str
    sheets: list[Sheet]

    def gridbook(self) -> str:
        return json.dumps({
            "workbook": self.name,
            "sheets": [
                {"name": s.name,
                 "cells": {a1(c, r): payload for (c, r), payload in sorted(
                     s.cells.items(), key=lambda item: (item[0][1], item[0][0]))}}
                for s in self.sheets
            ],
        })

    def expectation(self) -> dict:
        out = {}
        for s in self.sheets:
            cols = [c for c, _ in s.cells]
            rows = [r for _, r in s.cells]
            out[s.name] = {
                "rect": [min(cols), min(rows), max(cols), max(rows)] if s.cells else None,
                "fingerprints": [[c, r, *fp] for (c, r), fp in sorted(s.expected.items())],
                "injected": sorted(s.injected),
                "may_be_text": sorted(s.may_be_text),
            }
        return {"workbook": self.name, "sheets": out}


# ---------------------------------------------------------------- corpus

ROW_LABELS = ("North", "South", "East", "West", "Retail", "Online", "Export", "Other")


def _table(sheet: Sheet, rng: random.Random, left: int, top: int, shape: tuple[int, int],
           params: Optional[str]) -> int:
    """One report table at (left, top); returns its bottom row.

    Layout: a text header row, text row labels, a block of numbers, a row
    total per row, a share of the grand total per row (row-anchored), a
    scaled column that reads a rate on another sheet when `params` names
    one, and a column-total row. One row total skips the block's last
    column.
    """
    rows, cols = shape
    first_row, last_row = top + 1, top + rows
    total_row = last_row + 1
    first_col, last_col = left + 1, left + cols
    total_col, share_col = last_col + 1, last_col + 2
    sheet.text(left, top, "Region")
    for c in range(first_col, last_col + 1):
        sheet.text(c, top, f"Q{c - left}")
    sheet.text(total_col, top, "Total")
    sheet.text(share_col, top, "Share")
    if params is not None:
        sheet.text(share_col + 1, top, "Scaled")
    percent = rng.random() < 0.5
    bad = rng.randint(first_row, last_row)
    for r in range(first_row, last_row + 1):
        sheet.text(left, r, f"{rng.choice(ROW_LABELS)} {r - top}")
        for c in range(first_col, last_col + 1):
            sheet.number(c, r, float(rng.randint(1, 999)))
        end = last_col - 1 if r == bad else last_col
        sheet.formula(total_col, r, "=SUM({})", Rng(Ref(first_col, r), Ref(end, r)))
        share = Ref(total_col, total_row, row_abs=True)
        if percent:
            sheet.formula(share_col, r, "={}/{}*100", Ref(total_col, r), share, const=True)
        else:
            sheet.formula(share_col, r, "={}/{}", Ref(total_col, r), share)
        if params is not None:
            sheet.formula(share_col + 1, r, "={}*{}", Ref(total_col, r),
                          Ref(2, 2, True, True, params))
    sheet.injected.append((total_col, bad))
    sheet.text(left, total_row, "Total")
    for c in range(first_col, total_col + 1):
        sheet.formula(c, total_row, "=SUM({})", Rng(Ref(c, first_row), Ref(c, last_row)))
    return total_row


RATES = "Rate Table"


def paper_layouts(count: int) -> list[list[list[tuple[int, int, bool]]]]:
    """Book -> sheet -> table (rows, columns, scaled) shapes: 2-4 sheets of
    1-3 tables. Fixed for every seed, so that the seed moves values,
    labels, offsets and the injected errors but not the amount of work."""
    rng = random.Random(20190130)
    return [
        [[(rng.randint(8, 16), rng.randint(3, 5), rng.random() < 0.25)
          for _ in range(rng.randint(1, 3))]
         for _ in range(rng.randint(2, 4))]
        for _ in range(count)
    ]


def paper_book(rng: random.Random, name: str, layout) -> Book:
    """Stacked tables on several sheets, the mixed layout the paper measures."""
    sheets = []
    for k, tables in enumerate(layout):
        sheet = Sheet(f"Sheet{k + 1}")
        top = 1
        left = rng.randint(1, 2)
        for rows, cols, scaled in tables:
            params = RATES if scaled else None
            top = _table(sheet, rng, left, top, (rows, cols), params) + rng.randint(2, 3)
        sheets.append(sheet)
    if any(scaled for tables in layout for _, _, scaled in tables):
        rates = Sheet(RATES)
        rates.text(1, 2, "rate")
        rates.number(2, 2, round(rng.uniform(0.5, 2.0), 3))
        sheets.append(rates)
    return Book(name, sheets)


def stripes_book(rng: random.Random, columns: int, rows: int) -> Book:
    """Repeating number / number / number / row-sum / blank column stripes."""
    sheet = Sheet("Sheet1")
    for col in range(1, columns + 1):
        role = (col - 1) % 5
        for row in range(1, rows + 1):
            if role < 3:
                sheet.number(col, row, float(rng.randint(1, 50)))
            elif role == 3:
                sheet.formula(col, row, "=SUM({})", Rng(Ref(col - 3, row), Ref(col - 1, row)))
    sheet.number(columns, rows, 1.0)
    return Book(f"stripes_{columns}x{rows}", [sheet])


CORPUS_BOOKS = 40


def corpus(seed: int) -> list[Book]:
    rng = random.Random(seed)
    books = [paper_book(rng, f"paper_{k:02d}", layout)
             for k, layout in enumerate(paper_layouts(CORPUS_BOOKS))]
    books.append(stripes_book(rng, 100, 100))
    books.append(stripes_book(rng, 200, 200))
    return books


# ---------------------------------------------------------- adversarial


def running_totals_book(rng: random.Random, n: int) -> Book:
    """Column A numbers, B{r} = SUM($A$1:A{r}): every row a new fingerprint."""
    sheet = Sheet("Sheet1")
    for r in range(1, n + 1):
        sheet.number(1, r, float(rng.randint(1, 99)))
        sheet.formula(2, r, "=SUM({})", Rng(Ref(1, 1, True, True), Ref(1, r)))
    return Book(f"running_totals_{n}", [sheet])


NOISE_LABELS = 4
NOISY_SIZES = (16, 22)
NOISY_COPIES = 3


def noisy_book(rng: random.Random, n: int, name: str, mask_seed: int) -> Book:
    """n x n numbers with 30% of the cells holding one of four labels.

    A label is a formula reading a fixed cell, so each has its own
    fingerprint wherever it lands. Which cells are noise, and which of
    them share a label, comes from `mask_seed`; `rng` permutes the labels
    and draws the numbers. How long coalescing takes depends strongly on
    the noise pattern, so the pattern is fixed and the work is the same
    for every seed.
    """
    sheet = Sheet("Sheet1")
    positions = [(x, y) for y in range(1, n + 1) for x in range(1, n + 1)]
    mask = random.Random(mask_seed)
    noise = mask.sample(positions, round(0.3 * len(positions)))
    groups = {p: k % NOISE_LABELS for k, p in enumerate(noise)}
    label_rows = rng.sample(range(1, NOISE_LABELS + 1), NOISE_LABELS)
    for x, y in positions:
        if (x, y) in groups:
            sheet.formula(x, y, "={}", Ref(26, label_rows[groups[(x, y)]], True, True))
        else:
            sheet.number(x, y, float(rng.randint(1, 9)))
    return Book(name, [sheet])


DEEP_NESTING = 5000


def deep_book() -> Book:
    """One formula nested 5,000 parentheses deep; the same for every seed."""
    sheet = Sheet("Sheet1")
    sheet.number(1, 1, 1.0)
    sheet.formula(2, 1, "=" + "(" * DEEP_NESTING + "{}+1" + ")" * DEEP_NESTING, Ref(1, 1), const=True)
    sheet.may_be_text.append((2, 1))
    return Book("deep_formula", [sheet])


def adversarial(seed: int) -> list[Book]:
    rng = random.Random(seed)
    books = [running_totals_book(rng, 100), running_totals_book(rng, 200)]
    for size in NOISY_SIZES:
        books.extend(noisy_book(rng, size, f"noisy_{size}x{size}_{k}", mask_seed=size * 100 + k)
                     for k in range(NOISY_COPIES))
    books.append(deep_book())
    return books


# -------------------------------------------------------------- lookups

DATA_ROWS = 400
REPORT_ROWS = 30


def lookup_book(rng: random.Random, name: str, bad_col: int) -> Book:
    """A keyed Data table and a Report that looks it up three ways.

    Report rows copy down VLOOKUP, SUMIF and INDEX-MATCH over absolute
    ranges of the Data sheet. One lookup range in column `bad_col` (2-4),
    at a seeded row, stops one row short.
    """
    data = Sheet("Data")
    last = DATA_ROWS + 1
    for c, title in enumerate(("Key", "Group", "Units", "Price", "Amount"), start=1):
        data.text(c, 1, title)
    keys = [f"K{k:04d}" for k in rng.sample(range(10000), DATA_ROWS)]
    for r, key in enumerate(keys, start=2):
        data.text(1, r, key)
        data.text(2, r, f"G{rng.randint(1, 9)}")
        for c in (3, 4, 5):
            data.number(c, r, float(rng.randint(1, 500)))

    report = Sheet("Report")
    report.text(1, 1, "Lookup report")
    for c, title in enumerate(("Key", "Price", "Group total", "Units"), start=1):
        report.text(c, 3, title)
    bad_row = rng.randint(6, 3 + REPORT_ROWS - 1)

    def absolute(c0: int, c1: int, short: bool) -> Rng:
        end = last - 1 if short else last
        return Rng(Ref(c0, 2, True, True, "Data"), Ref(c1, end, True, True, "Data"))

    for r in range(4, 4 + REPORT_ROWS):
        key = Ref(1, r, col_abs=True)
        report.text(1, r, rng.choice(keys))
        short = r == bad_row
        report.formula(2, r, "=VLOOKUP({},{},4,0)", key,
                       absolute(1, 5, short and bad_col == 2), const=True)
        report.formula(3, r, "=SUMIF({},{},{})", absolute(1, 1, short and bad_col == 3), key,
                       absolute(5, 5, short and bad_col == 3))
        report.formula(4, r, "=INDEX({},MATCH({},{},0))", absolute(3, 3, short and bad_col == 4),
                       key, absolute(1, 1, short and bad_col == 4), const=True)
    report.injected.append((bad_col, bad_row))
    return Book(name, [data, report])


def column_sum_book(rng: random.Random, rows: int) -> Book:
    """One =SUM(B1:B<rows>) beside a few labelled numbers."""
    sheet = Sheet("Sheet1")
    for r in range(1, 6):
        sheet.text(1, r, f"item {r}")
        sheet.number(2, r, float(rng.randint(1, 99)))
    sheet.formula(3, 1, "=SUM({})", Rng(Ref(2, 1), Ref(2, rows)))
    return Book(f"sum_{rows}", [sheet])


LOOKUP_BOOKS = 4


def lookups(seed: int) -> list[Book]:
    rng = random.Random(seed)
    # Which column is short is fixed per book: its cost differs by column.
    books = [lookup_book(rng, f"lookup_{k}", 2 + k % 3) for k in range(LOOKUP_BOOKS)]
    books.append(column_sum_book(rng, 200_000))
    books.append(column_sum_book(rng, 1_100_000))
    return books


WORKLOADS: dict[str, Callable[[int], list[Book]]] = {
    "corpus": corpus,
    "adversarial": adversarial,
    "lookups": lookups,
}
