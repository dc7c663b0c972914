"""Reference implementations the analysis is tested against.

None of this runs in the analysis itself.  Each function is the plain,
cell-by-cell or rebuild-everything definition of something `gridlint`
computes in closed form or incrementally:

* formula references expanded cell by cell, their offset vectors and
  fingerprints (`vectors.rects_fingerprint` sums them per rectangle);
* a sheet's vector table with every formula parsed and every
  fingerprint summed, kept in per-cell dictionaries, and its grid built
  cell by cell (`vectors.analyze_sheet_vectors` parses each formula
  shape once and writes the code rows in its own pass);
* the workbook loader that reads every cell object through one
  validating function (`model.parse_workbook_json` decodes well-formed
  one-key cells as it parses the JSON);
* fingerprint counts in a rectangle by a scan of its cells, and from
  per-code prefix counts (`FingerprintGrid.counts_in` counts code-row
  slices);
* delimiter preprocessing that scores every run-boundary cut with two
  full counts (`entropy.delimiter_splits` sweeps one count per gap),
  with the run boundaries found by where runs start and end
  (`entropy._run_cuts` compares neighbouring run ids);
* fix candidates from every ordered pair of regions, screened by the
  bounding-box rule C1 (`fixes.candidate_fixes` reads only the pairs
  that pass it off an edge index), by C3 over every referenced
  rectangle of every source cell, and by C2 through every cell's kind
  (`fixes.admissible` reads one reference box per formula region and
  decides C2 from the two regions' fingerprints);
* the collision rate from every pair of same-fingerprint formulas,
  each compared by its reference vectors listed cell by cell
  (`collision_rate` of scripts/collision_survey.py counts formulas per
  fingerprint and per canonical form of their vector boxes);
* fix scoring that rebuilds the region layout for every candidate and
  takes the entropy change from the exact sums of both layouts' terms
  (`fixes.entropy_delta` edits one persistent layout, undoes it, and
  sums only the terms the fix changes).
* cluster coloring that scans every edge for each vertex's degree and
  neighbours (`report.assign_colors` builds a neighbour map once).

Helpers only the tests call live here too: `ref_rects`, a formula's
references as rectangles filled in from its parse; `best_split`, a
rectangle's cut and its split entropy; `split_halves`, the two halves
of a cut, which raises `InvalidSplitError` for a cut outside the
rectangle; and the three records of the cell-by-cell definitions,
`RawReference` (one referenced cell as written), `RefVector` (its
offset vector) and `CellAddress` (a cell on a named sheet).
"""

from __future__ import annotations

import bisect
import heapq
import json
import math
import re
from itertools import chain
from operator import add, itemgetter, sub
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Iterable, NamedTuple, Optional, Sequence

from gridlint.entropy import (
    Region,
    EntropyNode,
    _EdgeIndex,
    _axis_runs,
    _union_rect,
    entropy_tree,
    normalized_entropy,
)
from gridlint.fixes import (
    REASON_NOT_FORMULAS,
    REASON_OWN_INPUTS,
    CandidateFix,
    ProposedFix,
    admissible,
    impact_score,
    rect_minus_cell,
)
from gridlint.formula import FormulaParseError, ParsedFormula, RefRect, parse_formula, template_rects
from gridlint.grid import FingerprintGrid
from gridlint.model import (
    CellContent,
    CellKind,
    DuplicateCellError,
    FormatError,
    GridlintError,
    Rect,
    Workbook,
    Worksheet,
    to_a1,
)
from gridlint.report import EXCLUDED_RED, HSL, AdjacencyGraph, next_hue
from gridlint.vectors import (
    EMPTY_FINGERPRINT,
    TEXT_FINGERPRINT,
    Fingerprint,
    SheetVectors,
    is_off_sheet,
    location_fingerprint,
    null_fingerprint,
    rects_fingerprint,
)

MAX_RANGE_CELLS = 2**20


# -- formula references, as rectangles and cell by cell ----------------------


class RangeTooLargeError(GridlintError):
    """Range expansion would exceed MAX_RANGE_CELLS cells."""


@dataclass(frozen=True)
class RawReference:
    """One referenced cell: 1-based coordinates plus per-axis absolute
    flags and optional sheet / workbook qualifiers."""

    column: int
    row: int
    column_absolute: bool = False
    row_absolute: bool = False
    sheet: str | None = None
    workbook: str | None = None


def ref_rects(parsed: ParsedFormula) -> list[RefRect]:
    """All references in source order, each as the rectangle it covers.

    Nothing is expanded, so a whole column costs what one cell does.
    Reversed corners are normalised, and an axis is absolute only when
    both corners agree on it, as for each cell the range covers.
    """
    return list(template_rects(parsed.template, parsed.corners))


def references(parsed: ParsedFormula) -> list[RawReference]:
    """All references in source order; ranges expand to their member cells.

    Duplicates are preserved.  Expansion normalizes reversed corners, and
    each expanded cell inherits an absolute flag only when both corners
    agree on it.  The analysis uses rectangles; this cell-by-cell form is
    the reference the closed forms are tested against.
    """
    out: list[RawReference] = []
    for entry in parsed.template:
        if type(entry) is RefRect:  # a whole line
            flags = entry[4:]
            out.extend(expand_range(RawReference(*entry[:2], *flags), RawReference(*entry[2:4], *flags)))
            continue
        i, j, sheet, workbook = entry
        out.extend(expand_range(RawReference(*parsed.corners[i], sheet, workbook),
                                RawReference(*parsed.corners[j], sheet, workbook)))
    return out


def expand_range(start: RawReference, end: RawReference) -> list[RawReference]:
    lo_col, hi_col = sorted((start.column, end.column))
    lo_row, hi_row = sorted((start.row, end.row))
    count = (hi_col - lo_col + 1) * (hi_row - lo_row + 1)
    if count > MAX_RANGE_CELLS:
        raise RangeTooLargeError(f"range expands to {count} cells (limit {MAX_RANGE_CELLS})")
    col_abs = start.column_absolute and end.column_absolute
    row_abs = start.row_absolute and end.row_absolute
    return [
        RawReference(col, row, col_abs, row_abs, start.sheet, start.workbook)
        for row in range(lo_row, hi_row + 1)
        for col in range(lo_col, hi_col + 1)
    ]


# -- offset vectors and fingerprints, cell by cell ----------------------------


class RefVector(NamedTuple):
    """The offset vector of one referenced cell (`vectors` module docstring)."""

    dx: int
    dy: int
    dz: int
    dc: int


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



def reference_vector(ref: RawReference, column: int, row: int, sheet: str, workbook: str) -> RefVector:
    """Offset vector for one reference written in the cell at (column, row)."""
    if is_off_sheet(ref, sheet, workbook):
        return RefVector(ref.column - 1, ref.row - 1, 1, 0)
    dx = ref.column - 1 if ref.column_absolute else ref.column - column
    dy = ref.row - 1 if ref.row_absolute else ref.row - row
    return RefVector(dx, dy, 0, 0)


def reference_vectors(refs: Iterable[RawReference], column: int, row: int,
                      sheet: str, workbook: str) -> tuple[RefVector, ...]:
    return tuple(reference_vector(r, column, row, sheet, workbook) for r in refs)


def formula_fingerprint(vectors: Iterable[RefVector], has_numeric_constant: bool) -> Fingerprint:
    """The vectors' componentwise sum with the constant flag, or the
    reserved (0, 0, 0, 2 + flag) when the sum is (0, 0, 0), so that no
    formula takes a data cell's fingerprint."""
    x = y = z = c = 0
    for v in vectors:
        x += v.dx
        y += v.dy
        z += v.dz
        c += v.dc
    if has_numeric_constant:
        c = 1
    if (x, y, z) == (0, 0, 0):
        c += 2
    return Fingerprint(x, y, z, c)


@dataclass
class NaiveSheetVectors:
    """A sheet's vector table as per-cell dictionaries, each keyed by
    stored cell in row-major order."""

    sheet_name: str
    workbook_name: str
    rect: Rect
    kinds: dict = field(default_factory=dict)
    fingerprints: dict = field(default_factory=dict)
    refs: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)

    def kind(self, column: int, row: int) -> CellKind:
        return self.kinds.get((column, row), CellKind.EMPTY)

    def fingerprint(self, column: int, row: int) -> Fingerprint:
        return self.fingerprints.get((column, row), EMPTY_FINGERPRINT)


def naive_analyze_sheet_vectors(workbook: Workbook, sheet: Worksheet) -> NaiveSheetVectors:
    """`analyze_sheet_vectors` with every formula cell parsed from its own
    text and its fingerprint summed at that cell."""
    rect = sheet.used_range()
    table = NaiveSheetVectors(sheet.name, workbook.name, rect)
    for (column, row), content in sorted(sheet.cells.items(), key=lambda item: (item[0][1], item[0][0])):
        kind = content.kind
        if kind is CellKind.FORMULA:
            try:
                parsed = parse_formula(content.value)
            except FormulaParseError as exc:
                table.diagnostics.append(
                    f"{sheet.name}!{to_a1(column, row)}: unparseable formula treated as text ({exc})"
                )
                table.kinds[(column, row)] = CellKind.TEXT
                table.fingerprints[(column, row)] = TEXT_FINGERPRINT
                continue
            refs = tuple(ref_rects(parsed))
            table.kinds[(column, row)] = CellKind.FORMULA
            table.refs[(column, row)] = refs
            table.fingerprints[(column, row)] = rects_fingerprint(
                refs, column, row, sheet.name, workbook.name, parsed.numeric_constant
            )
        else:
            table.kinds[(column, row)] = kind
            table.fingerprints[(column, row)] = null_fingerprint(kind)
    return table


def naive_grid(table) -> FingerprintGrid:
    """The used range's fingerprints, re-based to (1, 1), read cell by cell."""
    rect = table.rect
    return FingerprintGrid(
        [table.fingerprint(x, y) for x in range(rect.left, rect.right + 1)]
        for y in range(rect.top, rect.bottom + 1)
    )


def resolve_reference(ref: RawReference, cell: CellAddress) -> CellAddress:
    """Absolute address a reference points at, inheriting the cell's sheet
    and workbook when the reference leaves them implicit."""
    return CellAddress(
        column=ref.column,
        row=ref.row,
        sheet=ref.sheet if ref.sheet is not None else cell.sheet,
        workbook=ref.workbook if ref.workbook is not None else cell.workbook,
    )


# -- fingerprint counts, cell by cell -----------------------------------------


def naive_counts_in(grid: FingerprintGrid, rect: Rect) -> dict:
    """Fingerprint -> cell count inside rect, by a plain cell-by-cell scan."""
    out: dict = {}
    for x, y in rect.cells():
        fp = grid.fingerprint_at(x, y)
        out[fp] = out.get(fp, 0) + 1
    return out


class PrefixCounts:
    """Exact fingerprint counts in any rectangle, from 2-D prefix counts of
    every code built once per grid.

    `prefix[y][x]` holds, in code order, the number of cells of each code
    in columns 1..x of rows 1..y, read off `fingerprint_at`.  A code's
    count in a rectangle combines four entries of these tuples.  Only the
    codes that can lie in the rectangle are counted: codes are numbered
    by first appearance in row-major order, so one that first appears
    after the rectangle's last cell, or last appears before its first
    cell, is not in it.  All-distinct grids thus cost O(cells counted),
    not O(codes), per rectangle.  Nothing here is shared with
    `FingerprintGrid.counts_in`.
    """

    def __init__(self, grid: FingerprintGrid):
        self.palette = grid.palette
        self.width = grid.width
        code_of = {fp: code for code, fp in enumerate(grid.palette)}
        zero = (0,) * len(grid.palette)
        above = [zero] * (grid.width + 1)
        self.prefix = [above]
        # Row-major positions of each code's first and last cell.
        self.first: list[int] = []
        self.last: list[int] = []
        for y in range(1, grid.height + 1):
            line = [0] * len(grid.palette)
            row = [zero]
            for x in range(1, grid.width + 1):
                code = code_of[grid.fingerprint_at(x, y)]
                position = (y - 1) * grid.width + x - 1
                if code == len(self.first):
                    self.first.append(position)
                    self.last.append(position)
                self.last[code] = position
                line[code] += 1
                row.append(tuple(a + b for a, b in zip(above[x], line)))
            self.prefix.append(row)
            above = row
        self.by_last = sorted(range(len(self.last)), key=self.last.__getitem__)
        self.lasts = [self.last[code] for code in self.by_last]
        self._entropies: dict[tuple, float] = {}

    def counts(self, rect: Rect) -> dict[int, int]:
        """Code -> cell count inside rect, in code order, zeros omitted."""
        codes, counts = self._histogram(rect)
        return {code: n for code, n in zip(codes, counts) if n}

    def _histogram(self, rect: Rect) -> tuple[list[int], tuple[int, ...]]:
        """(codes, counts): the codes that can lie in rect, in code order,
        and their counts there, some of them 0."""
        start = (rect.top - 1) * self.width + rect.left - 1
        end = (rect.bottom - 1) * self.width + rect.right - 1
        # Codes last seen at or after the start, less those first seen
        # after the end: codes from bisect_right(first, end) on.
        codes = sorted(self.by_last[bisect.bisect_left(self.lasts, start):])
        del codes[bisect.bisect_left(codes, bisect.bisect_right(self.first, end)):]
        if not codes:
            return codes, ()
        top, bottom = self.prefix[rect.top - 1], self.prefix[rect.bottom]
        take = itemgetter(*codes) if len(codes) > 1 else (lambda row: (row[codes[0]],))
        counts = tuple(map(add, map(sub, map(sub, take(bottom[rect.right]), take(top[rect.right])),
                                        take(bottom[rect.left - 1])), take(top[rect.left - 1])))
        return codes, counts

    def counts_in(self, rect: Rect) -> dict:
        """Fingerprint -> cell count inside rect, in code order; zero
        counts omitted, as `FingerprintGrid.counts_in` returns them."""
        return {self.palette[code]: n for code, n in self.counts(rect).items()}

    def split_entropy(self, region: Rect, index: int, vertical: bool) -> float:
        """`split_entropy` from these counts, in code order as
        `counts_in` returns them."""
        first, second = split_halves(region, index, vertical)
        return self._entropy(first) + self._entropy(second)

    def _entropy(self, rect: Rect) -> float:
        # normalized_entropy is a function of the counts in order and the
        # area: a histogram met before is not summed again.
        key = (tuple(filter(None, self._histogram(rect)[1])), rect.area)
        entropy = self._entropies.get(key)
        if entropy is None:
            entropy = self._entropies[key] = normalized_entropy(*key)
        return entropy


# -- one rectangle's best cut -------------------------------------------------


class InvalidSplitError(GridlintError):
    """A requested cut line does not fall strictly inside the rectangle."""


def split_halves(region: Rect, index: int, vertical: bool) -> tuple[Rect, Rect]:
    """The two sub-rectangles obtained by cutting after column/row `index`."""
    if vertical:
        if not region.left <= index < region.right:
            raise InvalidSplitError(f"cut after column {index} not inside {region}")
        return (
            Rect(region.left, region.top, index, region.bottom),
            Rect(index + 1, region.top, region.right, region.bottom),
        )
    if not region.top <= index < region.bottom:
        raise InvalidSplitError(f"cut after row {index} not inside {region}")
    return (
        Rect(region.left, region.top, region.right, index),
        Rect(region.left, index + 1, region.right, region.bottom),
    )


def split_entropy(grid: FingerprintGrid, region: Rect, index: int, vertical: bool) -> float:
    """Summed normalized entropy of the two halves of a candidate cut,
    each counted with `counts_in`: the score `entropy._cut_search`
    computes from strip histograms."""
    first, second = split_halves(region, index, vertical)
    e1 = normalized_entropy(grid.counts_in(first).values(), first.area)
    e2 = normalized_entropy(grid.counts_in(second).values(), second.area)
    return e1 + e2


def best_split(grid: FingerprintGrid, region: Rect) -> tuple[bool, int, float]:
    """(vertical, index, entropy) of the winning cut for a mixed rectangle.

    The cut with the lowest `split_entropy`; vertical candidates win ties
    against horizontal ones, and within an axis the smallest index
    attaining the minimum wins.  The cut is the root's of the tree over
    `region` (`entropy_tree`), scored with `split_entropy`.
    """
    if region.area == 1:
        raise InvalidSplitError(f"{region} has no interior cut line")
    root = entropy_tree(grid, region)
    # One fingerprint: every cut scores 0.0, so the first one wins.
    vertical, index = ((root.vertical, root.index) if isinstance(root, EntropyNode)
                       else (True, region.left) if region.right > region.left else (False, region.top))
    return vertical, index, split_entropy(grid, region, index, vertical)


# -- delimiter cuts, each scored with two full counts -------------------------


def naive_run_cuts(ids: list[Optional[int]], length: int) -> list[int]:
    """Cut lines at run boundaries: after the line preceding a run start,
    and after a run end, when those fall strictly inside the grid."""
    cuts = set()
    for i in range(1, length + 1):
        if ids[i] is None:
            continue
        starts = i == 1 or ids[i - 1] != ids[i]
        ends = i == length or (i + 1 <= length and ids[i + 1] != ids[i])
        if starts and i > 1:
            cuts.add(i - 1)
        if ends and i < length:
            cuts.add(i)
    return sorted(cuts)


def naive_delimiter_splits(grid: FingerprintGrid) -> list[Rect]:
    """Delimiter pieces, every candidate cut scored with `split_entropy`
    over exact counts: lowest score wins, vertical before horizontal, then
    smallest index.  For a grid at (1, 1)."""
    counter = PrefixCounts(grid)
    # Run ids 1-based behind an unused ids[0], None off the runs.
    col_runs, row_runs = _axis_runs(grid, True), _axis_runs(grid, False)
    col_ids = [None] + [col_runs.get(i) for i in range(1, grid.width + 1)]
    row_ids = [None] + [row_runs.get(i) for i in range(1, grid.height + 1)]
    v_cuts = naive_run_cuts(col_ids, grid.width)
    h_cuts = naive_run_cuts(row_ids, grid.height)
    pieces: list[Rect] = []
    stack = [grid.full_rect()]
    while stack:
        r = stack.pop()
        inside_col_run = col_ids[r.left] is not None and col_ids[r.left] == col_ids[r.right]
        inside_row_run = row_ids[r.top] is not None and row_ids[r.top] == row_ids[r.bottom]
        if inside_col_run or inside_row_run:
            pieces.append(r)
            continue
        cand_v = [i for i in v_cuts if r.left <= i < r.right]
        cand_h = [i for i in h_cuts if r.top <= i < r.bottom]
        if not cand_v and not cand_h:
            pieces.append(r)
            continue
        best_v: Optional[tuple[float, int]] = None
        for i in cand_v:
            e = counter.split_entropy(r, i, True)
            if best_v is None or e < best_v[0]:
                best_v = (e, i)
        best_h: Optional[tuple[float, int]] = None
        for i in cand_h:
            e = counter.split_entropy(r, i, False)
            if best_h is None or e < best_h[0]:
                best_h = (e, i)
        if best_h is None or (best_v is not None and best_v[0] <= best_h[0]):
            assert best_v is not None
            low, high = split_halves(r, best_v[1], True)
        else:
            low, high = split_halves(r, best_h[1], False)
        stack.append(high)
        stack.append(low)
    pieces.sort(key=lambda p: (p.top, p.left))
    return pieces


# -- fix candidates from all region pairs -------------------------------------


def region_key(region: Region) -> tuple:
    """The coalescing and fix order's key with the fingerprint's `repr`
    as a last tie-break, which `entropy._region_key` drops: the naive
    references below order by it, so that they show the tie-break
    never decides."""
    r = region.rect
    return (r.top, r.left, r.bottom, r.right, repr(region.fingerprint))


REASON_NOT_RECTANGULAR = "C1"


def mergeable(a: Rect, b: Rect) -> bool:
    """True when the union of the two rectangles is itself a rectangle."""
    if a.left == b.left and a.right == b.right:
        return a.bottom + 1 == b.top or b.bottom + 1 == a.top
    if a.top == b.top and a.bottom == b.bottom:
        return a.right + 1 == b.left or b.right + 1 == a.left
    return False


def facing_strip(a: Rect, b: Rect) -> Optional[Rect]:
    """The line of cells of `a` whose edge-neighbour lies inside `b`, or
    None when the rectangles share no edge of at least one cell."""
    if a.right + 1 == b.left or b.right + 1 == a.left:
        top, bottom = max(a.top, b.top), min(a.bottom, b.bottom)
        if top > bottom:
            return None
        x = a.right if a.right + 1 == b.left else a.left
        return Rect(x, top, x, bottom)
    if a.bottom + 1 == b.top or b.bottom + 1 == a.top:
        left, right = max(a.left, b.left), min(a.right, b.right)
        if left > right:
            return None
        y = a.bottom if a.bottom + 1 == b.top else a.top
        return Rect(left, y, right, y)
    return None


def naive_candidate_fixes(regions: Sequence[Region]) -> list[CandidateFix]:
    """All (source, target) proposals over ordered adjacent region pairs.

    For each pair this emits the whole source region, plus each single
    boundary cell facing the target in reading order (skipped for
    one-cell regions, where the whole-region candidate is the same thing).
    Most of them fail C1.
    """
    ordered = sorted(regions, key=region_key)
    out: list[CandidateFix] = []
    for a in ordered:
        for b in ordered:
            if a is b or a.fingerprint == b.fingerprint:
                continue
            strip = facing_strip(a.rect, b.rect)
            if strip is None:
                continue
            out.append(CandidateFix(a.rect, a, b))
            if a.rect.area > 1:
                for x, y in strip.cells():
                    out.append(CandidateFix(Rect(x, y, x, y), a, b))
    return out


def reads_only_target(fix: CandidateFix, table) -> bool:
    """Screen C3 cell by cell: true when the source cells reference
    something and every referenced rectangle lies inside the target, on
    this sheet (`fixes.admissible` reads a bounding box per region)."""
    t = fix.target.rect
    found = False
    for cell in fix.source.cells():
        for r in table.refs.get(cell, ()):
            if (is_off_sheet(r, table.sheet_name, table.workbook_name)
                    or r.left < t.left or r.right > t.right or r.top < t.top or r.bottom > t.bottom):
                return False
            found = True
    return found


def walking_admissible(fix: CandidateFix, table) -> Optional[str]:
    """`fixes.admissible` by walking cells: C3 over every source cell,
    then C2 over every cell of both sides, where a cell is a formula
    exactly when it is a key of `table.refs`."""
    if reads_only_target(fix, table):
        return REASON_OWN_INPUTS
    for cell in chain(fix.source.cells(), fix.target.rect.cells()):
        if cell not in table.refs:
            return REASON_NOT_FORMULAS
    return None


def naive_admissible(fix: CandidateFix, table: NaiveSheetVectors) -> Optional[str]:
    """`fixes.admissible` with screen C1 first, and C3 and C2 cell by cell.

    C1: the source and the target must tile an exact rectangle.  Being
    disjoint, they do so exactly when coalescing could merge them.  C3 is
    `reads_only_target`.  C2: every cell of both sides is stored as a
    formula in `table.kinds`."""
    if not mergeable(fix.source, fix.target.rect):
        return REASON_NOT_RECTANGULAR
    if reads_only_target(fix, table):
        return REASON_OWN_INPUTS
    for cell in chain(fix.source.cells(), fix.target.rect.cells()):
        if table.kinds.get(cell) is not CellKind.FORMULA:
            return REASON_NOT_FORMULAS
    return None


# -- fix scoring, rebuilding the layout per candidate ------------------------


def _coalesce_targeted(stable: Sequence[Region], dirty: Sequence[Region]) -> list[Region]:
    """Coalesce when `stable` is already a fixed point and only `dirty`
    regions are new or reshaped; only pairs involving a dirty region can
    merge, which keeps incremental re-coalescing cheap.

    Dirty regions are taken smallest key first; each merges with its
    smallest-keyed partner, found through a fresh edge index, and the
    union is queued as dirty in turn.  Together `stable` and `dirty` must
    tile their area.
    """
    index = _EdgeIndex()
    for region in stable:
        index.add(region)
    queue = [index.add(region) for region in dirty]
    heapq.heapify(queue)
    while queue:
        key = heapq.heappop(queue)
        if key not in index.live:
            continue
        rect, fingerprint = index.live[key]
        partners = index.partners(rect, fingerprint)
        if not partners:
            continue
        current = index.remove(key)
        other = index.remove(min(partners))
        heapq.heappush(queue, index.add(Region(_union_rect(current.rect, other.rect), current.fingerprint)))
    return sorted(index.live.values(), key=region_key)


def naive_coalesce_targeted(stable, dirty):
    """Take the smallest dirty region; merge it with the first mergeable
    region of the sorted list; queue the union; repeat."""
    items = sorted(list(stable) + list(dirty), key=region_key)
    queue = sorted(dirty, key=region_key)
    while queue:
        current = queue.pop(0)
        if current not in items:
            continue
        partner = next(
            (o for o in items
             if o != current and o.fingerprint == current.fingerprint and mergeable(o.rect, current.rect)),
            None,
        )
        if partner is None:
            continue
        items.remove(current)
        items.remove(partner)
        a, b = current.rect, partner.rect
        union = Region(
            Rect(min(a.left, b.left), min(a.top, b.top), max(a.right, b.right), max(a.bottom, b.bottom)),
            current.fingerprint,
        )
        items.append(union)
        items.sort(key=region_key)
        queue = [q for q in queue if q != partner]
        queue.append(union)
        queue.sort(key=region_key)
    return items


def hypothetical_regions(fix: CandidateFix, regions: Sequence[Region]) -> list[Region]:
    """The region set after rewriting the source to the target's
    fingerprint, re-coalesced around the touched regions only."""
    stable = [r for r in regions if r != fix.source_region and r != fix.target]
    dirty: list[Region] = [Region(_union_rect(fix.source, fix.target.rect), fix.target.fingerprint)]
    if fix.source != fix.source_region.rect:
        for frag in rect_minus_cell(fix.source_region.rect, (fix.source.left, fix.source.top)):
            dirty.append(Region(frag, fix.source_region.fingerprint))
    return _coalesce_targeted(stable, dirty)


def layout_entropy(regions: Sequence[Region], total_cells: int) -> float:
    """Normalized entropy of the region-size histogram of a layout."""
    return normalized_entropy([r.rect.area for r in regions], total_cells)


def term_sum(regions: Sequence[Region], total_cells: int) -> Fraction:
    """The exact sum of a layout's entropy terms p*log2(p), p = area /
    total_cells, each the float `normalized_entropy` computes."""
    return sum((Fraction(p * math.log2(p)) for p in (r.rect.area / total_cells for r in regions)), Fraction(0))


def rebuilt_entropy_delta(fix: CandidateFix, regions: Sequence[Region], total_cells: int,
                          before: Optional[Fraction] = None) -> float:
    """Layout entropy after the fix minus before it, from a rebuilt layout.

    The entropy is minus the term sum, so the change is the before
    layout's exact term sum less the after layout's, rounded once to a
    float and normalized.  `before`, when given, must be
    term_sum(regions, total_cells).
    """
    if before is None:
        before = term_sum(regions, total_cells)
    after = term_sum(hypothetical_regions(fix, regions), total_cells)
    scale = 1.0 / math.log2(total_cells) if total_cells > 1 else 0.0
    return float(before - after) * scale


def rebuilt_score_candidates(
    candidates: Sequence[CandidateFix],
    table: SheetVectors,
    regions: Sequence[Region],
    total_cells: int,
) -> list[ProposedFix]:
    """`fixes.score_candidates` with the layout rebuilt for each candidate."""
    out: list[ProposedFix] = []
    before = term_sum(regions, total_cells)
    for fix in candidates:
        if admissible(fix, table) is not None:
            continue
        delta = rebuilt_entropy_delta(fix, regions, total_cells, before)
        if delta >= 0:
            continue
        distance = naive_fix_distance(fix, table)
        target = fix.target.rect
        out.append(ProposedFix(fix.source, target, delta, distance, impact_score(target.area, delta, distance)))
    return out


def naive_fix_distance(fix: CandidateFix, table: SheetVectors) -> float:
    """`fixes.fix_distance` with the target's references summed again at
    each source cell, moved there by `location_fingerprint`'s shift."""
    t = fix.target.rect
    rep_refs = table.refs.get((t.left, t.top), ())
    total = 0.0
    for x, y in fix.source.cells():
        as_is = location_fingerprint(table.refs.get((x, y), ()), table.sheet_name, table.workbook_name)
        would_be = location_fingerprint(rep_refs, table.sheet_name, table.workbook_name, (x - t.left, y - t.top))
        total += math.sqrt(
            (as_is.x - would_be.x) ** 2
            + (as_is.y - would_be.y) ** 2
            + (as_is.z - would_be.z) ** 2
        )
    return total


# -- cluster coloring, every edge scanned per vertex -------------------------


def naive_assign_colors(graph: AdjacencyGraph,
                        excluded: Optional[tuple[float, float]] = EXCLUDED_RED) -> dict[Hashable, Optional[HSL]]:
    """`report.assign_colors` with each vertex's degree and neighbours
    found by a scan of every edge, O(V*E) in all (`assign_colors` builds
    a neighbour map once)."""

    def degree(v: Hashable) -> int:
        return sum(1 for e in graph.edges if v in e)

    def neighbors(v: Hashable) -> list[Hashable]:
        out = []
        for e in graph.edges:
            if v in e:
                (other,) = e - {v}
                out.append(other)
        return out

    order = sorted(
        graph.vertices,
        key=lambda v: (-degree(v), -graph.sizes.get(v, 1), graph.anchors.get(v, (0, 0))),
    )
    palette: list[float] = []
    index_of: dict[Hashable, int] = {}
    colors: dict[Hashable, Optional[HSL]] = {}
    for v in order:
        if v in graph.uncolorable:
            colors[v] = None
            continue
        taken = {index_of[n] for n in neighbors(v) if n in index_of}
        k = 0
        while k in taken:
            k += 1
        while k >= len(palette):
            palette.append(next_hue(set(palette), excluded))
        index_of[v] = k
        colors[v] = (palette[k], 1.0, 0.5)
    return colors


# -- the collision rate, pair by pair ----------------------------------------


def naive_collision_rate(tables: Sequence[SheetVectors]) -> float:
    """The collision rate of scripts/collision_survey.py by comparing
    every pair of formulas that share a fingerprint, each formula found
    by the kind of its cell and compared by the set of its reference
    vectors, listed cell by cell."""
    groups: dict[Fingerprint, list[frozenset]] = {}
    for table in tables:
        for column, row in table.rect.cells():
            if table.kind(column, row) is not CellKind.FORMULA:
                continue
            vectors = frozenset(
                reference_vector(RawReference(c, r, rect.column_absolute, rect.row_absolute, rect.sheet, rect.workbook),
                                 column, row, table.sheet_name, table.workbook_name)
                for rect in table.refs[(column, row)]
                for r in range(rect.top, rect.bottom + 1)
                for c in range(rect.left, rect.right + 1)
            )
            groups.setdefault(table.fingerprint(column, row), []).append(vectors)
    pairs = collisions = 0
    for members in groups.values():
        for i, key in enumerate(members):
            for other in members[i + 1:]:
                pairs += 1
                collisions += key != other
    return collisions / pairs if pairs else 0.0


# -- the workbook loader, every cell through one validating function ---------

_A1_ADDRESS = re.compile(r"([A-Za-z]+)([0-9]+)")


def naive_parse_a1(text: str) -> tuple[int, int]:
    """`model.parse_a1` with the column summed letter by letter."""
    m = _A1_ADDRESS.fullmatch(text)
    if not m:
        raise FormatError(f"invalid cell address: {text!r}")
    try:
        row = int(m.group(2))
    except ValueError:
        raise FormatError(f"invalid cell address: row of {len(m.group(2))} digits") from None
    column = 0
    for ch in m.group(1).upper():
        column = column * 26 + (ord(ch) - ord("A") + 1)
    if column > 16_384 or row < 1:
        raise FormatError(f"invalid cell address: {text!r} is outside the sheet")
    return column, row


def _naive_load_cell(address: str, payload: object) -> Optional[CellContent]:
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
        if not isinstance(value, (bool, int, float)):
            raise FormatError(f"cell {address!r}: 'n' must be a number")
        return CellContent.number(value)
    value = payload["s"]
    if not isinstance(value, str):
        raise FormatError(f"cell {address!r}: 's' must be a string")
    if value.strip() == "":
        return None
    return CellContent.text(value)


def naive_parse_workbook_json(text: str, *, source: str = "<string>") -> Workbook:
    """`model.parse_workbook_json` with every JSON object decoded to a dict
    and every cell object validated by one function."""
    repeated: list = []

    def pairs_hook(pairs):
        out: dict = {}
        for key, value in pairs:
            if key in out and not repeated:
                repeated.append((out, key))
            out[key] = value
        return out

    try:
        doc = json.loads(text, object_pairs_hook=pairs_hook)
    except ValueError as exc:
        raise FormatError(f"{source}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError(f"{source}: JSON nested too deeply") from exc
    if repeated:
        obj, key = repeated[0]
        sheets = doc.get("sheets") if isinstance(doc, dict) else None
        owners = [raw for raw in (sheets if isinstance(sheets, list) else [])
                  if isinstance(raw, dict) and raw.get("cells") is obj]
        if owners:
            raise DuplicateCellError(f"{source}: sheet {owners[0].get('name')!r}: duplicate cell address {key!r}")
        raise FormatError(f"{source}: duplicate key {key!r}")
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
        cells: dict = {}
        for addr_text, payload in raw_cells.items():
            column, row = naive_parse_a1(addr_text)
            if (column, row) in cells:
                raise DuplicateCellError(
                    f"{source}: sheet {sheet_name!r}: duplicate cell address {addr_text!r}"
                )
            content = _naive_load_cell(addr_text, payload)
            if content is not None:
                cells[(column, row)] = content
        sheets.append(Worksheet(sheet_name, cells))
    return Workbook(name, sheets)
