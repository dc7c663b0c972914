"""Candidate-fix generation, screening, scoring, and ranking.

A fix proposes rewriting a source rectangle to follow the reference
pattern of an adjacent target region.  The source is either the whole
region next to the target or one of its boundary cells facing the
target, so every source is a Rect and its cells are listed only when a
kept fix is reported.  Candidates are read off an edge index of the
regions, so each source merges with its target into one rectangle, by
the rule coalescing uses (the paper's screen C1), by construction.  The
pipeline indexes only the formula regions (`build_fixes`), so both
sides are formulas (the paper's screen C2) by construction too.  One
screen decides (C3: an aggregate is never rewritten to match its own
inputs); `admissible` still applies C2 to a candidate built by hand.
Survivors are scored by how much the rewrite simplifies the sheet
layout versus how far the formulas must move, and reported within a
flagged-cell budget.

Costs.  A sheet's formula regions are sorted and indexed once, into one
`Layout` that both candidate generation and scoring read; a data
region's edges are never indexed, paired or screened.  For R formula
regions, candidates cost O(R log R) plus O(1) each: a source's
whole-region targets are four lookups in the layout's edge index, and
its one-cell targets are bisected out of sorted lists of the regions
one cell wide, so no boundary cell is probed.  C3 reads one reference
box per formula region (`Screens`), computed the first time the region
is a whole source, so a formula region's cells are read at most once
and a data region's never.  A one-cell source reads its own
references.  The distance sums each formula cell's referenced locations
once per sheet, however many candidates it is a side of
(`Screens.location`).
Every candidate of a sheet is scored against the same `Layout`: its
edge index, and the regions' entropy terms p*log2(p) cached per area.
A candidate then costs up to five new regions (the merged rectangle and
a one-cell source's fragments), four edge lookups for each, plus one
`math.fsum` over the terms of the regions it takes out and puts in.
Most fixes merge nothing further, and that is all they cost.  A fix
whose new regions do merge on runs its merge cascade in a small edge
index of its own regions, reading the layout's beside it, a few
dictionary lookups per merge.  No fix edits the layout's index.
`fsum` is correctly rounded, so the delta is the exact change of the
layout's term sum rounded once, and a fix that keeps the multiset of
region areas scores exactly 0.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from fractions import Fraction
from itertools import chain, product
from typing import Mapping, NamedTuple, Optional, Sequence

from .entropy import Region, _EdgeIndex, _region_key, _union_rect
from .formula import RefRect
from .model import GridlintError, Rect
from .vectors import DATA_KINDS, LocFingerprint, SheetVectors, is_off_sheet, location_fingerprint

DEFAULT_THRESHOLD = 0.05  # fraction of a sheet's cells a reader inspects (`rank_and_cut`)

# Rejection codes for inadmissible candidates.
REASON_NOT_FORMULAS = "C2"
REASON_OWN_INPUTS = "C3"


class NonNegativeDeltaError(GridlintError):
    """Scoring requires an entropy-reducing fix."""


class CandidateFix(NamedTuple):
    """An unscored rewrite proposal, in sheet coordinates."""

    source: Rect  # source_region.rect, or one of its cells facing the target
    source_region: Region
    target: Region


class ProposedFix(NamedTuple):
    """A scored candidate, holding what ranking and the report read: the
    source to rewrite, its target region's rectangle, the rewrite's
    entropy change and formula movement, and its `impact_score`."""

    source: Rect
    target: Rect
    delta_entropy: float
    distance: float
    score: float

    @property
    def source_cells(self) -> tuple[tuple[int, int], ...]:
        """The source's (column, row) cells in reading order."""
        return tuple(self.source.cells())


class Layout:
    """Regions of one sheet's tiling, indexed once for every candidate
    fix proposed and scored on it.

    `build_fixes` gives it the sheet's formula regions, which are part of
    a tiling of `total_cells` cells but not the whole tiling, so no data
    region's edges are indexed; any regions that are part of a tiling
    will do.  Holds one edge index over the regions, which names each
    region by its `_region_key`, and each area's entropy term p*log2(p)
    for the whole sheet's `total_cells`.  The regions are added in key
    order and nothing edits the index once it is built, so `index.live`
    lists them in that order.
    """

    def __init__(self, regions: Sequence[Region], total_cells: int) -> None:
        self.index = _EdgeIndex()
        for region in sorted(regions, key=_region_key):
            self.index.add(region)
        self.total_cells = total_cells
        self.scale = 1.0 / math.log2(total_cells) if total_cells > 1 else 0.0
        self._terms: dict[int, float] = {}

    def term(self, area: int) -> float:
        """p*log2(p) for p = area / total_cells, as `normalized_entropy`
        computes it, once per distinct area."""
        t = self._terms.get(area)
        if t is None:
            p = area / self.total_cells
            t = self._terms[area] = p * math.log2(p)
        return t


def _one_wide_lines(live: Mapping[tuple, Region]) -> tuple[dict, dict, dict, dict]:
    """The regions one cell wide across a side, by the line that side
    lies on: one-column regions by their bottom row and by their top row,
    one-row regions by their right column and by their left column.  Each
    line is a sorted list of (position along it, key), from regions by
    their `_region_key`."""
    lines: tuple[dict, dict, dict, dict] = ({}, {}, {}, {})
    bottoms, tops, rights, lefts = lines
    for key, region in live.items():
        r = region.rect
        if r.left == r.right:
            bottoms.setdefault(r.bottom, []).append((r.left, key))
            tops.setdefault(r.top, []).append((r.left, key))
        if r.top == r.bottom:
            rights.setdefault(r.right, []).append((r.top, key))
            lefts.setdefault(r.left, []).append((r.top, key))
    for by_line in lines:
        for line in by_line.values():
            line.sort()
    return lines


def _within(line: list[tuple[int, tuple]], low: int, high: int) -> list[tuple[int, tuple]]:
    """The (position, key) pairs of a sorted line with low <= position <= high."""
    return line[bisect_left(line, (low,)):bisect_left(line, (high + 1,))]


def candidate_fixes(layout: Layout) -> list[CandidateFix]:
    """Every (source, target) proposal whose two sides tile a rectangle,
    among the layout's regions.

    Reads the layout's edge index, whose regions are part of a tiling.
    Over the formula regions that `build_fixes` indexes, both sides are
    formulas, so C2 holds by construction as C1 does.  Sources go in
    (top, left, bottom, right) order, as the index lists them.  A
    target faces a full side of the whole source, or an outward side of
    one boundary cell with a one-cell edge, so it faces at most one cell
    (skipped for one-cell regions, where the whole region is that cell).
    Targets carry another fingerprint and go in the same order, each with
    the whole region first, then the cell.

    The whole-region targets are four lookups in the edge index.  The
    one-cell targets are the regions one cell wide across a side, found
    by bisecting the line beyond that side over its span, so a source
    costs O(log R + its targets) for R regions.  Targets are sorted by
    their `_region_key`, the order above.
    """
    index = layout.index
    bottoms, tops, rights, lefts = _one_wide_lines(index.live)
    out: list[CandidateFix] = []
    for a in index.live.values():
        r = a.rect
        left, top, right, bottom = r
        whole = index.facing(*r)
        cells: dict[tuple, tuple[int, int]] = {}  # key -> the one boundary cell it faces
        if left != right or top != bottom:
            cells.update((key, (x, top)) for x, key in _within(bottoms.get(top - 1, []), left, right))
            cells.update((key, (x, bottom)) for x, key in _within(tops.get(bottom + 1, []), left, right))
            cells.update((key, (left, y)) for y, key in _within(rights.get(left - 1, []), top, bottom))
            cells.update((key, (right, y)) for y, key in _within(lefts.get(right + 1, []), top, bottom))
        for key in sorted({*whole, *cells}):
            b = index.live[key]
            if b.fingerprint == a.fingerprint:
                continue
            if key in whole:
                out.append(CandidateFix(r, a, b))
            cell = cells.get(key)
            if cell is not None:
                x, y = cell
                out.append(CandidateFix(Rect(x, y, x, y), a, b))
    return out


class Screens:
    """What screen C3 and the distance read of one sheet's formulas, each
    computed once per sheet: for a rectangle of formulas, the bounding
    box of every rectangle its cells reference (None when they reference
    nothing or another sheet), keyed by the rectangle; and for a cell, its
    location fingerprint, keyed by the cell."""

    def __init__(self, table: SheetVectors) -> None:
        self.table = table
        self._boxes: dict[Rect, Optional[tuple[int, int, int, int]]] = {}
        self._locations: dict[tuple[int, int], LocFingerprint] = {}

    def location(self, x: int, y: int) -> LocFingerprint:
        """`location_fingerprint` of cell (x, y)'s references."""
        loc = self._locations.get((x, y))
        if loc is None:
            table = self.table
            loc = self._locations[x, y] = location_fingerprint(table.refs.get((x, y), ()), table.sheet_name,
                                                               table.workbook_name)
        return loc

    def box(self, rect: Rect) -> Optional[tuple[int, int, int, int]]:
        """The reference box of a rectangle whose every cell is a formula."""
        if rect not in self._boxes:
            left, top, right, bottom = rect
            cells = product(range(left, right + 1), range(top, bottom + 1))
            rects = list(chain.from_iterable(map(self.table.refs.__getitem__, cells)))
            self._boxes[rect] = self.reference_box(rects)
        return self._boxes[rect]

    def reference_box(self, rects: Sequence[RefRect]) -> Optional[tuple[int, int, int, int]]:
        """(left, top, right, bottom) around the rectangles; None when there
        are none or one lies on another sheet (`vectors.is_off_sheet`)."""
        if not rects:
            return None
        lefts, tops, rights, bottoms, _, _, sheets, workbooks = zip(*rects)
        table = self.table
        if not ({None, table.sheet_name}.issuperset(sheets) and {None, table.workbook_name}.issuperset(workbooks)):
            return None
        return min(lefts), min(tops), max(rights), max(bottoms)


def admissible(fix: CandidateFix, table: SheetVectors, screens: Optional[Screens] = None) -> Optional[str]:
    """None when the fix passes both screens, else its rejection code.

    C1 (source and target tile one rectangle) holds by construction of
    `candidate_fixes`, through the edge index, and in the pipeline so
    does C2, since `build_fixes` indexes only formula regions.  This
    screens any candidate, one built by hand included:

    C3: an aggregate whose referents all sit inside the target is
        reporting on that data, not mistakenly diverging from it; skip,
        unless no source formula references anything at all.
    C2: both sides must consist entirely of formulas.  A region's cells
        share its fingerprint, and no formula has a data cell's, so a
        side fails exactly when its fingerprint is in `DATA_KINDS`.

    C3 is decided first for a formula source, off `screens`' reference
    box of a whole-region source or a one-cell source's own references;
    a data source fails C2 and reads no cell.  `screens` holds the boxes
    across the candidates of one sheet; by default the call builds its
    own.
    """
    source, region, target = fix.source, fix.source_region, fix.target
    if region.fingerprint in DATA_KINDS:
        return REASON_NOT_FORMULAS
    if screens is None:
        screens = Screens(table)
    if source.left == source.right and source.top == source.bottom:
        box = screens.reference_box(table.refs[source.left, source.top])
    else:
        box = screens.box(source)
    t = target.rect
    if box is not None and t.left <= box[0] and t.top <= box[1] and box[2] <= t.right and box[3] <= t.bottom:
        return REASON_OWN_INPUTS
    if target.fingerprint in DATA_KINDS:
        return REASON_NOT_FORMULAS
    return None


def rect_minus_cell(rect: Rect, cell: tuple[int, int]) -> list[Rect]:
    """Partition rect minus one interior-or-edge cell into up to 4 rects:
    full-width bands above and below, then the left/right remainders of
    the cell's own row."""
    cx, cy = cell
    left, top, right, bottom = rect
    out: list[Rect] = []
    if cy > top:
        out.append(Rect(left, top, right, cy - 1))
    if cx > left:
        out.append(Rect(left, cy, cx - 1, cy))
    if cx < right:
        out.append(Rect(cx + 1, cy, right, cy))
    if cy < bottom:
        out.append(Rect(left, cy + 1, right, bottom))
    return out


def entropy_delta(fix: CandidateFix, layout: Layout) -> float:
    """Layout entropy after the fix minus before it.

    The fix takes the source and target out of the layout and puts new
    regions in: their merged rectangle, and for a one-cell source the
    fragments of the source around that cell (`rect_minus_cell`).  The
    new regions then re-coalesce with their neighbours only: taken
    smallest key first, each merges with its smallest-keyed partner and
    the union is queued in turn.  The entropy is minus the sum of the
    regions' terms, so its change is the removed regions' terms less the
    added ones', summed by `math.fsum` and normalized.

    Most fixes merge nothing further, and those are scored in closed
    form: when no new region faces a region of its own fingerprint (the
    source and target aside), the delta is the fsum of the source's and
    target's terms less the new regions'.  That is what the cascade
    returns.  Its queue holds only the new regions, and none of them has
    a partner.  Not among the other regions: the check reads the index
    as built, where a full edge belongs to at most one region, so each
    lookup finds what it would find after the edit, except that the new
    regions are not there yet and the source and target, which are
    skipped, still are.  Not among the new regions either, which never
    partner each other: the merged region carries the target's
    fingerprint and the fragments the source's, which differ, and the
    fragments are separated by the removed cell's row or column.  So the
    cascade would merge nothing, and `fsum`, being correctly rounded,
    gives the same float in any order of the terms.

    Otherwise the cascade runs on a small edge index of the fix's own
    regions, the new ones and their unions, beside `gone`, the keys of
    the layout regions taken out.  A region's partners are its partners
    among its own index's regions and among the layout's outside `gone`;
    the layout's index is read, never edited.  Both are live regions of
    one tiling, so the fix's own keys never equal a layout key outside
    `gone`, and a key once merged away never comes back (`_EdgeIndex`):
    a popped key missing from the small index is stale.
    """
    index, term = layout.index, layout.term
    source, target = fix.source_region, fix.target
    gone = {_region_key(source), _region_key(target)}
    new = [Region(_union_rect(fix.source, target.rect), target.fingerprint)]
    if fix.source != source.rect:
        new += [Region(frag, source.fingerprint)
                for frag in rect_minus_cell(source.rect, (fix.source.left, fix.source.top))]
    if not any(key not in gone for region in new for key in index.partners(region.rect, region.fingerprint)):
        terms = [term(source.rect.area), term(target.rect.area)]
        terms += [-term(region.rect.area) for region in new]
        return math.fsum(terms) * layout.scale

    own = _EdgeIndex()
    queue = [own.add(region) for region in new]
    heapq.heapify(queue)
    while queue:
        key = heapq.heappop(queue)
        if key not in own.live:
            continue
        rect, fingerprint = own.live[key]
        partners = own.partners(rect, fingerprint)
        partners += [k for k in index.partners(rect, fingerprint) if k not in gone]
        if not partners:
            continue
        partner = min(partners)
        own.remove(key)
        if partner in own.live:
            other = own.remove(partner)
        else:
            gone.add(partner)
            other = index.live[partner]
        heapq.heappush(queue, own.add(Region(_union_rect(rect, other.rect), fingerprint)))

    terms = [term(index.live[key].rect.area) for key in gone]
    terms += [-term(region.rect.area) for region in own.live.values()]
    return math.fsum(terms) * layout.scale


def fix_distance(fix: CandidateFix, table: SheetVectors, screens: Optional[Screens] = None) -> float:
    """Total movement of the source cells' referenced-location sums.

    Each source cell contributes the Euclidean distance between its
    current location fingerprint and the one it would have after taking
    on the target's reference pattern, re-anchored at its own position.
    Unchanged cells contribute nothing.  The fix must have passed C2, so
    the target's top-left cell is a formula that carries its pattern.

    The target's pattern is summed once: moved by (dc, dr), its location
    fingerprint shifts by exactly (dc * nx, dr * ny, 0), nx and ny being
    the cells its on-sheet references cover with a relative column, row.
    Every location fingerprint is read from `screens` (`Screens.location`),
    so across the candidates of one sheet each cell is summed once; by
    default the call builds its own.
    """
    if screens is None:
        screens = Screens(table)
    t = fix.target.rect
    sheet, workbook = table.sheet_name, table.workbook_name
    rep_refs = table.refs.get((t.left, t.top), ())
    rep = screens.location(t.left, t.top)
    nx = ny = 0
    for rect in rep_refs:
        if not is_off_sheet(rect, sheet, workbook):
            n = (rect.right - rect.left + 1) * (rect.bottom - rect.top + 1)
            nx += 0 if rect.column_absolute else n
            ny += 0 if rect.row_absolute else n
    total = 0.0
    for x, y in fix.source.cells():
        as_is = screens.location(x, y)
        total += math.sqrt(
            (as_is.x - rep.x - (x - t.left) * nx) ** 2
            + (as_is.y - rep.y - (y - t.top) * ny) ** 2
            + (as_is.z - rep.z) ** 2
        )
    return total


def impact_score(target_size: int, delta_entropy: float, distance: float) -> float:
    """target size / (entropy drop x movement), movement clamped to >= 1.

    Big targets are strong evidence; tiny entropy drops mean the rewrite
    barely perturbs the layout (a surgical fix); both push the score up.
    """
    if delta_entropy >= 0:
        raise NonNegativeDeltaError(f"delta_entropy {delta_entropy} is not a reduction")
    return target_size / (-delta_entropy * max(distance, 1.0))


def score_candidates(candidates: Sequence[CandidateFix], table: SheetVectors, layout: Layout) -> list[ProposedFix]:
    """Screen, score, and wrap candidates; inadmissible or
    non-entropy-reducing ones are dropped.  Every candidate is scored
    against `layout`, the sheet's one."""
    out: list[ProposedFix] = []
    screens = Screens(table)
    for fix in candidates:
        if admissible(fix, table, screens) is not None:
            continue
        delta = entropy_delta(fix, layout)
        if delta >= 0:
            continue
        distance = fix_distance(fix, table, screens)
        target = fix.target.rect
        out.append(ProposedFix(fix.source, target, delta, distance, impact_score(target.area, delta, distance)))
    return out


def _rank_key(fix: ProposedFix) -> tuple:
    s, t = fix.source, fix.target
    return (
        -fix.score,
        s.area,
        (s.top, s.left),
        (t.top, t.left, t.bottom, t.right),
    )


def rank_and_cut(fixes: Sequence[ProposedFix], threshold: float, total_cells: int) -> list[ProposedFix]:
    """Order fixes and keep the best within the flagged-cell budget.

    Budget = ceil(threshold x total cells), computed in exact rational
    arithmetic: 0.05 x 100 must give 5, not the 6 that float rounding of
    ceil(5.000000000000001) would.  Only one fix per distinct source
    rectangle survives; emission stops at the first fix that would
    overflow the budget.
    """
    budget = math.ceil(Fraction(str(threshold)) * total_cells)
    ranked = sorted(fixes, key=_rank_key)
    seen: set[Rect] = set()
    out: list[ProposedFix] = []
    flagged = 0
    for fix in ranked:
        if fix.source in seen:
            continue
        seen.add(fix.source)
        if flagged + fix.source.area > budget:
            break
        flagged += fix.source.area
        out.append(fix)
    return out


def build_fixes(
    table: SheetVectors,
    regions: Sequence[Region],
    total_cells: int,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[ProposedFix]:
    """End-to-end: candidates -> screens -> scores -> ranked audit list,
    all read off one `Layout` of the formula regions among `regions`, a
    tiling of a sheet of `total_cells` cells.

    A data region (fingerprint in `DATA_KINDS`) is never indexed, so no
    candidate has a data side and C2 holds by construction, as C1 does.
    The result is exactly that of a layout of every region, with C2
    rejecting the candidates that have a data side:

    * Every region a scored fix reads is a formula region.  Its source
      and target pass C2.  The merged region takes the target's
      fingerprint, and a one-cell source's fragments the source's; a
      partner shares the fingerprint of the region it merges with.
    * In a tiling at most one region owns a given full edge, so a lookup
      in the index of the formula regions finds exactly what the same
      lookup in the index of all of them finds once filtered by
      fingerprint: the whole-region targets, the one-cell targets bisected
      out of the one-wide lines, and the partners of `entropy_delta`.
    * Sources still come in key order, and each source's targets sorted
      by key, so the candidates are those of the full layout that pass
      C2, in the same order.
    * `total_cells` is passed on unchanged, so every entropy term and
      `Layout.scale` is the same float.

    So the scored list, the ranking and every float are unchanged.
    """
    layout = Layout([region for region in regions if region.fingerprint not in DATA_KINDS], total_cells)
    scored = score_candidates(candidate_fixes(layout), table, layout)
    return rank_and_cut(scored, threshold, total_cells)
