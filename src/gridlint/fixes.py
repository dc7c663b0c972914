"""Candidate-fix generation, screening, scoring, and ranking.

A fix proposes rewriting a source rectangle to follow the reference
pattern of an adjacent target region.  The source is either the whole
region next to the target or one of its boundary cells facing the
target, so every source is a Rect and its cells are listed only when a
kept fix is reported.  Candidates are read off an edge index of the
regions, so each source merges with its target into one rectangle, by
the rule coalescing uses (the paper's screen C1), by construction.  Two
screens remain (C3: an aggregate is never rewritten to match its own
inputs; C2: both sides must be formulas).  Survivors are scored by how
much the rewrite simplifies the sheet layout versus how far the
formulas must move, and reported within a flagged-cell budget.

Costs.  A sheet's regions are sorted and indexed once, into one
`Layout` that both candidate generation and scoring read.  For R
regions, candidates cost O(R log R) plus O(1) each: a source's
whole-region targets are four lookups in the layout's edge index, and
its one-cell targets are bisected out of sorted lists of the regions
one cell wide, so no boundary cell is probed.  No formula has a data
cell's fingerprint, so C2 compares the two sides' fingerprints with
those of data cells and reads no cell.  C3 reads one reference box per
formula region (`Screens`), computed the first time the region is a
whole source, so a formula region's cells are read at most once and a
data region's never.  A one-cell source reads its own references.
Every candidate of a sheet is scored against the same `Layout`: its
edge index, and the regions' entropy terms p*log2(p) cached per area.
A candidate then costs up to five new regions (the merged rectangle and
a one-cell source's fragments), four edge lookups for each, plus one
`math.fsum` over the terms of the regions it takes out and puts in.
Most fixes merge nothing further, and that is all they cost: the edge
index is not edited.  A fix whose new regions do merge on runs its
merge cascade on the index, a few dictionary lookups per merge, and
puts the index back.  `fsum` is correctly rounded, so the delta is the
exact change of the layout's term sum rounded once, and a fix that
keeps the multiset of region areas scores exactly 0.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from fractions import Fraction
from itertools import chain, product
from typing import NamedTuple, Optional, Sequence

from .entropy import Region, _EdgeIndex, _region_key, _union_rect
from .formula import RefRect
from .model import GridlintError, Rect
from .vectors import DATA_KINDS, SheetVectors, location_fingerprint

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
    """One sheet's tiling, indexed once for every candidate fix proposed
    and scored on it.

    Holds the regions in `_region_key` order, one edge index over them in
    which `regions[k]` has serial k + 1, the serial of each region, and
    each area's entropy term p*log2(p).  `entropy_delta` edits the index
    for one fix and then puts it back as it was built.
    """

    def __init__(self, regions: Sequence[Region], total_cells: int) -> None:
        self.regions = sorted(regions, key=_region_key)
        self.index = _EdgeIndex()
        self.serials = {region: self.index.add(region) for region in self.regions}
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


def _one_wide_lines(ordered: Sequence[Region]) -> tuple[dict, dict, dict, dict]:
    """The regions one cell wide across a side, by the line that side
    lies on: one-column regions by their bottom row and by their top row,
    one-row regions by their right column and by their left column.  Each
    line is a list of (position along it, serial), sorted; the serial of
    a region is its place in `ordered`, counted from 1, as in `Layout`."""
    lines: tuple[dict, dict, dict, dict] = ({}, {}, {}, {})
    bottoms, tops, rights, lefts = lines
    for serial, region in enumerate(ordered, 1):
        r = region.rect
        if r.left == r.right:
            bottoms.setdefault(r.bottom, []).append((r.left, serial))
            tops.setdefault(r.top, []).append((r.left, serial))
        if r.top == r.bottom:
            rights.setdefault(r.right, []).append((r.top, serial))
            lefts.setdefault(r.left, []).append((r.top, serial))
    for by_line in lines:
        for line in by_line.values():
            line.sort()
    return lines


def _within(line: list[tuple[int, int]], low: int, high: int) -> list[tuple[int, int]]:
    """The (position, serial) pairs of a sorted line with low <= position <= high."""
    return line[bisect_left(line, (low,)):bisect_left(line, (high + 1,))]


def candidate_fixes(layout: Layout) -> list[CandidateFix]:
    """Every (source, target) proposal whose two sides tile a rectangle.

    Reads the layout's regions, which tile their area, and its edge
    index as built.  Sources go in (top, left, bottom, right) order.  A
    target faces a full side of the whole source, or an outward side of
    one boundary cell with a one-cell edge, so it faces at most one cell
    (skipped for one-cell regions, where the whole region is that cell).
    Targets carry another fingerprint and go in the same order, each with
    the whole region first, then the cell.

    The whole-region targets are four lookups in the edge index.  The
    one-cell targets are the regions one cell wide across a side, found
    by bisecting the line beyond that side over its span, so a source
    costs O(log R + its targets) for R regions.  The layout numbers its
    regions in the order above, so the targets sort as their serials do.
    """
    ordered, index = layout.regions, layout.index
    bottoms, tops, rights, lefts = _one_wide_lines(ordered)
    out: list[CandidateFix] = []
    for a in ordered:
        r = a.rect
        left, top, right, bottom = r
        whole = index.facing(*r)
        cells: dict[int, tuple[int, int]] = {}  # serial -> the one boundary cell it faces
        if left != right or top != bottom:
            cells.update((serial, (x, top)) for x, serial in _within(bottoms.get(top - 1, []), left, right))
            cells.update((serial, (x, bottom)) for x, serial in _within(tops.get(bottom + 1, []), left, right))
            cells.update((serial, (left, y)) for y, serial in _within(rights.get(left - 1, []), top, bottom))
            cells.update((serial, (right, y)) for y, serial in _within(lefts.get(right + 1, []), top, bottom))
        for serial in sorted({*whole, *cells}):
            b = ordered[serial - 1]
            if b.fingerprint == a.fingerprint:
                continue
            if serial in whole:
                out.append(CandidateFix(r, a, b))
            if serial in cells:
                x, y = cells[serial]
                out.append(CandidateFix(Rect(x, y, x, y), a, b))
    return out


class Screens:
    """What screen C3 reads of one sheet's formula regions: for a
    rectangle of formulas, the bounding box of every rectangle its cells
    reference (None when they reference nothing or another sheet),
    computed once and keyed by the rectangle."""

    def __init__(self, table: SheetVectors) -> None:
        self.table = table
        self._boxes: dict[Rect, Optional[tuple[int, int, int, int]]] = {}

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
    `candidate_fixes`, through the edge index.

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
    form, without touching the edge index: when no new region faces a
    region of its own fingerprint (the source and target aside), the
    delta is the fsum of the source's and target's terms less the new
    regions'.  That is what the cascade returns.  Its queue holds only
    the new regions, and none of them has a partner.  Not among the
    other regions: the check reads the index as built, where a full
    edge belongs to at most one region, so each lookup finds what it
    would find after the edit, except that the new regions are not there
    yet and the source and target, which are skipped, still are.  Not
    among the new regions either, which never partner each other: the
    merged region carries the target's fingerprint and the fragments the
    source's, which differ, and the fragments are separated by the
    removed cell's row or column.  So the cascade would merge nothing,
    and `fsum`, being correctly rounded, gives the same float in any
    order of the terms.

    Otherwise the cascade runs on the layout's edge index, which is
    restored before returning.
    """
    index, term = layout.index, layout.term
    source, target = fix.source_region, fix.target
    taken = (layout.serials[source], layout.serials[target])
    new = [Region(_union_rect(fix.source, target.rect), target.fingerprint)]
    if fix.source != source.rect:
        new += [Region(frag, source.fingerprint)
                for frag in rect_minus_cell(source.rect, (fix.source.left, fix.source.top))]
    live = index.live
    if not any(live[serial].fingerprint == region.fingerprint
               for region in new for serial in index.facing(*region.rect) if serial not in taken):
        terms = [term(source.rect.area), term(target.rect.area)]
        terms += [-term(region.rect.area) for region in new]
        return math.fsum(terms) * layout.scale

    removed: list[tuple[int, Region]] = []  # base regions taken out
    added: set[int] = set()  # serials of live new regions
    queue: list[tuple] = []

    def take(serial: int) -> Region:
        # A new region that merges away leaves nothing to restore.
        if serial in added:
            added.remove(serial)
        else:
            removed.append((serial, live[serial]))
        return index.remove(serial)

    def put(region: Region) -> None:
        serial = index.add(region)
        added.add(serial)
        heapq.heappush(queue, (_region_key(region), serial))

    for serial in taken:
        take(serial)
    for region in new:
        put(region)
    while queue:
        _, serial = heapq.heappop(queue)
        if serial not in live:
            continue
        partners = index.partners(serial)
        if not partners:
            continue
        partner = min(partners, key=lambda s: _region_key(live[s]))
        current = take(serial)
        other = take(partner)
        put(Region(_union_rect(current.rect, other.rect), current.fingerprint))

    terms = [term(region.rect.area) for _, region in removed]
    terms += [-term(live[serial].rect.area) for serial in added]
    for serial in added:
        index.remove(serial)
    for serial, region in removed:
        index.add(region, serial)
    return math.fsum(terms) * layout.scale


def fix_distance(fix: CandidateFix, table: SheetVectors) -> float:
    """Total movement of the source cells' referenced-location sums.

    Each source cell contributes the Euclidean distance between its
    current location fingerprint and the one it would have after taking
    on the target's reference pattern, re-anchored at its own position.
    Unchanged cells contribute nothing.  The fix must have passed C2, so
    the target's top-left cell is a formula that carries its pattern.
    """
    t = fix.target.rect
    rep = (t.left, t.top)
    rep_refs = table.refs.get(rep, ())
    total = 0.0
    for x, y in fix.source.cells():
        as_is = location_fingerprint(table.refs.get((x, y), ()), table.sheet_name, table.workbook_name)
        would_be = location_fingerprint(rep_refs, table.sheet_name, table.workbook_name, (x - rep[0], y - rep[1]))
        total += math.sqrt(
            (as_is.x - would_be.x) ** 2
            + (as_is.y - would_be.y) ** 2
            + (as_is.z - would_be.z) ** 2
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
        distance = fix_distance(fix, table)
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
    all read off one `Layout` of `regions`."""
    layout = Layout(regions, total_cells)
    scored = score_candidates(candidate_fixes(layout), table, layout)
    return rank_and_cut(scored, threshold, total_cells)
