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

Costs.  Candidates cost four dictionary lookups per region and per
boundary cell, O(cells) at worst.  C2 walks a side's cells only when
its region has a data cell's fingerprint.  Every candidate of a sheet is scored
against one `Layout`, built once in O(R) for R regions: their entropy
terms p*log2(p) cached per area, and one edge index.  A candidate then
costs its merge cascade, a few dictionary lookups per merge, plus one
`math.fsum` over the terms of the regions it takes out and puts in.
`fsum` is correctly rounded, so the delta is the exact change of the
layout's term sum rounded once, and a fix that keeps the multiset of
region areas scores exactly 0.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, NamedTuple, Optional, Sequence

from .entropy import Region, _EdgeIndex, _region_key, _union_rect
from .model import GridlintError, Rect
from .vectors import DATA_KINDS, SheetVectors, is_off_sheet, location_fingerprint

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


@dataclass(frozen=True)
class ProposedFix:
    sheet: str
    source: Rect
    source_fingerprint: Hashable
    target: Rect
    target_fingerprint: Hashable
    target_size: int
    delta_entropy: float
    distance: float
    score: float

    @property
    def source_cells(self) -> tuple[tuple[int, int], ...]:
        """The source's (column, row) cells in reading order."""
        return tuple(self.source.cells())


def _boundary_cells(r: Rect) -> set[tuple[int, int]]:
    cells = {(x, y) for x in (r.left, r.right) for y in range(r.top, r.bottom + 1)}
    cells.update((x, y) for y in (r.top, r.bottom) for x in range(r.left, r.right + 1))
    return cells


def candidate_fixes(regions: Sequence[Region]) -> list[CandidateFix]:
    """Every (source, target) proposal whose two sides tile a rectangle.

    `regions` must tile their area.  Sources go in (top, left, bottom,
    right) order.  A target faces a full side of the whole source, or an
    outward side of one boundary cell with a one-cell edge, so it faces at
    most one cell (skipped for one-cell regions, where the whole region is
    that cell).  Targets carry another fingerprint and go in the same
    order, each with the whole region first, then the cell.
    """
    index = _EdgeIndex()
    for region in regions:
        index.add(region)
    out: list[CandidateFix] = []
    for a in sorted(regions, key=_region_key):
        r = a.rect
        whole = index.facing(r.left, r.top, r.right, r.bottom)
        cells: dict[int, Rect] = {}
        if r.area > 1:
            for x, y in _boundary_cells(r):
                for serial in index.facing(x, y, x, y):
                    cells[serial] = Rect(x, y, x, y)
        for serial in sorted({*whole, *cells}, key=lambda s: _region_key(index.live[s])):
            b = index.live[serial]
            if b.fingerprint == a.fingerprint:
                continue
            if serial in whole:
                out.append(CandidateFix(r, a, b))
            if serial in cells:
                out.append(CandidateFix(cells[serial], a, b))
    return out


def _reads_only_target(fix: CandidateFix, table: SheetVectors) -> bool:
    """True when the source cells reference something and every referenced
    rectangle lies inside the target, on this sheet."""
    t = fix.target.rect
    found = False
    for cell in fix.source.cells():
        for r in table.refs.get(cell, ()):
            if (is_off_sheet(r, table.sheet_name, table.workbook_name)
                    or r.left < t.left or r.right > t.right or r.top < t.top or r.bottom > t.bottom):
                return False
            found = True
    return found


def admissible(fix: CandidateFix, table: SheetVectors) -> Optional[str]:
    """None when the fix passes both screens, else its rejection code.

    C1 (source and target tile one rectangle) holds by construction of
    `candidate_fixes`, through the edge index.

    C3: an aggregate whose referents all sit inside the target is
        reporting on that data, not mistakenly diverging from it; skip,
        unless no source formula references anything at all.
    C2: both sides must consist entirely of formulas.  A cell that is
        not a formula has a data fingerprint, so only a side whose region
        has one (a formula whose vectors cancel can) is walked.
    """
    if _reads_only_target(fix, table):
        return REASON_OWN_INPUTS
    refs = table.refs
    for fingerprint, side in ((fix.source_region.fingerprint, fix.source),
                              (fix.target.fingerprint, fix.target.rect)):
        if fingerprint in DATA_KINDS and not all(cell in refs for cell in side.cells()):
            return REASON_NOT_FORMULAS
    return None


def rect_minus_cell(rect: Rect, cell: tuple[int, int]) -> list[Rect]:
    """Partition rect minus one interior-or-edge cell into up to 4 rects:
    full-width bands above and below, then the left/right remainders of
    the cell's own row."""
    cx, cy = cell
    out: list[Rect] = []
    if cy > rect.top:
        out.append(Rect(rect.left, rect.top, rect.right, cy - 1))
    if cx > rect.left:
        out.append(Rect(rect.left, cy, cx - 1, cy))
    if cx < rect.right:
        out.append(Rect(cx + 1, cy, rect.right, cy))
    if cy < rect.bottom:
        out.append(Rect(rect.left, cy + 1, rect.right, rect.bottom))
    return out


class Layout:
    """One sheet's regions, kept across every candidate fix scored on it.

    Holds one edge index over the regions, the serial of each, and each
    area's entropy term p*log2(p).  `entropy_delta` edits the index for
    one fix and then puts it back as it was built.
    """

    def __init__(self, regions: Sequence[Region], total_cells: int) -> None:
        self.index = _EdgeIndex()
        self.serials = {region: self.index.add(region) for region in regions}
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


def entropy_delta(fix: CandidateFix, layout: Layout) -> float:
    """Layout entropy after the fix minus before it.

    The source and target leave the layout's edge index; the merged
    region and any source fragments enter it and re-coalesce with their
    neighbours only: taken smallest key first, each merges with its
    smallest-keyed partner and the union is queued in turn.  The entropy
    is minus the sum of the regions' terms, so its change is the removed
    regions' terms less the added ones', summed by `math.fsum` and
    normalized.  The index is restored before returning.
    """
    index = layout.index
    removed: list[tuple[int, Region]] = []  # base regions taken out
    added: set[int] = set()  # serials of live new regions
    queue: list[tuple] = []

    def take(serial: int) -> Region:
        # A new region that merges away leaves nothing to restore.
        if serial in added:
            added.remove(serial)
        else:
            removed.append((serial, index.live[serial]))
        return index.remove(serial)

    def put(region: Region) -> None:
        serial = index.add(region)
        added.add(serial)
        heapq.heappush(queue, (_region_key(region), serial))

    source, target = fix.source_region, fix.target
    take(layout.serials[source])
    take(layout.serials[target])
    put(Region(_union_rect(fix.source, target.rect), target.fingerprint))
    if fix.source != source.rect:
        for frag in rect_minus_cell(source.rect, (fix.source.left, fix.source.top)):
            put(Region(frag, source.fingerprint))
    while queue:
        _, serial = heapq.heappop(queue)
        if serial not in index.live:
            continue
        partners = index.partners(serial)
        if not partners:
            continue
        partner = min(partners, key=lambda s: _region_key(index.live[s]))
        current = take(serial)
        other = take(partner)
        put(Region(_union_rect(current.rect, other.rect), current.fingerprint))

    terms = [layout.term(region.rect.area) for _, region in removed]
    terms += [-layout.term(index.live[serial].rect.area) for serial in added]
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


def score_candidates(
    candidates: Sequence[CandidateFix],
    table: SheetVectors,
    regions: Sequence[Region],
    total_cells: int,
) -> list[ProposedFix]:
    """Screen, score, and wrap candidates; inadmissible or
    non-entropy-reducing ones are dropped.  Every candidate is scored
    against one `Layout` of `regions`."""
    out: list[ProposedFix] = []
    layout = Layout(regions, total_cells)
    for fix in candidates:
        if admissible(fix, table) is not None:
            continue
        delta = entropy_delta(fix, layout)
        if delta >= 0:
            continue
        distance = fix_distance(fix, table)
        score = impact_score(fix.target.rect.area, delta, distance)
        out.append(
            ProposedFix(
                sheet=table.sheet_name,
                source=fix.source,
                source_fingerprint=fix.source_region.fingerprint,
                target=fix.target.rect,
                target_fingerprint=fix.target.fingerprint,
                target_size=fix.target.rect.area,
                delta_entropy=delta,
                distance=distance,
                score=score,
            )
        )
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
    """End-to-end: candidates -> screens -> scores -> ranked audit list."""
    scored = score_candidates(candidate_fixes(regions), table, regions, total_cells)
    return rank_and_cut(scored, threshold, total_cells)
