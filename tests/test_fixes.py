"""Candidate generation, screening, scoring, and ranking of fixes."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import aggregate_own_inputs_workbook, inconsistent_sum_workbook
from gridlint.entropy import Region, _union_rect, coalesce
from gridlint.fixes import (
    REASON_NOT_FORMULAS,
    REASON_OWN_INPUTS,
    CandidateFix,
    Layout,
    NonNegativeDeltaError,
    ProposedFix,
    Screens,
    admissible,
    build_fixes,
    candidate_fixes,
    entropy_delta,
    fix_distance,
    impact_score,
    rank_and_cut,
    rect_minus_cell,
    score_candidates,
)
from gridlint.model import CellContent, Rect, Workbook, Worksheet, load_workbook, to_a1
from gridlint.pipeline import AnalysisConfig, analyze_sheet
from gridlint.vectors import EMPTY_FINGERPRINT as EMPTY, NUMBER_FINGERPRINT, Fingerprint
from oracle import (
    REASON_NOT_RECTANGULAR,
    _coalesce_targeted,
    facing_strip,
    hypothetical_regions,
    layout_entropy,
    mergeable,
    naive_admissible,
    naive_analyze_sheet_vectors,
    naive_candidate_fixes,
    naive_coalesce_targeted,
    rebuilt_entropy_delta,
    rebuilt_score_candidates,
    term_sum,
    walking_admissible,
)


def analyzed(workbook):
    sheet_analysis = analyze_sheet(workbook, workbook.sheets[0])
    return sheet_analysis.table, sheet_analysis.regions


def candidates_of(regions):
    """`candidate_fixes` of the layout of `regions`, which tile their area."""
    return candidate_fixes(Layout(regions, sum(region.rect.area for region in regions)))


def tiny_workbook(cells: dict[tuple[int, int], str]) -> Workbook:
    content = {pos: CellContent.formula(text) for pos, text in cells.items()}
    return Workbook("t", [Worksheet("S", content)])


def adjacent(a: Rect, b: Rect) -> bool:
    """True when the rectangles share an edge of at least one cell."""
    if a.right + 1 == b.left or b.right + 1 == a.left:
        return min(a.bottom, b.bottom) >= max(a.top, b.top)
    if a.bottom + 1 == b.top or b.bottom + 1 == a.top:
        return min(a.right, b.right) >= max(a.left, b.left)
    return False


def boundary_cells_facing(a: Rect, b: Rect) -> list[tuple[int, int]]:
    """Cells of `a` whose edge-neighbour lies inside `b`, in reading order."""
    cells: list[tuple[int, int]] = []
    if a.right + 1 == b.left:
        for y in range(max(a.top, b.top), min(a.bottom, b.bottom) + 1):
            cells.append((a.right, y))
    elif b.right + 1 == a.left:
        for y in range(max(a.top, b.top), min(a.bottom, b.bottom) + 1):
            cells.append((a.left, y))
    elif a.bottom + 1 == b.top:
        for x in range(max(a.left, b.left), min(a.right, b.right) + 1):
            cells.append((x, a.bottom))
    elif b.bottom + 1 == a.top:
        for x in range(max(a.left, b.left), min(a.right, b.right) + 1):
            cells.append((x, a.top))
    return sorted(cells, key=lambda c: (c[1], c[0]))


def strip_cells(a: Rect, b: Rect) -> list[tuple[int, int]]:
    strip = facing_strip(a, b)
    return [] if strip is None else list(strip.cells())


@st.composite
def rect_pairs(draw):
    """Two rectangles side by side with a gap of 0 to 2 columns and any
    vertical offset, from shared rows through a shared corner to none;
    then maybe transposed into a stacked pair, and maybe swapped."""
    size = st.integers(0, 3)
    a = (8, 8, 8 + draw(size), 8 + draw(size))  # left, top, right, bottom
    left = a[2] + 1 + draw(st.integers(0, 2))
    top = draw(st.integers(a[1] - 5, a[3] + 2))
    b = (left, top, left + draw(size), top + draw(size))
    if draw(st.booleans()):
        a, b = (a[1], a[0], a[3], a[2]), (b[1], b[0], b[3], b[2])
    if draw(st.booleans()):
        a, b = b, a
    return Rect(*a), Rect(*b)


@st.composite
def any_rects(draw):
    left, right = sorted(draw(st.integers(1, 8)) for _ in range(2))
    top, bottom = sorted(draw(st.integers(1, 8)) for _ in range(2))
    return Rect(left, top, right, bottom)


class TestAdjacency:
    def test_side_by_side(self):
        assert facing_strip(Rect(1, 1, 2, 3), Rect(3, 1, 4, 3)) == Rect(2, 1, 2, 3)
        assert facing_strip(Rect(3, 1, 4, 3), Rect(1, 1, 2, 3)) == Rect(3, 1, 3, 3)

    def test_stacked(self):
        assert facing_strip(Rect(1, 1, 3, 2), Rect(1, 3, 3, 5)) == Rect(1, 2, 3, 2)

    def test_offset_but_touching(self):
        assert facing_strip(Rect(1, 1, 1, 2), Rect(2, 2, 2, 5)) == Rect(1, 2, 1, 2)

    def test_diagonal_corner_only(self):
        assert facing_strip(Rect(1, 1, 2, 2), Rect(3, 3, 4, 4)) is None

    def test_gap(self):
        assert facing_strip(Rect(1, 1, 2, 2), Rect(4, 1, 5, 2)) is None

    def test_boundary_cells_right_edge(self):
        cells = strip_cells(Rect(1, 1, 2, 4), Rect(3, 2, 3, 3))
        assert cells == [(2, 2), (2, 3)]

    def test_boundary_cells_left_edge(self):
        cells = strip_cells(Rect(3, 1, 4, 2), Rect(1, 1, 2, 2))
        assert cells == [(3, 1), (3, 2)]

    def test_boundary_cells_bottom_edge(self):
        cells = strip_cells(Rect(1, 1, 4, 2), Rect(2, 3, 3, 5))
        assert cells == [(2, 2), (3, 2)]

    def test_boundary_cells_top_edge(self):
        cells = strip_cells(Rect(1, 3, 3, 4), Rect(1, 1, 3, 2))
        assert cells == [(1, 3), (2, 3), (3, 3)]

    def test_boundary_cells_reading_order(self):
        cells = strip_cells(Rect(1, 1, 1, 5), Rect(2, 1, 2, 5))
        assert cells == sorted(cells, key=lambda c: (c[1], c[0]))


class TestFacingStripOracle:
    @settings(max_examples=400)
    @given(rect_pairs())
    def test_placed_pairs(self, pair):
        a, b = pair
        assert (facing_strip(a, b) is not None) == adjacent(a, b)
        assert strip_cells(a, b) == boundary_cells_facing(a, b)

    @settings(max_examples=300)
    @given(any_rects(), any_rects())
    def test_arbitrary_pairs(self, a, b):
        # Overlapping and nested pairs included: neither side may see an edge.
        assert (facing_strip(a, b) is not None) == adjacent(a, b)
        assert strip_cells(a, b) == boundary_cells_facing(a, b)


class TestRectMinusCell:
    def test_interior_cell_gives_four_fragments(self):
        fragments = rect_minus_cell(Rect(1, 1, 3, 3), (2, 2))
        assert fragments == [
            Rect(1, 1, 3, 1),
            Rect(1, 2, 1, 2),
            Rect(3, 2, 3, 2),
            Rect(1, 3, 3, 3),
        ]

    def test_corner_cell_gives_two(self):
        fragments = rect_minus_cell(Rect(1, 1, 3, 3), (1, 1))
        assert fragments == [Rect(2, 1, 3, 1), Rect(1, 2, 3, 3)]

    def test_edge_cell_gives_three(self):
        fragments = rect_minus_cell(Rect(1, 1, 3, 3), (2, 1))
        assert fragments == [Rect(1, 1, 1, 1), Rect(3, 1, 3, 1), Rect(1, 2, 3, 3)]

    def test_single_cell_rect(self):
        assert rect_minus_cell(Rect(4, 7, 4, 7), (4, 7)) == []

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.data(),
    )
    def test_fragments_partition_remainder(self, width, height, data):
        rect = Rect(1, 1, width, height)
        cx = data.draw(st.integers(1, width))
        cy = data.draw(st.integers(1, height))
        covered: set[tuple[int, int]] = set()
        for fragment in rect_minus_cell(rect, (cx, cy)):
            cells = set(fragment.cells())
            assert not (covered & cells)
            covered |= cells
        assert covered == set(rect.cells()) - {(cx, cy)}


class TestCandidates:
    def test_two_adjacent_regions(self):
        a = Region(Rect(1, 1, 2, 2), "a")
        b = Region(Rect(3, 1, 4, 2), "b")
        # Each whole region merges with the other; no single cell of a
        # 2x2 region tiles a rectangle with the other 2x2 region.
        assert candidates_of([a, b]) == [CandidateFix(a.rect, a, b), CandidateFix(b.rect, b, a)]

    def test_same_fingerprint_pairs_skipped(self):
        a = Region(Rect(1, 1, 2, 2), "a")
        b = Region(Rect(3, 1, 4, 2), "a")
        assert candidates_of([a, b]) == []

    def test_non_adjacent_pairs_skipped(self):
        a = Region(Rect(1, 1, 1, 1), "a")
        b = Region(Rect(3, 3, 3, 3), "b")
        assert candidates_of([a, b]) == []

    def test_single_cell_source_not_duplicated(self):
        a = Region(Rect(1, 1, 1, 1), "a")
        b = Region(Rect(2, 1, 2, 1), "b")
        candidates = candidates_of([a, b])
        assert candidates == [
            CandidateFix(Rect(1, 1, 1, 1), a, b),
            CandidateFix(Rect(2, 1, 2, 1), b, a),
        ]

    def test_fixture_candidate_count(self):
        _, regions = analyzed(inconsistent_sum_workbook())
        candidates = candidates_of(regions)
        assert len(candidates) == 4
        singles = [c for c in candidates if c.source.area == 1]
        wholes = [c for c in candidates if c.source == c.source_region.rect]
        assert len(wholes) == 2  # F6 and F7:F11, each onto the other
        assert len(singles) == 3  # F6, and the facing cells E6 and F7

    def test_source_cells_sorted(self):
        # Per region pair: the whole region first, when it merges with the
        # target, then at most one facing boundary cell that does.
        _, regions = analyzed(inconsistent_sum_workbook())
        by_pair: dict[tuple, list[Rect]] = {}
        for candidate in candidates_of(regions):
            by_pair.setdefault((candidate.source_region, candidate.target), []).append(candidate.source)
        for (source, target), rects in by_pair.items():
            assert all(mergeable(r, target.rect) for r in rects)
            wholes = [r for r in rects if r == source.rect]
            cells = [r for r in rects if r != source.rect]
            assert rects == wholes + cells
            assert len(wholes) <= 1
            assert len(cells) <= (0 if source.rect.area == 1 else 1)
            for cell in cells:
                assert cell.area == 1
                assert (cell.left, cell.top) in boundary_cells_facing(source.rect, target.rect)


class TestAdmissible:
    def test_fixture_histogram(self):
        table, regions = analyzed(inconsistent_sum_workbook())
        codes: dict[object, int] = {}
        for candidate in candidates_of(regions):
            code = admissible(candidate, table)
            codes[code] = codes.get(code, 0) + 1
        assert codes == {REASON_NOT_FORMULAS: 1, None: 3}

    def test_non_rectangular_merge(self):
        # The data block and F6 do not tile a rectangle, so candidate_fixes
        # never emits the pair; the oracle's C1 screen names why.
        table, regions = analyzed(inconsistent_sum_workbook())
        data = next(r for r in regions if r.rect.area == 24)
        one_off = next(r for r in regions if r.rect.area == 1)
        candidate = CandidateFix(data.rect, data, one_off)
        assert candidate not in candidates_of(regions)
        assert candidate in naive_candidate_fixes(regions)
        workbook = inconsistent_sum_workbook()
        naive = naive_analyze_sheet_vectors(workbook, workbook.sheets[0])
        assert naive_admissible(candidate, naive) == REASON_NOT_RECTANGULAR

    def test_number_source_rejected(self):
        table, regions = analyzed(inconsistent_sum_workbook())
        data = next(r for r in regions if r.rect.area == 24)
        one_off = next(r for r in regions if r.rect.area == 1)
        candidate = CandidateFix(Rect(5, 6, 5, 6), data, one_off)
        assert admissible(candidate, table) == REASON_NOT_FORMULAS

    def test_aggregate_over_target_rejected(self):
        # The column sum in C10 references exactly the number block above
        # it; rewriting it to "match" that block would destroy the total.
        table, regions = analyzed(aggregate_own_inputs_workbook())
        formula = next(r for r in regions if r.rect.top == 10)
        data = next(r for r in regions if r.rect.top == 5)
        candidate = CandidateFix(Rect(3, 10, 3, 10), formula, data)
        assert admissible(candidate, table) == REASON_OWN_INPUTS

    def test_own_inputs_checked_before_formula_kinds(self):
        # The same candidate also fails the all-formulas screen (the
        # target holds numbers); the referent screen wins.
        table, regions = analyzed(aggregate_own_inputs_workbook())
        formula = next(r for r in regions if r.rect.top == 10)
        data = next(r for r in regions if r.rect.top == 5)
        candidate = CandidateFix(Rect(3, 10, 3, 10), formula, data)
        assert admissible(candidate, table) == REASON_OWN_INPUTS
        for x, y in data.rect.cells():
            assert table.kind(x, y).name == "NUMBER"

    def test_referent_free_formula_passes_referent_screen(self):
        workbook = tiny_workbook({(1, 1): "=5", (1, 2): "=$B$1", (1, 3): "=$B$1"})
        table, regions = analyzed(workbook)
        constant = next(r for r in regions if r.rect.top == 1)
        anchored = next(r for r in regions if r.rect.top == 2)
        candidate = CandidateFix(Rect(1, 1, 1, 1), constant, anchored)
        assert admissible(candidate, table) is None

    def test_fixture_top_candidate_admissible(self):
        table, regions = analyzed(inconsistent_sum_workbook())
        wide = next(r for r in regions if r.rect == Rect(6, 6, 6, 6))
        rest = next(r for r in regions if r.rect == Rect(6, 7, 6, 11))
        candidate = CandidateFix(Rect(6, 6, 6, 6), wide, rest)
        assert admissible(candidate, table) is None


class TestHypotheticalRegions:
    def test_whole_region_source(self):
        table, regions = analyzed(inconsistent_sum_workbook())
        wide = next(r for r in regions if r.rect == Rect(6, 6, 6, 6))
        rest = next(r for r in regions if r.rect == Rect(6, 7, 6, 11))
        data = next(r for r in regions if r.rect.area == 24)
        candidate = CandidateFix(Rect(6, 6, 6, 6), wide, rest)
        result = hypothetical_regions(candidate, regions)
        assert sorted(result) == sorted(
            [data, Region(Rect(6, 6, 6, 11), rest.fingerprint)]
        )

    def test_partial_source_leaves_fragments(self):
        table, regions = analyzed(inconsistent_sum_workbook())
        wide = next(r for r in regions if r.rect == Rect(6, 6, 6, 6))
        rest = next(r for r in regions if r.rect == Rect(6, 7, 6, 11))
        data = next(r for r in regions if r.rect.area == 24)
        candidate = CandidateFix(Rect(6, 7, 6, 7), rest, wide)
        result = hypothetical_regions(candidate, regions)
        assert sorted(result) == sorted(
            [
                data,
                Region(Rect(6, 6, 6, 7), wide.fingerprint),
                Region(Rect(6, 8, 6, 11), rest.fingerprint),
            ]
        )

    def test_result_partitions_used_range(self):
        # Only screened candidates reach this stage: a non-rectangular
        # merge would overlap its neighbours.
        table, regions = analyzed(inconsistent_sum_workbook())
        for candidate in candidates_of(regions):
            if admissible(candidate, table) is not None:
                continue
            result = hypothetical_regions(candidate, regions)
            covered: set[tuple[int, int]] = set()
            for region in result:
                cells = set(region.rect.cells())
                assert not (covered & cells)
                covered |= cells
            assert covered == set(Rect(2, 6, 6, 11).cells())

    def test_matches_full_coalesce(self):
        # Re-coalescing only around the touched regions must agree with
        # coalescing the whole layout from scratch.
        table, regions = analyzed(inconsistent_sum_workbook())
        for candidate in candidates_of(regions):
            if admissible(candidate, table) is not None:
                continue
            targeted = hypothetical_regions(candidate, regions)
            stable = [
                r for r in regions if r != candidate.source_region and r != candidate.target
            ]
            dirty = [r for r in targeted if r not in stable]
            assert sorted(targeted) == sorted(coalesce(stable + dirty))


def random_sheet(rng) -> Workbook:
    """Numbers and copied-around formulas: left or upper neighbour, a
    short sum above, an anchored cell, or a constant."""
    width, height = rng.randint(2, 6), rng.randint(2, 6)
    cells = {}
    for y in range(1, height + 1):
        for x in range(1, width + 1):
            choice = rng.randrange(6)
            if choice == 0:
                cells[(x, y)] = CellContent.number(float(rng.randint(1, 9)))
            elif choice == 1 and x > 1:
                cells[(x, y)] = CellContent.formula(f"={to_a1(x - 1, y)}+1")
            elif choice == 2 and y > 2:
                cells[(x, y)] = CellContent.formula(f"=SUM({to_a1(x, y - 2)}:{to_a1(x, y - 1)})")
            elif choice == 3:
                cells[(x, y)] = CellContent.formula("=$A$1*2")
            else:
                cells[(x, y)] = CellContent.formula(f"={to_a1(x, max(y - 1, 1))}")
    return Workbook("r", [Worksheet("S", cells)])


def tiles_a_rectangle(fix: CandidateFix) -> bool:
    """C1 by its definition: the bounding box of the source and target
    cells, scanned one by one, holds exactly that many cells."""
    source = list(fix.source.cells())
    target = list(fix.target.rect.cells())
    xs = [x for x, _ in source + target]
    ys = [y for _, y in source + target]
    return (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1) == len(source) + len(target)


def data_like_sheet(rng) -> Workbook:
    """Cells of every kind, with formulas whose vectors cancel and so take
    the reserved fingerprint: `=A1+A3` in A2 and `=B1+B3+1` in B2; `=SUM(`
    is refused and becomes text.  Some cells stay blank."""
    width, height = rng.randint(2, 6), rng.randint(2, 6)
    cells = {}
    for y in range(1, height + 1):
        for x in range(1, width + 1):
            choice = rng.randrange(7)
            if y > 1:
                cancelling = f"={to_a1(x, y - 1)}+{to_a1(x, y + 1)}"
            elif x > 1:
                cancelling = f"={to_a1(x - 1, y)}+{to_a1(x + 1, y)}"
            else:
                cancelling = "=$A$2"
            if choice == 0:
                cells[(x, y)] = CellContent.number(float(rng.randint(1, 9)))
            elif choice == 1:
                cells[(x, y)] = CellContent.text("label")
            elif choice == 2:
                cells[(x, y)] = CellContent.formula(cancelling)
            elif choice == 3:
                cells[(x, y)] = CellContent.formula(cancelling + "+1")
            elif choice == 4:
                cells[(x, y)] = CellContent.formula("=SUM(")
            elif choice == 5:
                cells[(x, y)] = CellContent.formula(f"={to_a1(x, max(y - 1, 1))}")
    return Workbook("r", [Worksheet("S", cells)])


def check_formula_screen(workbook: Workbook) -> None:
    """`admissible` gives every candidate the code of the cell-by-cell
    screens over the oracle's kinds."""
    table, regions = analyzed(workbook)
    naive = naive_analyze_sheet_vectors(workbook, workbook.sheets[0])
    for candidate in candidates_of(regions):
        assert admissible(candidate, table) == naive_admissible(candidate, naive)


class TestFormulaScreenOracle:
    """C2 read off the regions' fingerprints, against every cell's kind."""

    def test_formulas_with_data_fingerprints_pass(self):
        # The vectors of A2 and D2 cancel; each is a one-cell region beside
        # a one-cell formula region.
        cells = {(1, 1): CellContent.number(1.0), (1, 2): CellContent.formula("=A1+A3"),
                 (1, 3): CellContent.number(2.0), (2, 2): CellContent.formula("=Z2"),
                 (3, 2): CellContent.formula("=Z2"), (4, 2): CellContent.formula("=D1+D3+1")}
        cells.update({(x, y): CellContent.text("x") for x in (2, 3, 4) for y in (1, 3)})
        workbook = Workbook("t", [Worksheet("S", cells)])
        table, regions = analyzed(workbook)
        passed = {(c.source, c.target.rect) for c in candidates_of(regions) if admissible(c, table) is None}
        a2, b2, c2, d2 = (Rect(x, 2, x, 2) for x in (1, 2, 3, 4))
        assert {(a2, b2), (b2, a2), (d2, c2), (c2, d2)} <= passed
        check_formula_screen(workbook)

    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_sheets_with_data_like_formulas(self, rng):
        check_formula_screen(data_like_sheet(rng))


def cancelling_cells(dx: int = 0, dy: int = 0) -> dict:
    """A2 `=A1+A3` and B2 `=B1+B3+1`, whose vectors cancel, beside numbers
    in C1:C2 and below blanks in A1:B1, moved by (dx, dy)."""
    def around(x, y):
        return f"={to_a1(x + dx, y + dy - 1)}+{to_a1(x + dx, y + dy + 1)}"

    return {(1 + dx, 2 + dy): CellContent.formula(around(1, 2)),
            (2 + dx, 2 + dy): CellContent.formula(around(2, 2) + "+1"),
            (3 + dx, 1 + dy): CellContent.number(1.0), (3 + dx, 2 + dy): CellContent.number(2.0)}


def screened_sheet(rng) -> Workbook:
    """Cells of every kind the screens read: numbers, text, blanks,
    formulas whose vectors cancel, off-sheet and own-sheet-qualified
    references, reference-free formulas (numeric, text and boolean), sums
    of the cells above or on the left (which C3 rejects beside their
    inputs), and copies of a neighbour.  A third of the sheets hold
    `cancelling_cells` at an offset, and a third start with a block of
    numbers over a row of its column sums, one region that C3 rejects
    beside its inputs."""
    width, height = rng.randint(2, 7), rng.randint(2, 7)
    layout = rng.randrange(3)
    cells = {}
    if layout == 1:
        cells = cancelling_cells(rng.randint(0, 3), rng.randint(0, 3))
    elif layout == 2:
        columns, rows = rng.randint(2, width), rng.randint(1, height - 1)
        cells = {(x, y): CellContent.number(float(x * y)) for x in range(1, columns + 1) for y in range(1, rows + 1)}
        cells.update({(x, rows + 1): CellContent.formula(f"=SUM({to_a1(x, 1)}:{to_a1(x, rows)})")
                      for x in range(1, columns + 1)})
    for y in range(1, height + 1):
        for x in range(1, width + 1):
            if (x, y) in cells:
                continue
            choice = rng.randrange(10)
            if choice == 0:
                cells[(x, y)] = CellContent.number(float(rng.randint(1, 9)))
            elif choice == 1:
                cells[(x, y)] = CellContent.text("label")
            elif choice == 2 and y > 1:
                cells[(x, y)] = CellContent.formula(f"={to_a1(x, y - 1)}+{to_a1(x, y + 1)}" + rng.choice(("", "+1")))
            elif choice == 3:
                cells[(x, y)] = CellContent.formula(rng.choice(("=Other!A1", f"=[Book]S!{to_a1(x, max(y - 1, 1))}")))
            elif choice == 4:
                cells[(x, y)] = CellContent.formula(rng.choice(("=5", "=1+2", '="a"', "=TRUE", "=$A$1")))
            elif choice == 5 and y > 1:
                cells[(x, y)] = CellContent.formula(f"=SUM({to_a1(x, 1)}:{to_a1(x, y - 1)})")
            elif choice == 6 and x > 1:
                cells[(x, y)] = CellContent.formula(f"=SUM({to_a1(1, y)}:{to_a1(x - 1, y)})")
            elif choice == 7:
                cells[(x, y)] = CellContent.formula(f"=S!{to_a1(x, max(y - 1, 1))}")
            elif choice == 8:
                cells[(x, y)] = CellContent.formula(f"={to_a1(max(x - 1, 1), y)}")
    return Workbook("r", [Worksheet("S", cells)])


def check_screens(workbook: Workbook) -> list[tuple[bool, object]]:
    """Every candidate's `admissible` code, with one `Screens` shared
    across the sheet and with a fresh one, is the cell-walking C3-then-C2
    reference's.  Returns (source of more than one cell, code) per
    candidate: such a source is a whole region, read through its box."""
    table, regions = analyzed(workbook)
    screens = Screens(table)
    seen = []
    for candidate in candidates_of(regions):
        code = walking_admissible(candidate, table)
        assert admissible(candidate, table, screens) == code
        assert admissible(candidate, table) == code
        seen.append((candidate.source.area > 1, code))
    return seen


class TestScreenOracle:
    """C3 read off per-region reference boxes and C2 off the two sides'
    fingerprints, against walking every cell of both sides."""

    def test_cancelling_sheet(self):
        workbook = Workbook("t", [Worksheet("S", cancelling_cells())])
        table, regions = analyzed(workbook)
        # A2 and B2 take the reserved fingerprints, so neither joins the
        # blanks above it or the numbers beside it; each may take on the
        # other's pattern.
        assert regions == [Region(Rect(1, 1, 2, 1), EMPTY), Region(Rect(3, 1, 3, 2), NUMBER_FINGERPRINT),
                           Region(Rect(1, 2, 1, 2), Fingerprint(0, 0, 0, 2)),
                           Region(Rect(2, 2, 2, 2), Fingerprint(0, 0, 0, 3))]
        verdicts = {(c.source.a1(), c.target.rect.a1()): admissible(c, table) for c in candidates_of(regions)}
        assert verdicts == {("A1", "A2"): REASON_NOT_FORMULAS, ("B1", "B2"): REASON_NOT_FORMULAS,
                            ("C1", "A1:B1"): REASON_NOT_FORMULAS, ("C2", "B2"): REASON_NOT_FORMULAS,
                            ("A2", "B2"): None, ("B2", "A2"): None}
        assert check_screens(workbook)

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_sheets(self, rng):
        check_screens(screened_sheet(rng))

    def test_seeded_sheets_cover_both_sources_and_every_code(self):
        seen = set()
        for seed in range(40):
            seen.update(check_screens(screened_sheet(random.Random(seed))))
        assert seen == {(region, code) for region in (True, False)
                        for code in (None, REASON_NOT_FORMULAS, REASON_OWN_INPUTS)}


class TestSparseSheet:
    """A used range of 16 x 65,536 that holds three cells is almost all
    blank regions: the fix layer reads none of their cells."""

    def test_build_fixes_reads_few_cells(self, monkeypatch):
        cells = {(1, 1): CellContent.number(1.0), (8, 30_000): CellContent.formula("=A1"),
                 (16, 65_536): CellContent.number(2.0)}
        table, regions = analyzed(Workbook("sparse", [Worksheet("S", cells)]))
        read = []
        walk = Rect.cells

        def counting(self):
            for cell in walk(self):
                read.append(cell)
                yield cell

        monkeypatch.setattr(Rect, "cells", counting)
        assert build_fixes(table, regions, table.rect.area) == []
        assert len(read) <= 36  # walking the screens' cells reads about a million
        monkeypatch.undo()
        candidates = candidates_of(regions)
        assert len(candidates) == 14
        assert candidates == filtered_naive_candidates(regions)


class TestRectangularScreenOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_every_candidate_of_random_sheets(self, rng):
        table, regions = analyzed(random_sheet(rng))
        for candidate in candidates_of(regions):
            rejected = admissible(candidate, table) == REASON_NOT_RECTANGULAR
            assert rejected != tiles_a_rectangle(candidate)


def filtered_naive_candidates(regions):
    """The all-pairs candidates that pass C1, in their order."""
    return [c for c in naive_candidate_fixes(regions) if mergeable(c.source, c.target.rect)]


class TestCandidateOracle:
    """`candidate_fixes` reads off the edge index exactly the all-pairs
    candidates that pass C1, in the same order."""

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_sheets(self, rng):
        _, regions = analyzed(random_sheet(rng))
        for candidate in naive_candidate_fixes(regions):
            assert mergeable(candidate.source, candidate.target.rect) == tiles_a_rectangle(candidate)
        assert candidates_of(regions) == filtered_naive_candidates(regions)

    @pytest.mark.parametrize("preprocess", [True, False])
    def test_fixtures(self, fixtures_dir, preprocess):
        compared = 0
        for path in sorted(fixtures_dir.glob("*.gridbook")):
            workbook = load_workbook(path)
            for sheet in workbook.sheets:
                regions = analyze_sheet(workbook, sheet, AnalysisConfig(preprocess=preprocess)).regions
                candidates = candidates_of(regions)
                assert candidates == filtered_naive_candidates(regions)
                compared += len(candidates)
        assert compared > 0

    def test_corner_cell_facing_one_row_regions(self):
        a = Region(Rect(1, 1, 2, 2), "a")
        right = Region(Rect(3, 2, 5, 2), "b")  # one row, beside a's bottom-right cell
        below = Region(Rect(2, 3, 2, 5), "c")  # one column, under the same cell
        expected = [CandidateFix(Rect(2, 2, 2, 2), a, right), CandidateFix(Rect(2, 2, 2, 2), a, below)]
        assert candidates_of([below, right, a]) == expected
        assert filtered_naive_candidates([below, right, a]) == expected

    def test_wide_region_above_one_column_target(self):
        a = Region(Rect(1, 1, 3, 2), "a")
        b = Region(Rect(2, 3, 2, 4), "b")
        expected = [CandidateFix(Rect(2, 2, 2, 2), a, b)]
        assert candidates_of([a, b]) == expected
        assert filtered_naive_candidates([a, b]) == expected

    def test_one_wide_over_one_wide_emits_whole_then_cell(self):
        a = Region(Rect(1, 1, 1, 2), "a")
        b = Region(Rect(1, 3, 1, 5), "b")
        expected = [
            CandidateFix(a.rect, a, b),
            CandidateFix(Rect(1, 2, 1, 2), a, b),
            CandidateFix(b.rect, b, a),
            CandidateFix(Rect(1, 3, 1, 3), b, a),
        ]
        assert candidates_of([b, a]) == expected
        assert filtered_naive_candidates([b, a]) == expected

    def test_one_cell_regions(self):
        a = Region(Rect(1, 1, 1, 1), "a")
        right = Region(Rect(2, 1, 2, 1), "b")
        below = Region(Rect(1, 2, 1, 2), "c")
        expected = [
            CandidateFix(a.rect, a, right),
            CandidateFix(a.rect, a, below),
            CandidateFix(right.rect, right, a),
            CandidateFix(below.rect, below, a),
        ]
        assert candidates_of([below, right, a]) == expected
        assert filtered_naive_candidates([below, right, a]) == expected

    def test_same_fingerprint_cell_target_skipped(self):
        a = Region(Rect(1, 1, 2, 2), "a")
        b = Region(Rect(3, 2, 5, 2), "a")
        assert candidates_of([a, b]) == []


class TestCoalesceTargetedOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_every_admissible_candidate_of_random_sheets(self, rng):
        table, regions = analyzed(random_sheet(rng))
        for candidate in candidates_of(regions):
            if admissible(candidate, table) is not None:
                continue
            # The same stable / dirty split hypothetical_regions makes.
            source, target = candidate.source_region, candidate.target
            stable = [r for r in regions if r != source and r != target]
            dirty = [Region(_union_rect(candidate.source, target.rect), target.fingerprint)]
            if candidate.source != source.rect:
                dirty += [Region(f, source.fingerprint)
                          for f in rect_minus_cell(source.rect, (candidate.source.left, candidate.source.top))]
            got = _coalesce_targeted(stable, dirty)
            assert got == naive_coalesce_targeted(stable, dirty)
            assert got == hypothetical_regions(candidate, regions)


def index_state(index):
    """Everything an edge index holds: live regions by serial, four edge maps."""
    return (dict(index.live), dict(index._tops), dict(index._bottoms),
            dict(index._lefts), dict(index._rights))


def cascades(candidate, regions):
    """True when the fix's merged region or fragments merge on further:
    each merge leaves one region fewer than the fix itself makes."""
    source = candidate.source_region
    fragments = ([] if candidate.source == source.rect
                 else rect_minus_cell(source.rect, (candidate.source.left, candidate.source.top)))
    return len(hypothetical_regions(candidate, regions)) < len(regions) - 1 + len(fragments)


def check_against_rebuilt(table, regions):
    """Score every candidate against one persistent layout and against a
    layout rebuilt per candidate; floats must agree exactly.  A fix edits
    the persistent index (`add`, `remove`, spied on) exactly when its
    merges cascade, and leaves it as it was built.  Returns the
    admissible candidates counted by (whether their merges cascaded,
    whether the source is the whole region)."""
    total = table.rect.area
    layout = Layout(regions, total)
    index = layout.index
    built = index_state(index)
    edits = []
    index.add = lambda *args, _add=index.add: edits.append(args) or _add(*args)
    index.remove = lambda serial, _remove=index.remove: edits.append(serial) or _remove(serial)
    candidates = candidate_fixes(layout)
    assert score_candidates(candidates, table, layout) == rebuilt_score_candidates(
        candidates, table, regions, total)
    before = term_sum(regions, total)
    kinds: Counter = Counter()
    for candidate in candidates:
        if admissible(candidate, table) is not None:
            continue
        edits.clear()
        assert entropy_delta(candidate, layout) == rebuilt_entropy_delta(candidate, regions, total, before)
        cascaded = cascades(candidate, regions)
        assert bool(edits) == cascaded
        assert index_state(index) == built
        kinds[cascaded, candidate.source == candidate.source_region.rect] += 1
    return kinds


def check_area_keeping_fixes(table, regions):
    """Every admissible fix whose layout keeps the multiset of region
    areas scores exactly 0.0 and is not scored; returns how many there
    were."""
    total = table.rect.area
    layout = Layout(regions, total)
    candidates = candidate_fixes(layout)
    scored = {(fix.source, fix.target) for fix in score_candidates(candidates, table, layout)}
    areas = sorted(r.rect.area for r in regions)
    found = 0
    for candidate in candidates:
        if admissible(candidate, table) is not None:
            continue
        if sorted(r.rect.area for r in hypothetical_regions(candidate, regions)) != areas:
            continue
        assert entropy_delta(candidate, layout) == 0.0
        assert (candidate.source, candidate.target.rect) not in scored
        found += 1
    return found


class TestPersistentScorerOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_sheets(self, rng):
        check_against_rebuilt(*analyzed(random_sheet(rng)))

    def test_seeded_sheets_include_cascades(self):
        """The seeded sheets hold fixes that cascade, and fixes that merge
        nothing further, and so edit no index, of both kinds: a
        whole-region source, and a one-cell source that leaves
        fragments."""
        kinds = sum((check_against_rebuilt(*analyzed(random_sheet(random.Random(seed)))) for seed in range(30)),
                    Counter())
        assert kinds[True, True] + kinds[True, False] > 0
        assert kinds[False, True] > 0 and kinds[False, False] > 0

    def test_fixtures(self, fixtures_dir):
        for path in sorted(fixtures_dir.glob("*.gridbook")):
            workbook = load_workbook(path)
            for sheet in workbook.sheets:
                analysis = analyze_sheet(workbook, sheet)
                if analysis.cells:
                    check_against_rebuilt(analysis.table, analysis.regions)


class TestEntropyDelta:
    def test_fixture_layout_entropy(self):
        _, regions = analyzed(inconsistent_sum_workbook())
        assert layout_entropy(regions, 30) == pytest.approx(
            0.17361964009947167, rel=1e-12
        )

    def test_fixture_top_delta(self):
        table, regions = analyzed(inconsistent_sum_workbook())
        wide = next(r for r in regions if r.rect == Rect(6, 6, 6, 6))
        rest = next(r for r in regions if r.rect == Rect(6, 7, 6, 11))
        candidate = CandidateFix(Rect(6, 6, 6, 6), wide, rest)
        assert entropy_delta(candidate, Layout(regions, 30)) == pytest.approx(
            -0.026494270005942233, rel=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_region_order_does_not_change_deltas(self, rng):
        table, regions = analyzed(random_sheet(rng))
        shuffled = list(regions)
        rng.shuffle(shuffled)
        total = table.rect.area
        layout, other = Layout(regions, total), Layout(shuffled, total)
        for candidate in candidates_of(regions):
            assert entropy_delta(candidate, other) == entropy_delta(candidate, layout)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_fixes_that_keep_the_areas_score_zero(self, rng):
        check_area_keeping_fixes(*analyzed(random_sheet(rng)))

    def test_seeded_sheets_include_fixes_that_keep_the_areas(self):
        found = sum(check_area_keeping_fixes(*analyzed(random_sheet(random.Random(seed))))
                    for seed in range(30))
        assert found > 0

    def test_end_cell_moving_between_regions_of_equal_areas(self):
        # A generated 8x26 sheet of two stacked tables.  F26 leaves the
        # totals row B26:F26 (5 cells) for the column F22:F25 (4 cells),
        # which leaves the areas {5, 4}: the entropy does not change.
        # Subtracting two full term sums instead gives -5.55e-17 here,
        # enough to rank the fix first on the sheet.
        rows = [
            (1, 1, 1, 13, "text"), (2, 1, 7, 1, "text"), (8, 1, 8, 13, "blank"),
            (2, 2, 5, 12, "number"), (6, 2, 6, 3, "left"), (7, 2, 7, 12, "sum12"),
            (6, 4, 6, 4, "off"), (6, 5, 6, 12, "left"), (2, 13, 6, 13, "total66"),
            (7, 13, 7, 13, "blank"), (1, 14, 8, 14, "blank"), (1, 15, 8, 15, "text"),
            (1, 16, 1, 26, "text"), (2, 16, 5, 25, "number"), (6, 16, 6, 20, "left"),
            (7, 16, 7, 25, "sum25"), (8, 16, 8, 25, "ratio"), (6, 21, 6, 21, "off"),
            (6, 22, 6, 25, "left"), (2, 26, 6, 26, "total55"), (7, 26, 8, 26, "blank"),
        ]
        regions = [Region(Rect(*row[:4]), row[4]) for row in rows]
        totals_row = next(r for r in regions if r.rect == Rect(2, 26, 6, 26))
        column = next(r for r in regions if r.rect == Rect(6, 22, 6, 25))
        candidate = CandidateFix(Rect(6, 26, 6, 26), totals_row, column)
        after = hypothetical_regions(candidate, regions)
        assert sorted(r.rect.area for r in after) == sorted(r.rect.area for r in regions)
        assert entropy_delta(candidate, Layout(regions, 8 * 26)) == 0.0

    def test_cascade_leaves_one_region(self):
        # b -> a merges into (1..2, 1), which then takes in the a at column 3.
        regions = [
            Region(Rect(1, 1, 1, 1), "a"),
            Region(Rect(2, 1, 2, 1), "b"),
            Region(Rect(3, 1, 3, 1), "a"),
        ]
        candidate = CandidateFix(Rect(2, 1, 2, 1), regions[1], regions[0])
        layout = Layout(regions, 3)
        built = index_state(layout.index)
        assert entropy_delta(candidate, layout) == -1.0
        assert index_state(layout.index) == built

    def test_merge_reduces_entropy(self):
        regions = [
            Region(Rect(1, 1, 1, 4), "a"),
            Region(Rect(2, 1, 2, 3), "b"),
            Region(Rect(2, 4, 2, 4), "c"),
        ]
        candidate = CandidateFix(
            Rect(2, 4, 2, 4), regions[2], regions[1]
        )
        assert entropy_delta(candidate, Layout(regions, 8)) < 0


class TestDistance:
    def test_zero_when_pattern_already_matches(self):
        # "=$A$1" in B2 and "=A2" in B3 resolve to the same referenced
        # cell once the target pattern is re-anchored at the source.
        workbook = tiny_workbook({(2, 2): "=$A$1", (2, 3): "=A2"})
        table, regions = analyzed(workbook)
        absolute = next(r for r in regions if r.rect.top == 2)
        relative = next(r for r in regions if r.rect.top == 3)
        candidate = CandidateFix(Rect(2, 2, 2, 2), absolute, relative)
        assert fix_distance(candidate, table) == 0.0

    def test_one_row_shift(self):
        workbook = tiny_workbook({(2, 2): "=A1", (2, 3): "=A3"})
        table, regions = analyzed(workbook)
        upper = next(r for r in regions if r.rect.top == 2)
        lower = next(r for r in regions if r.rect.top == 3)
        assert fix_distance(CandidateFix(Rect(2, 2, 2, 2), upper, lower), table) == 1.0
        assert fix_distance(CandidateFix(Rect(2, 3, 2, 3), lower, upper), table) == 1.0

    def test_fixture_top_distance(self):
        # F6 sums four columns, F7 sums three: location sums differ by
        # (5, 6, 0), so the move is sqrt(61).
        table, regions = analyzed(inconsistent_sum_workbook())
        wide = next(r for r in regions if r.rect == Rect(6, 6, 6, 6))
        rest = next(r for r in regions if r.rect == Rect(6, 7, 6, 11))
        candidate = CandidateFix(Rect(6, 6, 6, 6), wide, rest)
        assert fix_distance(candidate, table) == pytest.approx(
            math.sqrt(61), rel=1e-12
        )


class TestImpactScore:
    def test_examples(self):
        assert impact_score(10, -0.02, 1.0) == pytest.approx(500.0)
        assert impact_score(20, -0.02, 1.0) == pytest.approx(1000.0)
        assert impact_score(10, -0.5, 1.0) == pytest.approx(20.0)
        assert impact_score(10, -0.02, 2.0) == pytest.approx(250.0)

    def test_distances_below_one_clamped(self):
        assert impact_score(10, -0.02, 0.25) == impact_score(10, -0.02, 1.0)
        assert impact_score(10, -0.02, 0.0) == impact_score(10, -0.02, 1.0)

    def test_rejects_non_reducing_delta(self):
        with pytest.raises(NonNegativeDeltaError):
            impact_score(10, 0.0, 1.0)
        with pytest.raises(NonNegativeDeltaError):
            impact_score(10, 0.1, 1.0)

    @given(
        st.integers(1, 50),
        st.integers(1, 50),
        st.floats(-2.0, -1e-6),
        st.floats(1.0, 100.0),
    )
    def test_monotone_in_target_size(self, size_a, size_b, delta, distance):
        score_a = impact_score(size_a, delta, distance)
        score_b = impact_score(size_b, delta, distance)
        if size_a < size_b:
            assert score_a < score_b
        elif size_a == size_b:
            assert score_a == score_b

    @given(
        st.integers(1, 50),
        st.floats(-2.0, -1e-6),
        st.floats(-2.0, -1e-6),
        st.floats(1.0, 100.0),
    )
    # Float division maps these two drops to one score.
    @example(23, -1.9999999999999998, -2.0, 90.5)
    def test_antitone_in_entropy_drop_magnitude(self, size, delta_a, delta_b, distance):
        # Antitone up to rounding: never larger for a bigger drop, and
        # strictly smaller once the drops differ by more than rounding.
        if abs(delta_a) < abs(delta_b):
            a = impact_score(size, delta_a, distance)
            b = impact_score(size, delta_b, distance)
            assert a >= b
            if abs(delta_b) > abs(delta_a) * (1 + 2**-48):
                assert a > b


class TestScoreCandidates:
    def test_fixture_scored_list(self):
        table, regions = analyzed(inconsistent_sum_workbook())
        scored = score_candidates(candidates_of(regions), table, Layout(regions, 30))
        assert len(scored) == 2
        by_score = sorted(scored, key=lambda p: -p.score)
        top, runner_up = by_score
        assert top.source == Rect(6, 6, 6, 6)
        assert top.target == Rect(6, 7, 6, 11)
        assert top.score == pytest.approx(24.163126574949864, rel=1e-12)
        assert top.delta_entropy == pytest.approx(-0.026494270005942233, rel=1e-12)
        assert top.distance == pytest.approx(7.810249675906654, rel=1e-12)
        assert top.target.area == 5
        assert runner_up.source == Rect(6, 7, 6, 11)
        assert runner_up.source_cells == ((6, 7), (6, 8), (6, 9), (6, 10), (6, 11))
        assert runner_up.target == Rect(6, 6, 6, 6)
        assert runner_up.score == pytest.approx(0.7315393827118656, rel=1e-12)
        assert runner_up.distance == pytest.approx(51.59532240117975, rel=1e-12)

    def test_admissible_but_non_reducing_dropped(self):
        table, regions = analyzed(inconsistent_sum_workbook())
        candidates = candidates_of(regions)
        passing = [c for c in candidates if admissible(c, table) is None]
        scored = score_candidates(candidates, table, Layout(regions, 30))
        assert len(passing) == 3
        assert len(scored) == 2  # one passing candidate raises entropy


def proposed(score, source, target):
    return ProposedFix(source=source, target=target, delta_entropy=-0.1, distance=1.0, score=score)


class TestRankAndCut:
    def test_budget_stops_at_first_overflow(self):
        fixes = [
            proposed(3.0, Rect(1, 1, 3, 1), Rect(1, 2, 3, 2)),
            proposed(2.0, Rect(1, 4, 3, 4), Rect(1, 5, 3, 5)),
            proposed(1.0, Rect(5, 5, 5, 5), Rect(5, 6, 5, 6)),
        ]
        # budget 5: first fits (3), second overflows (6) and emission
        # stops there; the later single-cell fix is not considered.
        kept = rank_and_cut(fixes, 0.05, 100)
        assert kept == [fixes[0]]

    def test_budget_uses_exact_arithmetic(self):
        fixes = [
            proposed(2.0, Rect(1, 1, 7, 1), Rect(1, 2, 7, 2)),
            proposed(1.0, Rect(9, 9, 9, 9), Rect(9, 10, 9, 10)),
        ]
        # 0.07 * 100 is 7.000000000000001 in floats; the budget must
        # still be 7, so the second fix overflows.
        kept = rank_and_cut(fixes, 0.07, 100)
        assert kept == [fixes[0]]

    def test_duplicate_source_sets_collapse(self):
        first = proposed(5.0, Rect(1, 1, 1, 1), Rect(2, 1, 2, 1))
        second = proposed(4.0, Rect(1, 1, 1, 1), Rect(1, 2, 1, 2))
        kept = rank_and_cut([second, first], 1.0, 10)
        assert kept == [first]

    def test_full_threshold_keeps_everything(self):
        fixes = [
            proposed(3.0, Rect(1, 1, 1, 1), Rect(2, 1, 2, 1)),
            proposed(2.0, Rect(1, 2, 1, 2), Rect(2, 2, 2, 2)),
            proposed(1.0, Rect(1, 3, 1, 3), Rect(2, 3, 2, 3)),
        ]
        assert rank_and_cut(fixes, 1.0, 3) == fixes

    def test_ties_prefer_smaller_sources_then_position(self):
        big = proposed(2.0, Rect(1, 1, 2, 1), Rect(1, 2, 2, 2))
        small_late = proposed(2.0, Rect(5, 5, 5, 5), Rect(5, 6, 5, 6))
        small_early = proposed(2.0, Rect(1, 3, 1, 3), Rect(1, 4, 1, 4))
        kept = rank_and_cut([big, small_late, small_early], 1.0, 100)
        assert kept == [small_early, small_late, big]

    def test_fixture_budget(self):
        table, regions = analyzed(inconsistent_sum_workbook())
        scored = score_candidates(candidates_of(regions), table, Layout(regions, 30))
        # ceil(0.05 * 30) = 2 flagged cells: the one-cell top fix fits,
        # the five-cell runner-up does not.
        kept = rank_and_cut(scored, 0.05, 30)
        assert [f.source for f in kept] == [Rect(6, 6, 6, 6)]


class TestBuildFixes:
    def test_fixture_end_to_end(self):
        table, regions = analyzed(inconsistent_sum_workbook())
        fixes = build_fixes(table, regions, 30)
        assert len(fixes) == 1
        fix = fixes[0]
        assert fix.source == Rect(6, 6, 6, 6)
        assert fix.target == Rect(6, 7, 6, 11)
        assert fix.score == pytest.approx(24.163126574949864, rel=1e-12)

    def test_applying_top_fix_lowers_layout_entropy(self):
        workbook = inconsistent_sum_workbook()
        table, regions = analyzed(workbook)
        before = layout_entropy(regions, 30)

        repaired_cells = dict(workbook.sheets[0].cells)
        repaired_cells[(6, 6)] = CellContent.formula("=SUM(B6:D6)")
        repaired = Workbook("repaired", [Worksheet("Totals", repaired_cells)])
        table2, regions2 = analyzed(repaired)

        assert layout_entropy(regions2, 30) < before
        assert len(regions2) == 2
        assert build_fixes(table2, regions2, 30) == []


def test_build_fixes_indexes_the_regions_once(monkeypatch):
    # Candidates and scores read one Layout: one edge index per call.
    from gridlint import fixes

    table, regions = analyzed(inconsistent_sum_workbook())
    built = []

    class CountingIndex(fixes._EdgeIndex):
        def __init__(self):
            built.append(self)
            super().__init__()

    monkeypatch.setattr(fixes, "_EdgeIndex", CountingIndex)
    assert len(build_fixes(table, regions, 30)) == 1
    assert len(built) == 1


class TestBenchmarkHooks:
    """The benchmark's tracer replaces `admissible`, `entropy_delta` and
    `fix_distance` on the module, times the delta and counts non-drops
    from its return value; a call that bypasses the module attribute
    silently zeroes those metrics."""

    def test_scoring_calls_each_hook_through_the_module(self, monkeypatch):
        from gridlint import fixes

        table, regions = analyzed(inconsistent_sum_workbook())
        candidates = candidates_of(regions)
        expected = [rebuilt_entropy_delta(c, regions, 30) for c in candidates if admissible(c, table) is None]
        calls: dict[str, list] = {"admissible": [], "entropy_delta": [], "fix_distance": []}
        for name, log in calls.items():
            def counting(*args, _original=getattr(fixes, name), _log=log, **kwargs):
                result = _original(*args, **kwargs)
                _log.append(result)
                return result
            monkeypatch.setattr(fixes, name, counting)

        kept = build_fixes(table, regions, 30)
        assert len(calls["admissible"]) == len(candidates)
        assert calls["entropy_delta"] == expected
        assert len(calls["fix_distance"]) == sum(1 for d in expected if d < 0)
        assert kept
        assert all(fix.delta_entropy in calls["entropy_delta"] for fix in kept)
