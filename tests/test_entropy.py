"""Entropy measure, guillotine decomposition, coalescing, delimiter cuts."""

import math
import random
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from gridlint.entropy import (
    EntropyLeaf,
    EntropyNode,
    InvalidSplitError,
    NegativeCountError,
    Region,
    _XLogXTable,
    _axis_runs,
    _cut_margin,
    _sweep,
    best_split,
    coalesce,
    decompose_grid,
    delimiter_splits,
    entropy_tree,
    normalized_entropy,
    split_entropy,
    split_halves,
    tree_leaves,
)
from gridlint.grid import FingerprintGrid
from gridlint.model import Rect

from conftest import banded_tile_grid, random_label_grid
from oracle import mergeable, naive_delimiter_splits


def reference_entropy(counts, n):
    """Independent oracle in natural log; the ratio is base-free."""
    positive = [c for c in counts if c > 0]
    if not positive:
        return math.inf
    if n <= 1 or len(positive) == 1:
        return 0.0
    return -sum((c / n) * math.log(c / n) for c in positive) / math.log(n)


class TestNormalizedEntropy:
    def test_even_split(self):
        assert normalized_entropy([2, 2], 4) == 0.5

    def test_uniform_max(self):
        assert normalized_entropy([1, 1, 1, 1], 4) == 1.0

    def test_single_bucket_is_zero(self):
        assert normalized_entropy([4], 4) == 0.0
        assert normalized_entropy([1], 1) == 0.0

    def test_empty_is_infinite(self):
        assert normalized_entropy([], 0) == math.inf

    def test_negative_rejected(self):
        with pytest.raises(NegativeCountError):
            normalized_entropy([2, -1], 1)

    @given(
        st.lists(st.integers(0, 40), min_size=1, max_size=8).filter(lambda c: sum(c) > 0)
    )
    def test_matches_reference_oracle(self, counts):
        n = sum(counts)
        assert normalized_entropy(counts, n) == pytest.approx(
            reference_entropy(counts, n), abs=1e-12
        )

    @given(st.lists(st.integers(1, 40), min_size=2, max_size=8))
    def test_bounded_by_unit_interval(self, counts):
        value = normalized_entropy(counts, sum(counts))
        assert 0.0 <= value <= 1.0 + 1e-12


class TestSplitEntropy:
    def grid(self):
        return FingerprintGrid([["A", "A"], ["B", "B"]])

    def test_clean_horizontal_cut(self):
        assert split_entropy(self.grid(), Rect(1, 1, 2, 2), 1, vertical=False) == 0.0

    def test_mixed_vertical_cut(self):
        # both halves hold one A and one B: entropy 1 each
        assert split_entropy(self.grid(), Rect(1, 1, 2, 2), 1, vertical=True) == 2.0

    def test_invalid_index(self):
        with pytest.raises(InvalidSplitError):
            split_entropy(self.grid(), Rect(1, 1, 2, 2), 2, vertical=True)
        with pytest.raises(InvalidSplitError):
            split_halves(Rect(1, 1, 2, 2), 0, vertical=False)


class TestEntropyTree:
    def test_pure_grid_is_leaf(self):
        grid = FingerprintGrid([["A", "A"], ["A", "A"]])
        tree = entropy_tree(grid)
        assert isinstance(tree, EntropyLeaf)

    def test_single_cell_is_leaf(self):
        assert isinstance(entropy_tree(FingerprintGrid([["A"]])), EntropyLeaf)

    def test_two_band_grid(self):
        grid = FingerprintGrid([["A", "A"], ["B", "B"]])
        tree = entropy_tree(grid)
        assert isinstance(tree, EntropyNode)
        assert tree.vertical is False and tree.index == 1 and tree.entropy == 0.0

    def test_vertical_wins_ties(self):
        # fully mixed 2x2: all cuts score 2.0; vertical, index 1 must win
        grid = FingerprintGrid([["A", "B"], ["B", "A"]])
        tree = entropy_tree(grid)
        assert tree.vertical is True and tree.index == 1

    def test_smallest_index_wins_ties(self):
        grid = FingerprintGrid([["A", "B", "A", "B"]])
        tree = entropy_tree(grid)
        assert tree.vertical is True and tree.index == 1

    def test_stripe_leaves(self):
        grid = FingerprintGrid([["A", "A", "B"], ["A", "A", "B"]])
        leaves = tree_leaves(entropy_tree(grid))
        assert [leaf.region for leaf in leaves] == [Rect(1, 1, 2, 2), Rect(3, 1, 3, 2)]

    def test_deep_strip_does_not_recurse(self):
        # 1x400 alternating strip forces ~400 nested cuts
        grid = FingerprintGrid([["A" if i % 2 == 0 else "B" for i in range(400)]])
        leaves = tree_leaves(entropy_tree(grid))
        assert len(leaves) == 400

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_leaves_partition_and_are_pure(self, rng):
        grid = random_label_grid(rng, max_side=7)
        leaves = tree_leaves(entropy_tree(grid))
        covered = set()
        for leaf in leaves:
            cells = set(leaf.region.cells())
            assert not (covered & cells)
            covered |= cells
            assert len({grid.fingerprint_at(x, y) for x, y in cells}) == 1
        assert covered == set(grid.full_rect().cells())

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_each_cut_attains_exhaustive_minimum(self, rng):
        grid = random_label_grid(rng, max_side=6)
        stack = [entropy_tree(grid)]
        while stack:
            node = stack.pop()
            if isinstance(node, EntropyLeaf):
                continue
            region = node.region
            best = math.inf
            for i in range(region.left, region.right):
                a, b = split_halves(region, i, True)
                value = reference_entropy(
                    grid.counts_in(a).values(), a.area
                ) + reference_entropy(grid.counts_in(b).values(), b.area)
                best = min(best, value)
            for i in range(region.top, region.bottom):
                a, b = split_halves(region, i, False)
                value = reference_entropy(
                    grid.counts_in(a).values(), a.area
                ) + reference_entropy(grid.counts_in(b).values(), b.area)
                best = min(best, value)
            assert node.entropy == pytest.approx(best, abs=1e-9)
            stack.extend([node.low, node.high])


class TestCoalesce:
    def test_merges_split_halves(self):
        regions = [
            Region(Rect(1, 1, 2, 1), "A"),
            Region(Rect(1, 2, 2, 2), "A"),
        ]
        assert coalesce(regions) == [Region(Rect(1, 1, 2, 2), "A")]

    def test_respects_fingerprints(self):
        regions = [
            Region(Rect(1, 1, 2, 1), "A"),
            Region(Rect(1, 2, 2, 2), "B"),
        ]
        assert len(coalesce(regions)) == 2

    def test_chain_merge(self):
        regions = [Region(Rect(1, y, 3, y), "A") for y in (1, 2, 3)]
        assert coalesce(regions) == [Region(Rect(1, 1, 3, 3), "A")]

    def test_l_shape_stays_split(self):
        regions = [
            Region(Rect(1, 1, 2, 2), "A"),
            Region(Rect(3, 1, 3, 3), "A"),
        ]
        assert len(coalesce(regions)) == 2

    def test_mergeable_geometry(self):
        assert mergeable(Rect(1, 1, 2, 2), Rect(1, 3, 2, 3))
        assert mergeable(Rect(3, 1, 3, 2), Rect(1, 1, 2, 2))
        assert not mergeable(Rect(1, 1, 2, 2), Rect(3, 3, 4, 4))
        assert not mergeable(Rect(1, 1, 2, 2), Rect(3, 1, 3, 3))

    def test_idempotent(self):
        regions = [
            Region(Rect(1, 1, 1, 1), "A"),
            Region(Rect(2, 1, 2, 1), "B"),
            Region(Rect(1, 2, 2, 2), "A"),
        ]
        once = coalesce(regions)
        assert coalesce(once) == once

    @settings(max_examples=50, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_input_order_does_not_matter(self, rng):
        grid = random_label_grid(rng, max_side=6)
        leaves = tree_leaves(entropy_tree(grid))
        regions = [
            Region(l.region, grid.fingerprint_at(l.region.left, l.region.top))
            for l in leaves
        ]
        shuffled = regions[:]
        rng.shuffle(shuffled)
        assert coalesce(regions) == coalesce(shuffled)


def naive_axis_runs(grid, vertical):
    """_axis_runs by reading every cell's fingerprint: a uniform line gets
    the id of the run of equal uniform lines it belongs to, others None."""
    length, depth = (grid.width, grid.height) if vertical else (grid.height, grid.width)
    ids = [None]
    run_id = 0
    previous = None  # the previous line's fingerprint, if it was uniform
    for i in range(1, length + 1):
        cells = [(i, j) if vertical else (j, i) for j in range(1, depth + 1)]
        fps = {grid.fingerprint_at(x, y) for x, y in cells}
        if len(fps) == 1:
            (fp,) = fps
            if fp != previous:
                run_id += 1
            ids.append(run_id)
            previous = fp
        else:
            ids.append(None)
            previous = None
    return ids


class TestDelimiterSplits:
    def quadrant_grid(self):
        def label(x, y):
            if x == 4 or y == 3:
                return "E"
            return {(False, False): "a", (True, False): "b", (False, True): "c", (True, True): "d"}[
                (x > 4, y > 3)
            ]

        return FingerprintGrid(
            [[label(x, y) for x in range(1, 8)] for y in range(1, 6)]
        )

    def test_quadrant_pieces(self):
        assert delimiter_splits(self.quadrant_grid()) == [
            Rect(1, 1, 3, 2),
            Rect(4, 1, 4, 2),
            Rect(5, 1, 7, 2),
            Rect(1, 3, 7, 3),
            Rect(1, 4, 3, 5),
            Rect(4, 4, 4, 5),
            Rect(5, 4, 7, 5),
        ]

    def test_no_delimiters_single_piece(self):
        grid = FingerprintGrid([["A", "B"], ["B", "A"]])
        assert delimiter_splits(grid) == [grid.full_rect()]

    def test_uniform_grid_single_piece(self):
        grid = FingerprintGrid([["A", "A"], ["A", "A"]])
        assert delimiter_splits(grid) == [grid.full_rect()]

    def test_adjacent_runs_of_different_labels_cut_apart(self):
        grid = FingerprintGrid([["A", "A", "B", "B"], ["A", "A", "B", "B"]])
        assert delimiter_splits(grid) == [Rect(1, 1, 2, 2), Rect(3, 1, 4, 2)]

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_axis_runs_match_fingerprint_scan(self, rng):
        # Two labels on small grids make uniform lines, and runs of them,
        # common.
        grid = random_label_grid(rng, max_side=6, max_labels=2)
        for vertical in (True, False):
            assert _axis_runs(grid, vertical) == naive_axis_runs(grid, vertical)

    def test_pieces_partition_grid(self):
        grid = self.quadrant_grid()
        covered = set()
        for piece in delimiter_splits(grid):
            cells = set(piece.cells())
            assert not (covered & cells)
            covered |= cells
        assert covered == set(grid.full_rect().cells())

    def test_strip_sharing_content_fingerprint(self):
        # The blank delimiter column shares its fingerprint with blanks
        # inside the content column.  Grids like this sit outside the
        # invariance class: both modes must still produce valid pure
        # partitions, but the partitions are allowed to differ.
        grid = FingerprintGrid(
            [
                ["E", "E", "b"],
                ["a", "E", "b"],
                ["E", "E", "b"],
            ]
        )
        for preprocess in (False, True):
            regions = decompose_grid(grid, preprocess=preprocess)
            covered = set()
            for region in regions:
                cells = set(region.rect.cells())
                assert not (covered & cells)
                covered |= cells
                assert {grid.fingerprint_at(x, y) for x, y in cells} == {region.fingerprint}
            assert covered == set(grid.full_rect().cells())


class TestDecomposeGrid:
    def test_quadrant_regions_frozen(self):
        grid = TestDelimiterSplits().quadrant_grid()
        expected = [
            Region(Rect(1, 1, 3, 2), "a"),
            Region(Rect(4, 1, 4, 2), "E"),
            Region(Rect(5, 1, 7, 2), "b"),
            Region(Rect(1, 3, 7, 3), "E"),
            Region(Rect(1, 4, 3, 5), "c"),
            Region(Rect(4, 4, 4, 5), "E"),
            Region(Rect(5, 4, 7, 5), "d"),
        ]
        assert sorted(decompose_grid(grid, preprocess=True)) == sorted(expected)
        assert sorted(decompose_grid(grid, preprocess=False)) == sorted(expected)

    def test_checkerboard_all_singletons(self):
        rows = [["A" if (x + y) % 2 == 0 else "B" for x in range(4)] for y in range(4)]
        grid = FingerprintGrid(rows)
        regions = decompose_grid(grid)
        assert len(regions) == 16
        assert all(r.rect.area == 1 for r in regions)

    def test_regions_partition_and_are_pure(self):
        rng = random.Random(11)
        for _ in range(30):
            grid = random_label_grid(rng, max_side=7)
            regions = decompose_grid(grid, preprocess=False)
            covered = set()
            for region in regions:
                cells = set(region.rect.cells())
                assert not (covered & cells)
                covered |= cells
                assert {grid.fingerprint_at(x, y) for x, y in cells} == {region.fingerprint}
            assert covered == set(grid.full_rect().cells())

    def test_banded_class_preprocess_invariance(self):
        rng = random.Random(19)
        for _ in range(25):
            grid = banded_tile_grid(rng)
            assert sorted(decompose_grid(grid, preprocess=True)) == sorted(
                decompose_grid(grid, preprocess=False)
            )

    def test_best_split_requires_interior(self):
        grid = FingerprintGrid([["A"]])
        with pytest.raises(InvalidSplitError):
            best_split(grid, Rect(1, 1, 1, 1))


# -- naive references: the per-cut search and the O(R^3) fixed point ------


def naive_best_split(grid, region):
    """Score every cut with split_entropy; vertical first, smallest index."""
    best = None
    for vertical, lo, hi in ((True, region.left, region.right), (False, region.top, region.bottom)):
        for i in range(lo, hi):
            e = split_entropy(grid, region, i, vertical)
            if best is None or e < best[2]:
                best = (vertical, i, e)
    return best


def naive_preorder(grid, region=None):
    """Preorder (region, cut) list of the tree the per-cut search builds;
    cut is None for a leaf, else (vertical, index, entropy)."""
    out = []
    stack = [region or grid.full_rect()]
    while stack:
        r = stack.pop()
        if r.area == 1 or len(grid.counts_in(r)) == 1:
            out.append((r, None))
            continue
        cut = naive_best_split(grid, r)
        out.append((r, cut))
        low, high = split_halves(r, cut[1], cut[0])
        stack.extend([high, low])
    return out


def tree_preorder(tree):
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, EntropyLeaf):
            out.append((node.region, None))
        else:
            out.append((node.region, (node.vertical, node.index, node.entropy)))
            stack.extend([node.high, node.low])
    return out


def naive_coalesce(regions):
    """Merge the first mergeable pair of the sorted list, to a fixed point."""
    key = lambda r: (r.rect.top, r.rect.left, r.rect.bottom, r.rect.right, repr(r.fingerprint))
    items = sorted(regions, key=key)
    merged = True
    while merged:
        merged = False
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                a, b = items[i], items[j]
                if a.fingerprint == b.fingerprint and mergeable(a.rect, b.rect):
                    r, s = a.rect, b.rect
                    union = Region(
                        Rect(min(r.left, s.left), min(r.top, s.top), max(r.right, s.right), max(r.bottom, s.bottom)),
                        a.fingerprint,
                    )
                    del items[j]
                    del items[i]
                    items.append(union)
                    items.sort(key=key)
                    merged = True
                    break
            if merged:
                break
    return items


def assert_tree_matches_naive(grid, region=None):
    got = tree_preorder(entropy_tree(grid, region))
    want = naive_preorder(grid, region)
    # == on the entropy floats: the sweep must reproduce them bit for bit.
    assert got == want


def stripe_grid(rng, width, height):
    """Columns or rows repeating a short label period: many cuts tie exactly."""
    period = [rng.choice("AB") for _ in range(rng.randint(1, 3))] + ["C"]
    by_column = rng.random() < 0.5
    return FingerprintGrid(
        [[period[(x if by_column else y) % len(period)] for x in range(width)] for y in range(height)]
    )


class TestSweepOracle:
    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_label_grids(self, rng):
        assert_tree_matches_naive(random_label_grid(rng, max_side=9))

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_stripes_with_tied_cuts(self, rng):
        assert_tree_matches_naive(stripe_grid(rng, rng.randint(1, 16), rng.randint(1, 16)))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 70), st.booleans())
    def test_all_distinct_column(self, n, with_data_column):
        # Running totals: a data column beside a column whose every cell
        # carries its own fingerprint.
        rows = [(["num"] if with_data_column else []) + [f"sum{r}"] for r in range(n)]
        assert_tree_matches_naive(FingerprintGrid(rows))

    def test_region_of_200_by_200(self):
        rng = random.Random(5)
        rows = [["A"] * 200 for _ in range(200)]
        blocks = [(20, 30, 90, 60), (120, 10, 199, 140), (5, 150, 60, 199)]
        for label, (left, top, right, bottom) in zip("BCD", blocks):
            for y in range(top, bottom + 1):
                rows[y][left:right + 1] = [label] * (right - left + 1)
        for _ in range(3):
            rows[rng.randrange(200)][rng.randrange(200)] = "E"
        grid = FingerprintGrid(rows)
        assert_tree_matches_naive(grid)

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_sub_rectangle(self, rng):
        grid = random_label_grid(rng, max_side=9)
        left, right = sorted(rng.randint(1, grid.width) for _ in range(2))
        top, bottom = sorted(rng.randint(1, grid.height) for _ in range(2))
        assert_tree_matches_naive(grid, Rect(left, top, right, bottom))

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_sweep_error_within_margin(self, rng):
        # _cut_margin is four times the per-cut error bound it derives.
        grid = random_label_grid(rng, max_side=12, max_labels=4)
        region = grid.full_rect()
        block = grid.code_rows
        total = Counter(chain.from_iterable(block))
        if region.area == 1 or len(total) == 1:
            return
        bound = _cut_margin(region.area) / 4
        table = _XLogXTable()
        sweeps = [
            (True, region.left, _sweep([Counter(col) for col in zip(*block)], [region.height] * region.width,
                                       total, table)),
            (False, region.top, _sweep([Counter(row) for row in block], [region.width] * region.height,
                                       total, table)),
        ]
        for vertical, first, scores in sweeps:
            for i, approx in enumerate(scores):
                assert abs(approx - split_entropy(grid, region, first + i, vertical)) <= bound

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_block_sweep_error_within_margin(self, rng):
        # Blocks of unequal size between random cuts of a banded grid,
        # each counted once, against split_entropy at every cut.
        grid = banded_tile_grid(rng)
        region = grid.full_rect()
        bound = _cut_margin(region.area) / 4
        total = grid.counts_in(region)
        table = _XLogXTable()
        for vertical, first, last in ((True, region.left, region.right), (False, region.top, region.bottom)):
            cuts = sorted(rng.sample(range(first, last), rng.randint(1, min(6, last - first))))
            hists, sizes = [], []
            for lo, hi in zip([first] + [i + 1 for i in cuts], cuts + [last]):
                strip = Rect(lo, region.top, hi, region.bottom) if vertical else Rect(region.left, lo, region.right, hi)
                hists.append(grid.counts_in(strip))
                sizes.append(strip.area)
            scores = _sweep(hists, sizes, total, table)
            assert len(scores) == len(cuts)
            for index, approx in zip(cuts, scores):
                assert abs(approx - split_entropy(grid, region, index, vertical)) <= bound

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_best_split_on_any_rectangle(self, rng):
        grid = random_label_grid(rng, max_side=7, max_labels=2)
        if grid.full_rect().area > 1:
            assert best_split(grid, grid.full_rect()) == naive_best_split(grid, grid.full_rect())


def random_banded_grid(rng, max_side=14):
    """1-4 labels; some columns and rows uniform, in runs of 1-3 lines of
    one label, the other cells random.  Where a uniform column crosses a
    uniform row, one of the two (the same one on the whole grid) wins."""
    labels = "ABCD"[: rng.randint(1, 4)]

    def lines(n, chance):
        out = []
        while len(out) < n:
            label = rng.choice(labels) if rng.random() < chance else None
            out += [label] * rng.randint(1, 3)
        return out[:n]

    width, height = rng.randint(1, max_side), rng.randint(1, max_side)
    columns, rows = lines(width, 0.5), lines(height, 0.4)
    columns_win = rng.random() < 0.5
    return FingerprintGrid(
        [
            [
                ((columns[x] or rows[y]) if columns_win else (rows[y] or columns[x])) or rng.choice(labels)
                for x in range(width)
            ]
            for y in range(height)
        ]
    )


def striped_sheet_grid(n):
    """Number, number, number, row-sum and blank columns repeated, the
    bottom-right cell a number: 3n/5 - 1 run-boundary cuts, all vertical."""
    rows = [["NNNSE"[x % 5] for x in range(n)] for _ in range(n)]
    rows[-1][-1] = "N"
    return FingerprintGrid(rows)


class TestDelimiterSplitsOracle:
    """The blockwise sweep against scoring every cut with two full counts."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_banded_grids(self, rng):
        grid = random_banded_grid(rng)
        assert delimiter_splits(grid) == naive_delimiter_splits(grid)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_stripes_with_tied_cuts(self, rng):
        grid = stripe_grid(rng, rng.randint(1, 30), rng.randint(1, 30))
        assert delimiter_splits(grid) == naive_delimiter_splits(grid)

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_banded_tile_grids(self, rng):
        grid = banded_tile_grid(rng)
        assert delimiter_splits(grid) == naive_delimiter_splits(grid)

    def test_striped_sheet_counts_little(self, monkeypatch):
        grid = striped_sheet_grid(200)
        calls = []
        counts_in = FingerprintGrid.counts_in

        def counting(self, rect):
            calls.append(rect)
            return counts_in(self, rect)

        monkeypatch.setattr(FingerprintGrid, "counts_in", counting)
        pieces = delimiter_splits(grid)
        assert len(calls) < 1000  # scoring every cut takes 14,280
        assert len(pieces) == 120
        assert pieces == naive_delimiter_splits(grid)


def random_guillotine_tiling(rng, width, height, labels):
    """Random leaves of random guillotine cuts, randomly labelled."""
    out = []
    stack = [Rect(1, 1, width, height)]
    while stack:
        r = stack.pop()
        if r.area > 1 and rng.random() < 0.75:
            vertical = r.width > 1 and (r.height == 1 or rng.random() < 0.5)
            lo, hi = (r.left, r.right) if vertical else (r.top, r.bottom)
            stack.extend(split_halves(r, rng.randrange(lo, hi), vertical))
        else:
            out.append(Region(r, rng.choice(labels)))
    return out


class TestCoalesceOracle:
    def test_first_pair_in_sorted_order_merges_first(self):
        # The top-left A can join its right or its lower neighbour; the
        # right one comes first in (top, left, bottom, right) order.
        regions = [
            Region(Rect(1, 2, 1, 2), "A"),
            Region(Rect(2, 2, 2, 2), "B"),
            Region(Rect(2, 1, 2, 1), "A"),
            Region(Rect(1, 1, 1, 1), "A"),
        ]
        expected = [Region(Rect(1, 1, 2, 1), "A"), Region(Rect(1, 2, 1, 2), "A"), Region(Rect(2, 2, 2, 2), "B")]
        assert naive_coalesce(regions) == expected
        assert coalesce(regions) == expected

    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_tree_leaves_in_shuffled_order(self, rng):
        grid = random_label_grid(rng, max_side=9, max_labels=3)
        regions = [
            Region(leaf.region, grid.fingerprint_at(leaf.region.left, leaf.region.top))
            for leaf in tree_leaves(entropy_tree(grid))
        ]
        rng.shuffle(regions)
        assert coalesce(regions) == naive_coalesce(regions)

    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_tilings_in_shuffled_order(self, rng):
        regions = random_guillotine_tiling(rng, rng.randint(1, 12), rng.randint(1, 12), "AB"[: rng.randint(1, 2)])
        rng.shuffle(regions)
        assert coalesce(regions) == naive_coalesce(regions)
