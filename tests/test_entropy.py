"""Entropy measure, guillotine decomposition, coalescing, delimiter cuts."""

import math
import random
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from gridlint import entropy
from gridlint.entropy import (
    EntropyLeaf,
    EntropyNode,
    InvalidSplitError,
    NegativeCountError,
    Region,
    _DistinctCuts,
    _XLogXTable,
    _axis_runs,
    _cut_margin,
    _run_cuts,
    _sweep,
    coalesce,
    decompose_grid,
    delimiter_splits,
    entropy_tree,
    normalized_entropy,
    split_halves,
    tree_leaves,
)
from gridlint.grid import FingerprintGrid
from gridlint.model import Rect

from conftest import banded_tile_grid, random_label_grid
from oracle import (
    PrefixCounts,
    best_split,
    mergeable,
    naive_delimiter_splits,
    naive_run_cuts,
    region_key,
    split_entropy,
)


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
        assert tree.vertical is False and tree.index == 1
        assert split_entropy(grid, tree.region, tree.index, tree.vertical) == 0.0

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
            assert split_entropy(grid, region, node.index, node.vertical) == pytest.approx(best, abs=1e-9)
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
    """_axis_runs by reading every cell's fingerprint: a uniform line maps
    to the id of the run of equal uniform lines it belongs to; other lines
    are absent."""
    full = grid.full_rect()
    lines, depth = ((full.left, full.right), (full.top, full.bottom)) if vertical else (
        (full.top, full.bottom), (full.left, full.right))
    ids = {}
    run_id = 0
    previous = None  # the previous line's fingerprint, if it was uniform
    for i in range(lines[0], lines[1] + 1):
        cells = [(i, j) if vertical else (j, i) for j in range(depth[0], depth[1] + 1)]
        fps = {grid.fingerprint_at(x, y) for x, y in cells}
        if len(fps) == 1:
            (fp,) = fps
            if fp != previous:
                run_id += 1
            ids[i] = run_id
            previous = fp
        else:
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


def naive_best_split(counter, region):
    """Score every cut with split_entropy over the exact counts of
    `counter`, a PrefixCounts; vertical first, smallest index."""
    best = None
    for vertical, lo, hi in ((True, region.left, region.right), (False, region.top, region.bottom)):
        for i in range(lo, hi):
            e = counter.split_entropy(region, i, vertical)
            if best is None or e < best[2]:
                best = (vertical, i, e)
    return best


def naive_preorder(grid, region=None):
    """Preorder (region, cut) list of the tree the per-cut search builds;
    cut is None for a leaf, else (vertical, index, float.hex(entropy))."""
    counter = PrefixCounts(grid)
    out = []
    stack = [region or grid.full_rect()]
    while stack:
        r = stack.pop()
        if r.area == 1 or len(counter.counts_in(r)) == 1:
            out.append((r, None))
            continue
        vertical, index, e = naive_best_split(counter, r)
        out.append((r, (vertical, index, float.hex(e))))
        low, high = split_halves(r, index, vertical)
        stack.extend([high, low])
    return out


def tree_preorder(tree, grid):
    """Preorder (region, cut) list of a tree on `grid`, as `naive_preorder`
    gives it, each cut scored with `split_entropy`."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, EntropyLeaf):
            out.append((node.region, None))
        else:
            e = split_entropy(grid, node.region, node.index, node.vertical)
            out.append((node.region, (node.vertical, node.index, float.hex(e))))
            stack.extend([node.high, node.low])
    return out


def naive_coalesce(regions):
    """Merge the first mergeable pair of the sorted list, to a fixed point."""
    items = sorted(regions, key=region_key)
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
                    items.sort(key=region_key)
                    merged = True
                    break
            if merged:
                break
    return items


def assert_tree_matches_naive(grid, region=None):
    got = tree_preorder(entropy_tree(grid, region), grid)
    want = naive_preorder(grid, region)
    # The entropy floats by float.hex: a read must reproduce them bit for bit.
    assert got == want


def noisy_grid(rng, width, height, labels="ABCD", chance=0.3):
    """Numbers with a share `chance` of the cells holding one of `labels`,
    as the benchmark's noisy sheets are laid out."""
    return FingerprintGrid(
        [[rng.choice(labels) if rng.random() < chance else "N" for _ in range(width)] for _ in range(height)]
    )


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

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 60), st.booleans())
    def test_long_thin_all_distinct(self, n, vertical):
        line = [f"d{i}" for i in range(n)]
        assert_tree_matches_naive(FingerprintGrid([[fp] for fp in line] if vertical else [line]))

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_all_distinct_blocks(self, rng):
        # A block whose every cell carries its own fingerprint, alone or
        # inside a grid of a few repeated labels.
        width, height = rng.randint(1, 9), rng.randint(1, 9)
        left, right = sorted(rng.randint(1, width) for _ in range(2))
        top, bottom = sorted(rng.randint(1, height) for _ in range(2))
        block = Rect(left, top, right, bottom) if rng.random() < 0.7 else Rect(1, 1, width, height)
        labels = "AB"[: rng.randint(1, 2)]
        rows = [
            [f"d{x},{y}" if block.contains(x, y) else rng.choice(labels) for x in range(1, width + 1)]
            for y in range(1, height + 1)
        ]
        assert_tree_matches_naive(FingerprintGrid(rows))

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_distinct_and_repeated_mix(self, rng):
        width, height = rng.randint(1, 10), rng.randint(1, 10)
        distinct = rng.random()
        labels = "ABC"[: rng.randint(1, 3)]
        rows = [
            [f"d{x},{y}" if rng.random() < distinct else rng.choice(labels) for x in range(width)]
            for y in range(height)
        ]
        assert_tree_matches_naive(FingerprintGrid(rows))

    @pytest.mark.parametrize("n", [1, 2, 3, 300])
    @pytest.mark.parametrize("vertical", [True, False])
    def test_long_thin_all_distinct_hand_cases(self, n, vertical):
        line = [f"d{i}" for i in range(n)]
        assert_tree_matches_naive(FingerprintGrid([[fp] for fp in line] if vertical else [line]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 9), st.integers(2, 9), st.booleans())
    def test_all_distinct_blocks_at_least_2_by_2(self, width, height, framed):
        # A w x h block of distinct fingerprints, the whole grid or framed
        # by a repeated label.
        pad = 1 if framed else 0
        rows = [
            [f"d{x},{y}" if pad <= x < width + pad and pad <= y < height + pad else "A"
             for x in range(width + 2 * pad)]
            for y in range(height + 2 * pad)
        ]
        assert_tree_matches_naive(FingerprintGrid(rows))

    def test_exact_minimum_above_sweep_minimum(self):
        # Cutting after column 2 and after row 3 give halves of equal
        # entropy.  The sweep puts the column cut lower by one ulp, the
        # exact scores the row cut, so only `_near_minimum`'s margin keeps
        # the row cut among the cuts re-scored.
        grid = FingerprintGrid([
            [0, 2, 3, 3],
            [3, 0, 2, 4],
            [0, 2, 4, 0],
            [2, 1, 3, 0],
            [3, 0, 1, 2],
            [2, 1, 2, 4],
        ])
        region = grid.full_rect()
        block = grid.code_rows
        total = Counter(chain.from_iterable(block))
        table = _XLogXTable()
        v_scores = _sweep([Counter(col) for col in zip(*block)], [region.height] * region.width, total, table)
        h_scores = _sweep([Counter(row) for row in block], [region.width] * region.height, total, table)
        assert min(v_scores + h_scores) == v_scores[1] < h_scores[2]
        assert split_entropy(grid, region, 3, False) < split_entropy(grid, region, 2, True)
        assert naive_best_split(PrefixCounts(grid), region)[:2] == (False, 3)
        assert_tree_matches_naive(grid)

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
    def test_noisy_grids(self, rng):
        assert_tree_matches_naive(noisy_grid(rng, rng.randint(1, 16), rng.randint(1, 16)))

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_many_code_grids(self, rng):
        # Up to 13 codes: nodes count their lines, halves and totals with
        # one count per code or with a Counter, on either side of
        # _FEW_CODES, and both give the per-cut search's tree.
        width, height = rng.choice([(1, rng.randint(2, 30)), (rng.randint(2, 30), 1),
                                    (rng.randint(2, 12), rng.randint(2, 12))])
        assert_tree_matches_naive(noisy_grid(rng, width, height, "ABCDEFGHIJKL", chance=0.7))

    def test_many_code_nodes_take_both_counting_paths(self, monkeypatch):
        sides = set()
        histogram = entropy._histogram

        def spying(cells, codes):
            sides.add(len(codes) > entropy._FEW_CODES)
            return histogram(cells, codes)

        monkeypatch.setattr(entropy, "_histogram", spying)
        assert_tree_matches_naive(noisy_grid(random.Random(5), 12, 12, "ABCDEFGHIJKL", chance=0.7))
        assert_tree_matches_naive(FingerprintGrid([list("ABCDEFGHIJKLABCDEFGHIJKL")]))
        assert sides == {False, True}

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_few_code_sparse_grids(self, rng):
        # Mostly blank, with a few cells of one to three codes.
        grid = noisy_grid(rng, rng.randint(1, 20), rng.randint(1, 20), "XYZ"[: rng.randint(1, 3)],
                          rng.choice([0.02, 0.05, 0.1]))
        assert_tree_matches_naive(grid)

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_banded_grids(self, rng):
        grid = random_banded_grid(rng) if rng.random() < 0.7 else banded_tile_grid(rng)
        assert_tree_matches_naive(grid)

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_distinct_lines_in_noise(self, rng):
        # Noisy cells around all-distinct columns or rows, as running
        # totals sit beside data.
        width, height = rng.randint(1, 12), rng.randint(1, 12)
        vertical = rng.random() < 0.5
        length = width if vertical else height
        lines = set(rng.sample(range(length), rng.randint(1, min(2, length))))
        rows = [
            [f"d{x},{y}" if (x if vertical else y) in lines else rng.choice("NNA") for x in range(width)]
            for y in range(height)
        ]
        assert_tree_matches_naive(FingerprintGrid(rows))

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
            assert best_split(grid, grid.full_rect()) == naive_best_split(PrefixCounts(grid), grid.full_rect())


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

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.integers(1, 3)), min_size=1, max_size=30),
           st.integers(1, 1_048_576))
    def test_run_cuts_match_run_starts_and_ends(self, lines, first):
        # Any run ids of the lines from `first` on, as `_axis_runs` maps them.
        ids = {line: run for line, run in enumerate(lines, first) if run is not None}
        want = [first - 1 + i for i in naive_run_cuts([None] + lines, len(lines))]
        assert _run_cuts(ids, first, first + len(lines) - 1) == want

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

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_exact_scores_equal_split_entropy(self, rng):
        # Every candidate cut of a piece, scored from the strips between
        # the cuts, against two full counts, bit for bit.
        grid = random_banded_grid(rng)
        left, right = sorted(rng.randint(1, grid.width) for _ in range(2))
        top, bottom = sorted(rng.randint(1, grid.height) for _ in range(2))
        piece = Rect(left, top, right, bottom)
        axes = []
        for vertical, length, first, last in ((True, grid.width, left, right), (False, grid.height, top, bottom)):
            ids = _axis_runs(grid, vertical)
            cuts = [i for i in _run_cuts(ids, 1, length) if first <= i < last]
            if cuts:
                axes.append(entropy._gaps(grid, piece, cuts, ids, vertical))
        if not axes:
            return
        total = Counter(chain.from_iterable(row[left - 1:right] for row in grid.code_rows[top - 1:bottom]))
        strips = {vertical: (hists, sizes, lasts) for vertical, hists, sizes, lasts in axes}
        for vertical, _, _, lasts in axes:
            for index in lasts[:-1]:
                exact = entropy._strip_score(vertical, index, strips, sorted(total), total, piece.area)
                assert exact == split_entropy(grid, piece, index, vertical)

    def test_striped_sheet_counts_little(self, monkeypatch):
        grid = striped_sheet_grid(200)
        calls = []
        counts_in = FingerprintGrid.counts_in

        def counting(self, rect):
            calls.append(rect)
            return counts_in(self, rect)

        monkeypatch.setattr(FingerprintGrid, "counts_in", counting)
        pieces = delimiter_splits(grid)
        assert calls == []  # scoring every cut with two counts takes 14,280
        assert len(pieces) == 120
        assert pieces == naive_delimiter_splits(grid)

    def test_running_totals_tree_counts_nothing(self, monkeypatch):
        # The tree re-scores its cuts from its sweep's line histograms.
        grid = FingerprintGrid([["num", f"sum{r}"] for r in range(200)])
        calls = []
        counts_in = FingerprintGrid.counts_in

        def counting(self, rect):
            calls.append(rect)
            return counts_in(self, rect)

        monkeypatch.setattr(FingerprintGrid, "counts_in", counting)
        tree = entropy_tree(grid)
        assert calls == []
        assert len(tree_leaves(tree)) == 201


def test_lone_near_minimum_cut_is_not_rescored(monkeypatch):
    # Two stripes: only the cut between them is near the sweep's minimum.
    # A checkerboard: both cuts of the root tie, so both are scored, two
    # halves each, and its 1 x 2 children are all-distinct lines.
    calls = []
    score = entropy.normalized_entropy
    monkeypatch.setattr(entropy, "normalized_entropy", lambda counts, n: calls.append(n) or score(counts, n))
    stripes_grid = FingerprintGrid([["A", "A", "B"], ["A", "A", "B"]])
    stripes = entropy_tree(stripes_grid)
    assert (stripes.vertical, stripes.index) == (True, 2) and calls == []
    board_grid = FingerprintGrid([["A", "B"], ["B", "A"]])
    board = entropy_tree(board_grid)
    assert (board.vertical, board.index) == (True, 1) and calls == [2, 2, 2, 2]
    # The cuts' entropies are the oracle's.
    assert split_entropy(stripes_grid, stripes.region, stripes.index, stripes.vertical) == 0.0
    assert split_entropy(board_grid, board.region, board.index, board.vertical) == 2.0


def test_only_near_minimum_ties_are_rescored(monkeypatch):
    # One-wide nodes, wider ones and all-distinct ones all pick their cut
    # through `_first_exact_minimum`, each with its own exact scorer.
    scored = []  # (cuts near the minimum, exact scores, scorer) per search
    first = entropy._first_exact_minimum

    def spying(cuts, score, *args):
        calls = []
        cut = first(cuts, lambda *cut: calls.append(cut) or score(*cut), *args)
        scored.append((len(cuts), len(calls), score.__name__))
        return cut

    monkeypatch.setattr(entropy, "_first_exact_minimum", spying)
    for seed in range(5):
        entropy_tree(noisy_grid(random.Random(seed), 12, 12))
    assert (1, 0, "_strip_score") in scored and (1, 0, "_line_score") in scored
    ties = {name for n, _, name in scored if n > 1}
    assert {"_strip_score", "_line_score"} <= ties
    assert all(calls == (0 if n == 1 else n) for n, calls, _ in scored)


def test_running_totals_column_scores_no_half(monkeypatch):
    # The 1 x 2,000 column peels one end cell per node and needs no exact
    # half score to do so.
    grid = FingerprintGrid([["num", f"sum{r}"] for r in range(2000)])
    halves = []
    half = _DistinctCuts._half
    monkeypatch.setattr(_DistinctCuts, "_half", lambda self, m: halves.append(m) or half(self, m))
    tree = entropy_tree(grid)
    assert halves == []
    assert len(tree_leaves(tree)) == 2001
    column = tree.high
    assert (column.region, column.vertical, column.index) == (Rect(2, 1, 2, 2000), False, 1)
    assert split_entropy(grid, column.region, column.index, column.vertical) == normalized_entropy([1] * 1999, 1999)


def test_child_counts_only_lines_across_its_parents_cut(monkeypatch):
    grid = noisy_grid(random.Random(22), 22, 22)
    counted = []  # (region, axes whose lines it counted) per node wider than one line
    block_cut, line_counts = entropy._block_cut, entropy._line_counts

    def deciding(block, left, top, *args):
        counted.append((Rect(left, top, left + len(block[0]) - 1, top + len(block) - 1), []))
        return block_cut(block, left, top, *args)

    def counting(block, vertical, codes):
        counted[-1][1].append(vertical)
        return line_counts(block, vertical, codes)

    monkeypatch.setattr(entropy, "_block_cut", deciding)
    monkeypatch.setattr(entropy, "_line_counts", counting)
    tree = entropy_tree(grid)
    parent_cut = {}
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, EntropyNode):
            parent_cut[node.low.region] = parent_cut[node.high.region] = node.vertical
            stack += [node.low, node.high]
    (root, root_axes), *children = counted
    assert root == grid.full_rect() and root_axes == [True, False]
    searched = [(region, axes) for region, axes in children if axes]
    assert len(searched) > 20
    assert all(axes == [not parent_cut[region]] for region, axes in searched)
    # One-wide nodes are swept from their codes and count no lines.
    assert all(region.width > 1 and region.height > 1 for region, _ in counted)


def test_decomposition_counts_nothing(monkeypatch):
    # No cut's entropy is read while decomposing.
    grid = noisy_grid(random.Random(3), 30, 30)
    monkeypatch.setattr(FingerprintGrid, "counts_in", lambda self, rect: pytest.fail("counts_in called"))
    assert len(decompose_grid(grid, preprocess=False)) > 1


def test_distinct_half_is_normalized_entropy_of_ones():
    cuts = _DistinctCuts()
    for m in [*range(1, 700), 2048, 4097]:
        assert cuts._half(m) == normalized_entropy([1] * m, m)


def test_all_distinct_subtree_builds_no_histogram(monkeypatch):
    # Running totals: the 1 x 2,000 column of distinct fingerprints is
    # decided from its histogram once, and its 1,999 peeled cells from
    # their shapes alone.
    grid = FingerprintGrid([["num", f"sum{r}"] for r in range(2000)])
    decided = []
    block_cut, line_cut = entropy._block_cut, entropy._line_cut

    def deciding_block(block, left, top, *args):
        decided.append(Rect(left, top, left + len(block[0]) - 1, top + len(block) - 1))
        return block_cut(block, left, top, *args)

    def deciding_line(codes, first, vertical, *args):
        decided.append((first, len(codes), vertical, len(set(codes))))
        return line_cut(codes, first, vertical, *args)

    monkeypatch.setattr(entropy, "_block_cut", deciding_block)
    monkeypatch.setattr(entropy, "_line_cut", deciding_line)
    tree = entropy_tree(grid)
    # The root, then column A (one code) and column B (2,000), each
    # swept down its rows from row 1.
    assert decided == [Rect(1, 1, 2, 2000), (1, 2000, False, 1), (1, 2000, False, 2000)]
    assert len(tree_leaves(tree)) == 2001


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


MAX_COLUMN, MAX_ROW = 16_384, 1_048_576  # XFD, and the last row of a sheet


def placed(grid, left, top):
    """The same code rows and palette with the top-left cell at (left, top)."""
    return FingerprintGrid.from_codes(grid.code_rows, grid.palette, left, top)


def shifted(rect, dx, dy):
    return Rect(rect.left + dx, rect.top + dy, rect.right + dx, rect.bottom + dy)


@st.composite
def grids_and_corners(draw):
    """A random, banded or banded-tile grid at (1, 1), and a corner to place
    it at: anywhere, or with its last column at XFD or its last row at
    1,048,576, or both."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["labels", "banded", "tiles"]))
    grid = {"labels": lambda: random_label_grid(rng, max_side=10),
            "banded": lambda: random_banded_grid(rng),
            "tiles": lambda: banded_tile_grid(rng)}[kind]()
    last_left, last_top = MAX_COLUMN - grid.width + 1, MAX_ROW - grid.height + 1
    left = draw(st.one_of(st.integers(1, last_left), st.just(last_left)))
    top = draw(st.one_of(st.integers(1, last_top), st.just(last_top)))
    return grid, left, top


class TestGridAwayFromA1:
    """A grid placed at another corner decomposes as the same grid at (1, 1)
    does, with every rectangle shifted by the corner."""

    @settings(max_examples=150, deadline=None)
    @given(grids_and_corners())
    def test_tree_leaves_and_cuts(self, case):
        # Cut entropies too: the oracle counts the same cells either way.
        grid, left, top = case
        dx, dy = left - 1, top - 1
        want = [(shifted(region, dx, dy), cut and (cut[0], cut[1] + (dx if cut[0] else dy), cut[2]))
                for region, cut in tree_preorder(entropy_tree(grid), grid)]
        moved = placed(grid, left, top)
        assert tree_preorder(entropy_tree(moved), moved) == want

    @settings(max_examples=150, deadline=None)
    @given(grids_and_corners())
    def test_delimiter_pieces(self, case):
        grid, left, top = case
        want = [shifted(piece, left - 1, top - 1) for piece in delimiter_splits(grid)]
        assert delimiter_splits(placed(grid, left, top)) == want

    @settings(max_examples=150, deadline=None)
    @given(grids_and_corners(), st.booleans())
    def test_decompose_grid(self, case, preprocess):
        grid, left, top = case
        want = [Region(shifted(r.rect, left - 1, top - 1), r.fingerprint)
                for r in decompose_grid(grid, preprocess=preprocess)]
        assert decompose_grid(placed(grid, left, top), preprocess=preprocess) == want

    def test_region_of_a_lone_corner_cell(self):
        # One cell at XFD1048576: its own used range.
        grid = placed(FingerprintGrid([["A"]]), MAX_COLUMN, MAX_ROW)
        assert decompose_grid(grid) == [Region(Rect(MAX_COLUMN, MAX_ROW, MAX_COLUMN, MAX_ROW), "A")]


@st.composite
def thin_grids(draw):
    """A grid one or two cells wide or tall, of 2-4 codes, at (1, 1), and a
    corner to place it at as `grids_and_corners` does.  Its lines are
    random, palindromes or runs of equal length, so that cuts tie."""
    k = draw(st.integers(2, 4))
    codes = st.integers(0, k - 1)

    def line(n):
        kind = draw(st.sampled_from(["random", "palindrome", "runs"]))
        if kind == "random":
            return draw(st.lists(codes, min_size=n, max_size=n))
        if kind == "palindrome":
            half = draw(st.lists(codes, min_size=n // 2, max_size=n // 2))
            return half + draw(st.lists(codes, min_size=n % 2, max_size=n % 2)) + half[::-1]
        run = draw(st.integers(1, 6))
        return [c for c in draw(st.lists(codes, min_size=-(-n // run), max_size=-(-n // run))) for _ in range(run)][:n]

    n = draw(st.integers(2, 40))
    lines = [line(n) for _ in range(draw(st.integers(1, 2)))]
    grid = FingerprintGrid(lines if draw(st.booleans()) else [list(cells) for cells in zip(*lines)])
    last_left, last_top = MAX_COLUMN - grid.width + 1, MAX_ROW - grid.height + 1
    left = draw(st.one_of(st.integers(1, last_left), st.just(last_left)))
    top = draw(st.one_of(st.integers(1, last_top), st.just(last_top)))
    return grid, left, top


class TestThinNodesOracle:
    """Nodes one cell wide, swept cell by cell from their codes, against
    scoring every cut with exact counts."""

    @settings(max_examples=300, deadline=None)
    @given(thin_grids())
    def test_tree_matches_the_per_cut_search(self, case):
        grid, left, top = case
        dx, dy = left - 1, top - 1
        # Cut entropies by float.hex, from exact counts on either side.
        want = [(shifted(region, dx, dy), cut and (cut[0], cut[1] + (dx if cut[0] else dy), cut[2]))
                for region, cut in naive_preorder(grid)]
        counted = []
        line_counts = entropy._line_counts

        def counting(block, vertical, codes):
            counted.append((len(block[0]), len(block)))
            return line_counts(block, vertical, codes)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(entropy, "_line_counts", counting)
            moved = placed(grid, left, top)
            tree = entropy_tree(moved)
        assert tree_preorder(tree, moved) == want
        # Only a node at least two cells wide and tall counts its lines.
        assert all(width > 1 and height > 1 for width, height in counted)

    @pytest.mark.parametrize("codes", [[0, 0, 1, 1, 0, 0], [0, 1, 2, 2, 1, 0], [0, 0, 1, 1, 2, 2, 3, 3]])
    @pytest.mark.parametrize("vertical", [True, False])
    def test_tied_cuts_are_rescored(self, codes, vertical, monkeypatch):
        # Palindromes and equal runs tie their cuts near the minimum, so
        # the line's sweep hands more than one to the exact scorer.
        ties = []
        first = entropy._first_exact_minimum

        def spying(cuts, score, *args):
            if score is entropy._line_score:
                ties.append(len(cuts))
            return first(cuts, score, *args)

        monkeypatch.setattr(entropy, "_first_exact_minimum", spying)
        grid = FingerprintGrid([codes] if vertical else [[c] for c in codes])
        assert_tree_matches_naive(grid)
        assert ties and max(ties) > 1
