"""Entropy measure, guillotine decomposition, coalescing, delimiter cuts."""

import math
import random
from collections import Counter
from itertools import chain
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from gridlint import entropy
from gridlint.entropy import (
    EntropyNode,
    NegativeCountError,
    Region,
    _XLogXTable,
    _axis_runs,
    _cut_margin,
    _distinct_half,
    _run_cuts,
    _half_scores,
    coalesce,
    decompose_grid,
    delimiter_splits,
    entropy_tree,
    normalized_entropy,
    tree_leaves,
)
from gridlint.grid import FingerprintGrid
from gridlint.model import Rect

from conftest import banded_tile_grid, random_label_grid
from oracle import (
    InvalidSplitError,
    PrefixCounts,
    best_split,
    mergeable,
    naive_delimiter_splits,
    naive_run_cuts,
    region_key,
    split_entropy,
    split_halves,
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
        assert isinstance(tree, Region)

    def test_single_cell_is_leaf(self):
        assert isinstance(entropy_tree(FingerprintGrid([["A"]])), Region)

    def test_two_band_grid(self):
        grid = FingerprintGrid([["A", "A"], ["B", "B"]])
        tree = entropy_tree(grid)
        assert isinstance(tree, EntropyNode)
        assert tree.vertical is False and tree.index == 1
        assert split_entropy(grid, tree.rect, tree.index, tree.vertical) == 0.0

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
        assert [leaf.rect for leaf in leaves] == [Rect(1, 1, 2, 2), Rect(3, 1, 3, 2)]

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
            cells = set(leaf.rect.cells())
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
            if isinstance(node, Region):
                continue
            region = node.rect
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
        regions = tree_leaves(entropy_tree(grid))
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


class TestBenchmarkHooks:
    """The benchmark's tracer replaces `delimiter_splits`, `entropy_tree`
    and `coalesce` on the module, and counts each returned tree's nodes
    and leaves by shape: a node has `low` and `high`, a leaf neither.  A
    call that bypasses the module attribute silently zeroes those metrics."""

    def test_decomposition_calls_each_hook_through_the_module(self, monkeypatch):
        # Delimiter runs along column 4 and row 3 cut the grid into seven
        # pieces: three single-fingerprint ones and four mixed 3 x 2 blocks.
        grid = FingerprintGrid([list(row) for row in ("aabEccd", "abbEcdd", "EEEEEEE", "abaEddc", "bbaEcdd")])
        calls: dict[str, list] = {"delimiter_splits": [], "entropy_tree": [], "coalesce": []}
        for name, log in calls.items():
            def recording(*args, _original=getattr(entropy, name), _log=log, **kwargs):
                result = _original(*args, **kwargs)
                _log.append((args, result))
                return result
            monkeypatch.setattr(entropy, name, recording)

        regions = decompose_grid(grid)
        [(_, pieces)] = calls["delimiter_splits"]
        assert len(pieces) == 7
        assert [args[1] for args, _ in calls["entropy_tree"]] == pieces
        [((coalesced,), result)] = calls["coalesce"]
        assert result == regions
        nodes, leaves = 0, []
        for _, tree in calls["entropy_tree"]:
            stack = [tree]
            while stack:
                node = stack.pop()
                if hasattr(node, "low"):
                    nodes += 1
                    stack.extend([node.high, node.low])
                else:
                    leaves.append(node)
        assert all(isinstance(leaf, Region) for leaf in leaves)
        assert leaves == coalesced and len(leaves) == 19
        assert nodes == len(leaves) - len(pieces)


# -- naive references: the per-cut search and the O(R^3) fixed point ------


def sweep_halves(hists, sizes):
    """(low, high) half scores of each cut between consecutive strips,
    swept afresh."""
    table = _XLogXTable()
    return _half_scores(hists[:-1], sizes, table), _half_scores(hists[:0:-1], sizes[:0:-1], table)[::-1]


def sweep(hists, sizes, table):
    """Sweep score of each cut between consecutive strips, as `_cut_search`
    forms it: its low half's score, swept from the first strip, plus its
    high half's, swept from the last."""
    low = _half_scores(hists[:-1], sizes, table)
    high = _half_scores(hists[:0:-1], sizes[:0:-1], table)[::-1]
    return [a + b for a, b in zip(low, high)]


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
        if isinstance(node, Region):
            out.append((node.rect, None))
        else:
            e = split_entropy(grid, node.rect, node.index, node.vertical)
            out.append((node.rect, (node.vertical, node.index, float.hex(e))))
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


def table_grid(rng, width, height):
    """A table at least 3 x 3: a header row, a column of row labels, a
    body of numbers with up to two stray cells, a total row of copied
    formulas and sometimes a total column: blocks the tree peels one
    edge line at a time."""
    rows = [["H"] * width] + [["R"] + ["N"] * (width - 1) for _ in range(height - 2)] + [["R"] + ["T"] * (width - 1)]
    if rng.random() < 0.5:
        for row in rows[1:-1]:
            row[-1] = "S"
    for _ in range(rng.randint(0, 2)):
        rows[rng.randrange(1, height)][rng.randrange(1, width)] = rng.choice("XT")
    return FingerprintGrid(rows)


def copied_column_grid(rng, height, outliers):
    """A column of numbers beside a column of one copied formula with
    `outliers` cells of another: the tree peels the formula column one
    cell per node down to each outlier."""
    column = ["F"] * height
    for y in rng.sample(range(height), outliers):
        column[y] = rng.choice("XY")
    return FingerprintGrid([["N", code] for code in column])


@st.composite
def peel_grids(draw):
    """A table or a copied-formula column with one or two outliers, at
    (1, 1), and a corner to place it at as `grids_and_corners` does."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        grid = table_grid(rng, draw(st.integers(3, 14)), draw(st.integers(3, 14)))
    else:
        grid = copied_column_grid(rng, draw(st.integers(2, 40)), draw(st.integers(1, 2)))
    last_left, last_top = MAX_COLUMN - grid.width + 1, MAX_ROW - grid.height + 1
    left = draw(st.one_of(st.integers(1, last_left), st.just(last_left)))
    top = draw(st.one_of(st.integers(1, last_top), st.just(last_top)))
    return grid, left, top


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

    @settings(max_examples=50, deadline=None)
    @given(st.one_of(st.tuples(st.integers(2, 9), st.integers(2, 9)), st.tuples(st.integers(2, 3), st.integers(2, 40))),
           st.booleans())
    @example((3, 40), True)
    @example((2, 40), False)
    def test_all_distinct_blocks_at_least_2_by_2(self, shape, framed):
        # A w x h block of distinct fingerprints, the whole grid or framed
        # by a repeated label; tall, thin blocks re-score many cuts.
        width, height = shape
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
        table = _XLogXTable()
        v_scores = sweep([Counter(col) for col in zip(*block)], [region.height] * region.width, table)
        h_scores = sweep([Counter(row) for row in block], [region.width] * region.height, table)
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
        # Up to 13 codes: one-wide and wider nodes whose lines, halves and
        # totals hold many codes, counted at the root and handed down to
        # the children, give the per-cut search's tree.
        width, height = rng.choice([(1, rng.randint(2, 30)), (rng.randint(2, 30), 1),
                                    (rng.randint(2, 12), rng.randint(2, 12))])
        assert_tree_matches_naive(noisy_grid(rng, width, height, "ABCDEFGHIJKL", chance=0.7))

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
            (True, region.left, sweep([Counter(col) for col in zip(*block)], [region.height] * region.width, table)),
            (False, region.top, sweep([Counter(row) for row in block], [region.width] * region.height, table)),
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
        table = _XLogXTable()
        for vertical, first, last in ((True, region.left, region.right), (False, region.top, region.bottom)):
            cuts = sorted(rng.sample(range(first, last), rng.randint(1, min(6, last - first))))
            hists, sizes = [], []
            for lo, hi in zip([first] + [i + 1 for i in cuts], cuts + [last]):
                strip = Rect(lo, region.top, hi, region.bottom) if vertical else Rect(region.left, lo, region.right, hi)
                hists.append(grid.counts_in(strip))
                sizes.append(strip.area)
            scores = sweep(hists, sizes, table)
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


def striped_rows(width, height):
    """Number, number, number, row-sum and blank columns repeated, the
    bottom-right cell a number: 3 * width / 5 - 1 run-boundary cuts, all
    vertical, for a width that is a multiple of 5."""
    rows = [["NNNSE"[x % 5] for x in range(width)] for _ in range(height)]
    rows[-1][-1] = "N"
    return rows


def striped_sheet_grid(n):
    return FingerprintGrid(striped_rows(n, n))


def one_axis_banded_grid(rng, vertical):
    """Uniform columns (vertical) or rows in runs of 1-3 lines of one of
    2-4 labels, the other cells random, and no uniform line across them:
    every run-boundary cut lies on one axis."""
    labels = "ABCD"[: rng.randint(2, 4)]
    along, across = rng.randint(2, 14), rng.randint(1, 14)
    runs = []
    while len(runs) < along:
        label = rng.choice(labels) if rng.random() < 0.5 else None
        runs += [label] * rng.randint(1, 3)
    runs = runs[:along]
    free = [i for i, label in enumerate(runs) if label is None]
    if not free:
        free = [rng.randrange(along)]
        runs[free[0]] = None
    rows = [[label or rng.choice(labels) for label in runs] for _ in range(across)]
    for row in rows:
        if row.count(row[0]) == along:
            i = rng.choice(free)
            row[i] = rng.choice([label for label in labels if label != row[i]])
    grid = FingerprintGrid(rows if vertical else [list(column) for column in zip(*rows)])
    assert not _axis_runs(grid, not vertical)
    return grid


@st.composite
def one_axis_banded_grids(draw):
    """A one-axis banded grid and a corner to place it at."""
    grid = one_axis_banded_grid(draw(st.randoms(use_true_random=False)), draw(st.booleans()))
    left = draw(st.integers(1, MAX_COLUMN - grid.width + 1))
    top = draw(st.integers(1, MAX_ROW - grid.height + 1))
    return grid, left, top


def crossed_banded_grid(rng):
    """Random cells of one to three labels, crossed by blank columns and
    rows in runs of one to three lines: uniform lines on both axes."""
    width, height = rng.randint(2, 16), rng.randint(2, 16)

    def blank_lines(n):
        out = []
        while len(out) < n:
            out += [rng.random() < 0.3] * rng.randint(1, 3)
        return out[:n]

    labels = "ABC"[: rng.randint(1, 3)]
    columns, rows = blank_lines(width), blank_lines(height)
    return FingerprintGrid([["E" if columns[x] or rows[y] else rng.choice(labels) for x in range(width)]
                            for y in range(height)])


@st.composite
def crossed_banded_grids(draw):
    """A crossed banded grid and a corner to place it at."""
    grid = crossed_banded_grid(draw(st.randoms(use_true_random=False)))
    left = draw(st.integers(1, MAX_COLUMN - grid.width + 1))
    top = draw(st.integers(1, MAX_ROW - grid.height + 1))
    return grid, left, top


def searches(monkeypatch):
    """The areas of the rectangles `_cut_search` is asked to cut, as a
    list that fills while the test runs."""
    areas = []
    search = entropy._cut_search
    monkeypatch.setattr(entropy, "_cut_search", lambda area, *args: areas.append(area) or search(area, *args))
    return areas


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
        col_ids, row_ids = _axis_runs(grid, True), _axis_runs(grid, False)
        for vertical, length, first, last in ((True, grid.width, left, right), (False, grid.height, top, bottom)):
            cuts = [i for i in _run_cuts(col_ids if vertical else row_ids, 1, length) if first <= i < last]
            if cuts:
                axes.append(entropy._gaps(grid, piece, cuts, col_ids, row_ids, vertical))
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

    @pytest.mark.parametrize("shape", ["columns", "rows"])
    def test_cuts_on_one_axis_are_not_searched(self, shape, monkeypatch):
        rows = striped_rows(200, 200)
        grid = FingerprintGrid(rows if shape == "columns" else [list(column) for column in zip(*rows)])
        searched = searches(monkeypatch)
        pieces = delimiter_splits(grid)
        assert searched == []
        assert len(pieces) == 120
        assert pieces == naive_delimiter_splits(grid)

    def test_wide_stripes_are_split_at_every_cut_at_once(self, monkeypatch):
        # 2,399 cuts, all vertical.  The oracle re-scores every remaining
        # cut after each one (about 20 s here), so the pieces are checked
        # against the strips between consecutive runs instead: each group
        # of five columns gives its number run, its sum column and its
        # blank column, and the last blank column, whose bottom cell is a
        # number, is no run but still a strip of its own.
        searched = searches(monkeypatch)
        pieces = delimiter_splits(FingerprintGrid(striped_rows(4000, 5)))
        assert searched == []
        assert pieces == [Rect(lo, 1, hi, 5) for start in range(1, 4001, 5)
                          for lo, hi in ((start, start + 2), (start + 3, start + 3), (start + 4, start + 4))]

    def test_stripes_under_a_blank_band_search_the_root_alone(self, monkeypatch):
        # Two blank rows across the top of column stripes: only the blank
        # columns stay uniform, so the root holds candidates on both axes,
        # and it is cut under the band.  That leaves the band, inside its
        # run, and stripes whose candidates are all vertical.
        rows = striped_rows(200, 200)
        rows[:2] = [["E"] * 200, ["E"] * 200]
        grid = FingerprintGrid(rows)
        searched = searches(monkeypatch)
        pieces = delimiter_splits(grid)
        assert searched == [200 * 200]
        assert pieces[0] == Rect(1, 1, 200, 2) and len(pieces) == 80
        assert pieces == naive_delimiter_splits(grid)

    @settings(max_examples=200, deadline=None)
    @given(one_axis_banded_grids())
    def test_one_axis_banded_grids_away_from_a1(self, case):
        grid, left, top = case
        want = [shifted(piece, left - 1, top - 1) for piece in naive_delimiter_splits(grid)]
        assert delimiter_splits(placed(grid, left, top)) == want

    @settings(max_examples=200, deadline=None)
    @given(crossed_banded_grids())
    def test_crossed_banded_grids_away_from_a1(self, case):
        # Candidates on both axes: pieces searched in turn, each taking
        # its strips and half scores from the piece it was cut from.
        grid, left, top = case
        want = [shifted(piece, left - 1, top - 1) for piece in naive_delimiter_splits(grid)]
        moved = placed(grid, left, top)
        with pytest.MonkeyPatch.context() as patch:
            events = delimiter_reads(patch)
            assert delimiter_splits(moved) == want
        assert_counts_only_first_and_smaller_pieces(moved, events)

    def test_handed_down_strips_equal_recounts(self, monkeypatch):
        # Every total and strip histogram a piece takes from the piece it
        # was cut from equals a recount of its cells, without a zero
        # count, and its shared half scores equal a fresh sweep's.
        spy = spy_handed_counts(monkeypatch)
        rng = random.Random(4)
        grids = [crossed_banded_grid(rng) for _ in range(40)]
        rows = striped_rows(60, 60)
        rows[30] = ["E"] * 60
        for spy.grid in grids + [FingerprintGrid(rows)]:
            assert delimiter_splits(spy.grid) == naive_delimiter_splits(spy.grid)
        assert spy.checked["piece"] > 40 and spy.checked["unsearched piece"] > 0

    def test_a_tied_cut_counts_its_low_piece(self, monkeypatch):
        # The root's best cut, under the blank row, halves it: 12 cells a
        # side.  Only the low piece has two strips along the cut, so the
        # high one needs no strips, and the low one, the smaller on a tie,
        # counts its strips outside the runs.
        grid = FingerprintGrid([list(row) for row in ["ABEABA", "EEEEEE", "BAEBAB", "ABEABA"]])
        events = delimiter_reads(monkeypatch)
        delimiter_splits(grid)
        assert [kind for kind, _ in events[:4]] == ["read"] * 4
        assert events[4:7] == [("search", Rect(1, 1, 6, 4), (False, 2)), ("read", Rect(1, 1, 2, 2)),
                               ("read", Rect(4, 1, 6, 2))]
        assert_counts_only_first_and_smaller_pieces(grid, events)

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
    assert split_entropy(stripes_grid, stripes.rect, stripes.index, stripes.vertical) == 0.0
    assert split_entropy(board_grid, board.rect, board.index, board.vertical) == 2.0


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
    half = entropy._distinct_half
    monkeypatch.setattr(entropy, "_distinct_half", lambda m, memo: halves.append(m) or half(m, memo))
    tree = entropy_tree(grid)
    assert halves == []
    assert len(tree_leaves(tree)) == 2001
    column = tree.high
    assert (column.rect, column.vertical, column.index) == (Rect(2, 1, 2, 2000), False, 1)
    assert split_entropy(grid, column.rect, column.index, column.vertical) == normalized_entropy([1] * 1999, 1999)


def block_reads(monkeypatch):
    """The rectangles whose cells are read off the code rows to be
    counted (`FingerprintGrid.block`), as a list that fills while the
    test runs."""
    reads = []
    block = FingerprintGrid.block
    monkeypatch.setattr(FingerprintGrid, "block", lambda self, rect: reads.append(rect) or block(self, rect))
    return reads


def assert_counts_only_roots_and_smaller_children(tree, reads):
    """Each rectangle in `reads` is the tree's root, or the smaller child
    by area (the low one on a tie) of a node at least two cells wide and
    tall, and is read once: so no cell is counted more than
    1 + log2(area) times."""
    smaller = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, EntropyNode):
            low, high = node.low.rect, node.high.rect
            if node.rect.width > 1 and node.rect.height > 1:
                smaller.add(low if low.area <= high.area else high)
            stack += [node.low, node.high]
    root = tree.rect
    assert all(rect == root or rect in smaller for rect in reads)
    assert len(set(reads)) == len(reads)
    times = Counter(cell for rect in reads for cell in rect.cells())
    assert max(times.values(), default=0) <= 1 + math.log2(root.area)


def test_only_a_root_or_a_smaller_child_counts_its_cells(monkeypatch):
    grid = noisy_grid(random.Random(22), 22, 22)
    reads = block_reads(monkeypatch)
    tree = entropy_tree(grid)
    assert reads[0] == grid.full_rect() and len(reads) > 20
    assert_counts_only_roots_and_smaller_children(tree, reads)


def test_a_tied_cut_counts_its_low_child(monkeypatch):
    # The root's best cut halves it into two 2 x 2 blocks of two codes
    # each, both needing a cut: the low one, the smaller on a tie, is
    # counted.  Their children are one-wide and take their codes.
    grid = FingerprintGrid([["A", "B", "C", "D"], ["B", "A", "D", "C"]])
    reads = block_reads(monkeypatch)
    tree = entropy_tree(grid)
    assert (tree.vertical, tree.index) == (True, 2)
    assert reads == [Rect(1, 1, 4, 2), Rect(1, 1, 2, 2)]
    assert_counts_only_roots_and_smaller_children(tree, reads)


def delimiter_reads(monkeypatch):
    """The delimiter pass's searches and cell reads in the order they
    happen, as a list that fills while the test runs: ("search", piece,
    cut) as a searched piece hands its counts down (`_hand_down`), and
    ("read", rect) as `FingerprintGrid.block` reads a rectangle."""
    events = []
    hand_down, block = entropy._hand_down, FingerprintGrid.block

    def searching(r, total, axes, cut, *args):
        events.append(("search", r, cut))
        return hand_down(r, total, axes, cut, *args)

    monkeypatch.setattr(entropy, "_hand_down", searching)
    monkeypatch.setattr(FingerprintGrid, "block", lambda self, rect: events.append(("read", rect)) or block(self, rect))
    return events


def assert_counts_only_first_and_smaller_pieces(grid, events):
    """The delimiter pass's `assert_counts_only_roots_and_smaller_children`:
    cells are read, each rectangle once, only before the first search,
    which is of the whole grid, and after each search only inside its
    smaller piece (the low one on a tie); no rectangle read lies inside a
    delimiter run, and no cell is read more than 1 + log2(area) times."""
    col_ids, row_ids = _axis_runs(grid, True), _axis_runs(grid, False)
    searched = [r for kind, r, *_ in events if kind == "search"]
    allowed = grid.full_rect()
    reads = []
    for kind, r, *cut in events:
        if kind == "search":
            low, high = split_halves(r, cut[0][1], cut[0][0])
            allowed = low if low.area <= high.area else high
            continue
        assert allowed.left <= r.left <= r.right <= allowed.right
        assert allowed.top <= r.top <= r.bottom <= allowed.bottom
        assert not entropy._inside_run(col_ids, r.left, r.right)
        assert not entropy._inside_run(row_ids, r.top, r.bottom)
        reads.append(r)
    assert not reads or searched[0] == grid.full_rect()
    assert len(set(reads)) == len(reads)
    times = Counter(cell for rect in reads for cell in rect.cells())
    assert max(times.values(), default=0) <= 1 + math.log2(grid.full_rect().area)


def spy_handed_counts(monkeypatch):
    """Check the counts every cut hands down against a recount of the
    cells of `spy.grid`, which the caller sets to the grid being cut:
    each child's total and strips from `_hand_down`, with their cell
    counts and the half scores it shares with its parent, and each
    one-wide node's total and codes as `_line_cut` gets them.  Counts
    must equal a recount without a zero count, and shared half scores a
    fresh sweep.  Returns the spy; `spy.checked` counts the children and
    nodes checked so far, by kind."""
    spy = SimpleNamespace(grid=None, checked=Counter())
    hand_down, line_cut = entropy._hand_down, entropy._line_cut

    def recount(rect):
        return Counter(chain.from_iterable(spy.grid.block(Rect(*rect))))

    def no_zeros(hist):
        assert all(c > 0 for c in hist.values())

    def checking_hand_down(r, total, axes, cut, halves, count, settle):
        rects, children = hand_down(r, total, axes, cut, halves, count, settle)
        vertical, index = cut
        assert list(rects) == list(split_halves(Rect(*r), index, vertical))
        for side, (rect, (child_total, child_axes, known)) in enumerate(zip(rects, children)):
            no_zeros(child_total)
            assert child_total == recount(rect)
            if child_axes is None:
                assert known is None
                wide = rect[0] < rect[2] and rect[1] < rect[3]
                spy.checked[("settled block" if wide else "one-wide child") if settle else "unsearched piece"] += 1
                continue
            assert [axis[0] for axis in child_axes] == [True, False]
            for axis_vertical, hists, sizes, lasts in child_axes:
                strips = entropy._strips(Rect(*rect), axis_vertical, list(lasts[:-1]))
                assert lasts[-1] == (rect[2] if axis_vertical else rect[3])
                assert list(sizes) == [strip.area for strip in strips] and len(hists) == len(strips)
                for hist, strip in zip(hists, strips):
                    no_zeros(hist)
                    assert hist == recount(strip)
                if axis_vertical == vertical:
                    low, high = sweep_halves(hists, sizes)
                    assert known == ((vertical, low, None) if side == 0 else (vertical, None, high))
            spy.checked["block" if settle else "piece"] += 1
        return rects, children

    def checking_line(first, vertical, counts, table):
        total, codes, known = counts
        no_zeros(total)
        if codes is None:
            assert known is None
            spy.checked["settled line"] += 1
        else:
            assert total == Counter(codes)
            if known is not None:
                low, high = known[1:]
                assert known[0] == vertical
                if low is not None:
                    assert low == entropy._line_scores(codes[:-1], _XLogXTable())
                if high is not None:
                    assert high == entropy._line_scores(codes[:0:-1], _XLogXTable())[::-1]
            spy.checked["line"] += 1
        return line_cut(first, vertical, counts, table)

    monkeypatch.setattr(entropy, "_hand_down", checking_hand_down)
    monkeypatch.setattr(entropy, "_line_cut", checking_line)
    return spy


def test_handed_down_counts_equal_recounts(monkeypatch):
    # Noisy sheets, tables peeled line by line and a copied column with
    # an outlier: every histogram a node gets from its parent, the
    # larger child's being its parent's less the smaller child's, is the
    # one a recount finds, and every shared half score is a fresh one.
    spy = spy_handed_counts(monkeypatch)
    rng = random.Random(8)
    for spy.grid in [noisy_grid(rng, 18, 14), noisy_grid(rng, 9, 25, "ABCDEFGHIJKL", chance=0.7),
                     table_grid(rng, 12, 16), table_grid(rng, 7, 30), copied_column_grid(rng, 40, 2)]:
        assert_tree_matches_naive(spy.grid)
    kinds = ["block", "settled block", "line", "settled line"]
    assert min(spy.checked[kind] for kind in kinds) > 0


def test_decomposition_counts_nothing(monkeypatch):
    # No cut's entropy is read while decomposing.
    grid = noisy_grid(random.Random(3), 30, 30)
    monkeypatch.setattr(FingerprintGrid, "counts_in", lambda self, rect: pytest.fail("counts_in called"))
    assert len(decompose_grid(grid, preprocess=False)) > 1


def test_distinct_half_is_normalized_entropy_of_ones():
    # A half of an all-distinct block at least 2 x 2 holds two cells or more.
    halves = {}
    for m in [*range(2, 700), 2048, 4097]:
        assert _distinct_half(m, halves) == normalized_entropy([1] * m, m)
    assert len(halves) == 700 and _distinct_half(4097, halves) == normalized_entropy([1] * 4097, 4097)


def test_all_distinct_half_scores_are_computed_once_per_sheet(monkeypatch):
    # Two 3 x 4 blocks of distinct fingerprints either side of a blank
    # column are two delimiter pieces and two trees, which need the same
    # half sizes; the sheet's one memo computes each size once.
    rows = [[f"a{x},{y}" for x in range(3)] + ["blank"] + [f"b{x},{y}" for x in range(3)] for y in range(4)]
    grid = FingerprintGrid(rows)
    added, computed = [], []
    tree, half = entropy.entropy_tree, entropy._distinct_half

    def building(grid, piece, *, table):
        before = set(table.halves)
        built = tree(grid, piece, table=table)
        added.append(set(table.halves) - before)
        return built

    def scoring(m, halves):
        if m not in halves:
            computed.append(m)
        return half(m, halves)

    monkeypatch.setattr(entropy, "entropy_tree", building)
    monkeypatch.setattr(entropy, "_distinct_half", scoring)
    decompose_grid(grid)
    first, blank, second = added
    assert first == {2, 3, 4, 6, 8, 9} and not blank and not second
    assert sorted(computed) == sorted(first)
    for piece in delimiter_splits(grid):
        assert_tree_matches_naive(grid, piece)


def test_all_distinct_subtree_builds_no_histogram(monkeypatch):
    # Running totals: the root counts its cells, and hands each of its
    # two columns, column A of one code and column B of 2,000, its total.
    # Each is decided from that total alone, without reading its codes,
    # and column B's 1,999 peeled cells from their shapes.
    grid = FingerprintGrid([["num", f"sum{r}"] for r in range(2000)])
    decided = []
    block_cut, line_cut = entropy._block_cut, entropy._line_cut

    def deciding_block(grid, left, top, right, bottom, *args):
        decided.append(Rect(left, top, right, bottom))
        return block_cut(grid, left, top, right, bottom, *args)

    def deciding_line(first, vertical, counts, table):
        total, codes, known = counts
        decided.append((first, vertical, codes, known, len(total)))
        return line_cut(first, vertical, counts, table)

    monkeypatch.setattr(entropy, "_block_cut", deciding_block)
    monkeypatch.setattr(entropy, "_line_cut", deciding_line)
    tree = entropy_tree(grid)
    assert decided == [Rect(1, 1, 2, 2000), (1, False, None, None, 1), (1, False, None, None, 2000)]
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
        regions = tree_leaves(entropy_tree(grid))
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
        at_a1 = tree_preorder(entropy_tree(grid), grid)
        assert at_a1 == naive_preorder(grid)
        want = [(shifted(region, dx, dy), cut and (cut[0], cut[1] + (dx if cut[0] else dy), cut[2]))
                for region, cut in at_a1]
        moved = placed(grid, left, top)
        tree = entropy_tree(moved)
        assert tree_preorder(tree, moved) == want
        # A leaf is named by its top-left code, read at sheet coordinates.
        for leaf in tree_leaves(tree):
            assert moved.counts_in(leaf.rect) == {leaf.fingerprint: leaf.rect.area}

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


class TestPeelGridsOracle:
    """Peel-heavy grids, whose nodes mostly lose one edge line or one
    cell to their cut, against scoring every cut with exact counts."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(peel_grids(), thin_grids()))
    def test_tree_matches_the_per_cut_search(self, case):
        grid, left, top = case
        dx, dy = left - 1, top - 1
        want = [(shifted(region, dx, dy), cut and (cut[0], cut[1] + (dx if cut[0] else dy), cut[2]))
                for region, cut in naive_preorder(grid)]
        with pytest.MonkeyPatch.context() as patch:
            reads = block_reads(patch)
            moved = placed(grid, left, top)
            tree = entropy_tree(moved)
        assert tree_preorder(tree, moved) == want
        assert_counts_only_roots_and_smaller_children(tree, reads)


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
        with pytest.MonkeyPatch.context() as patch:
            reads = block_reads(patch)
            moved = placed(grid, left, top)
            tree = entropy_tree(moved)
        assert tree_preorder(tree, moved) == want
        # One-wide nodes are swept from the codes and totals handed down;
        # only the root and smaller children are counted from the cells.
        assert_counts_only_roots_and_smaller_children(tree, reads)

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
