"""Fingerprint grid: code rows, palette and slice counting versus plain scanning."""

import random

import pytest
from hypothesis import given, strategies as st

from gridlint.grid import FingerprintGrid
from gridlint.model import Rect
from oracle import PrefixCounts, naive_counts_in


def test_from_rows_shape():
    grid = FingerprintGrid([["A", "B"], ["B", "B"]])
    assert (grid.width, grid.height) == (2, 2)
    assert grid.fingerprint_at(1, 1) == "A"
    assert grid.fingerprint_at(2, 2) == "B"


def test_from_rows_rejects_ragged():
    with pytest.raises(ValueError):
        FingerprintGrid([["A"], ["A", "B"]])


def test_rejects_empty_grid():
    for rows in ([], [[]]):
        with pytest.raises(ValueError):
            FingerprintGrid(rows)


def test_bit_layout_row_major():
    grid = FingerprintGrid([["A", "B", "A"], ["B", "B", "C"]])
    assert grid.palette == ("A", "B", "C")
    assert grid.code_rows == [[0, 1, 0], [1, 1, 2]]


def test_counts_in_out_of_bounds():
    grid = FingerprintGrid([["A", "A"]])
    with pytest.raises(ValueError):
        grid.counts_in(Rect(1, 1, 3, 1))
    with pytest.raises(ValueError):
        grid.counts_in(Rect(1, 1, 1, 2))


def test_counts_known():
    grid = FingerprintGrid(
        [
            ["A", "A", "B"],
            ["A", "C", "B"],
        ]
    )
    assert grid.counts_in(Rect(1, 1, 3, 2)) == {"A": 3, "B": 2, "C": 1}
    assert grid.counts_in(Rect(1, 1, 2, 1)) == {"A": 2}
    assert grid.counts_in(Rect(3, 1, 3, 2)) == {"B": 2}


def test_counts_in_follows_code_order():
    grid = FingerprintGrid([["C", "A", "B"], ["B", "B", "A"]])
    assert grid.palette == ("C", "A", "B")
    assert list(grid.counts_in(Rect(1, 1, 3, 2))) == ["C", "A", "B"]
    assert list(grid.counts_in(Rect(2, 1, 3, 2))) == ["A", "B"]


def test_zero_counts_omitted():
    grid = FingerprintGrid([["A", "B"]])
    assert "B" not in grid.counts_in(Rect(1, 1, 1, 1))


@st.composite
def grid_and_rect(draw):
    width = draw(st.integers(1, 12))
    height = draw(st.integers(1, 12))
    labels = draw(st.integers(1, 5))
    rows = [
        [draw(st.integers(0, labels - 1)) for _ in range(width)] for _ in range(height)
    ]
    left = draw(st.integers(1, width))
    right = draw(st.integers(left, width))
    top = draw(st.integers(1, height))
    bottom = draw(st.integers(top, height))
    return FingerprintGrid(rows), Rect(left, top, right, bottom)


@given(grid_and_rect())
def test_masked_counts_match_naive_scan(case):
    grid, rect = case
    # independent oracle: plain dict-counting walk over the rectangle
    expected = {}
    for x, y in rect.cells():
        fp = grid.fingerprint_at(x, y)
        expected[fp] = expected.get(fp, 0) + 1
    assert grid.counts_in(rect) == expected
    assert naive_counts_in(grid, rect) == expected


@given(grid_and_rect())
def test_prefix_counts_match_naive_scan(case):
    # The tests' exact counter, in code order as counts_in returns counts.
    grid, rect = case
    got = PrefixCounts(grid).counts_in(rect)
    assert got == naive_counts_in(grid, rect)
    assert list(got) == [fp for fp in grid.palette if fp in got]


def test_prefix_counts_on_random_rectangles():
    rng = random.Random(3)
    rows = [[rng.choice(["A", "B", "C", (rng.randint(0, 9),)]) for _ in range(30)] for _ in range(25)]
    grid = FingerprintGrid(rows)
    counter = PrefixCounts(grid)
    for _ in range(300):
        left, right = sorted(rng.randint(1, 30) for _ in range(2))
        top, bottom = sorted(rng.randint(1, 25) for _ in range(2))
        rect = Rect(left, top, right, bottom)
        got = counter.counts_in(rect)
        assert got == naive_counts_in(grid, rect)
        assert list(got) == [fp for fp in grid.palette if fp in got]


def test_large_grid_spot_check():
    rng = random.Random(7)
    rows = [[rng.randint(0, 3) for _ in range(60)] for _ in range(40)]
    grid = FingerprintGrid(rows)
    rect = Rect(5, 3, 55, 38)
    assert grid.counts_in(rect) == naive_counts_in(grid, rect)


def test_grid_sits_at_its_corner():
    grid = FingerprintGrid.from_codes([[0, 1], [1, 1]], ("A", "B"), 3, 5)
    assert grid.full_rect() == Rect(3, 5, 4, 6)
    assert grid.fingerprint_at(3, 5) == "A" and grid.fingerprint_at(4, 6) == "B"
    assert list(grid.block(Rect(4, 5, 4, 6))) == [[1], [1]]
    assert FingerprintGrid([["A"]]).full_rect() == Rect(1, 1, 1, 1)
    with pytest.raises(ValueError):
        grid.counts_in(Rect(2, 5, 3, 5))
    with pytest.raises(ValueError):
        grid.counts_in(Rect(3, 4, 3, 5))


def test_from_cells_fills_the_rest_with_the_blank():
    grid = FingerprintGrid.from_cells(Rect(2, 3, 4, 4), [(2, 3), (4, 4)], [0, 2], 1, ("N", "E", "T"))
    assert grid.code_rows == [[0, 1, 1], [1, 1, 2]]
    assert grid.full_rect() == Rect(2, 3, 4, 4)


@given(grid_and_rect(), st.sampled_from(["any", "edge"]), st.randoms(use_true_random=False))
def test_placed_grid_counts_and_fingerprints_shift(case, where, rng):
    # The same grid with its top-left cell anywhere, or with its last
    # column at XFD and last row at 1,048,576, reads every rectangle and
    # cell as the grid at (1, 1) does, shifted by the corner.
    grid, rect = case
    if where == "edge":
        left, top = 16_384 - grid.width + 1, 1_048_576 - grid.height + 1
    else:
        left, top = rng.randint(1, 16_384 - grid.width + 1), rng.randint(1, 1_048_576 - grid.height + 1)
    moved = FingerprintGrid.from_codes(grid.code_rows, grid.palette, left, top)
    dx, dy = left - 1, top - 1
    assert moved.full_rect() == Rect(left, top, grid.width + dx, grid.height + dy)
    moved_rect = Rect(rect.left + dx, rect.top + dy, rect.right + dx, rect.bottom + dy)
    assert moved.counts_in(moved_rect) == grid.counts_in(rect) == naive_counts_in(moved, moved_rect)
    for x, y in rect.cells():
        assert moved.fingerprint_at(x + dx, y + dy) == grid.fingerprint_at(x, y)
