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
