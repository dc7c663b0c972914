"""Minimum-entropy rectangular decomposition of a fingerprint grid.

A sheet is recursively cut by the straight vertical or horizontal line
whose two halves have the lowest summed normalized entropy, stopping at
single-fingerprint rectangles.  The resulting leaves are then coalesced:
any two rectangles carrying the same fingerprint whose union is again a
rectangle are merged, to a fixed point, in a pinned deterministic order.

An optional preprocessing pass first cuts the grid along uniform
full-height columns or full-width rows (delimiter lines such as blank
separators or border strips), so that large sheets decompose piecewise.
It chooses among the cuts at delimiter-run boundaries by the same rule.

Costs.  The tree and the preprocessing share one cut search
(`_cut_search`) over the code histograms of the strips that slice a
rectangle along each axis: single lines for a tree node, the strips
between consecutive candidate cuts for a delimiter piece.  One sweep per
axis keeps running histograms of the two halves and an exact integer
running sum of c*log2(c), which scores every cut approximately; only the
cuts within a proven rounding margin of the best are re-scored exactly.
A re-score sums the strip histograms of the cut's smaller half and reads
the counts in code order, as `counts_in` returns them; so cuts and
entropy floats are those of the plain search that scores each cut's
split entropy (the summed normalized entropy of both halves' counts)
with two `counts_in` calls, and neither the tree nor the preprocessing
calls `counts_in`.  A tree node finds its cut in O(area): it counts its
total and its lines across its parent's cut, and takes its lines along
that cut from its parent.  A node one cell wide or tall, most of a
tree's nodes, builds no line histograms: its strips are single cells,
so it sweeps its codes in order with one running count per code
(`_line_cut`) and re-scores from the codes of a cut's smaller half.
Lines, halves and one-wide nodes are counted by `_histogram`: one
`count` per code when the node holds few codes, else a `Counter`.  A
node re-scores its cuts exactly only when more than one is near the
minimum; the chosen cut's entropy decides nothing, so no node keeps it.
Nodes move through the tree's loop as coordinates, and each gets its
`Rect` once, when the tree is built.  A node whose every cell has a
fingerprint of its own (all-distinct) is decided in closed form: each
half of it holds counts of 1 only, so its sweep scores, exact scores
and cut depend on its width and height alone, and are memoised per
shape for the sheet.  Its subtree is all-distinct too and builds no
histogram, so a 1 x n column of distinct fingerprints, which the tree
peels one cell per node, costs one set of its codes and no exact score.
The sheet's pieces and trees share one table of c*log2(c) terms.

The grid sits at its sheet coordinates (`FingerprintGrid.left`, `top`)
and every rectangle here is read through it, so cuts, pieces and
regions come out in sheet coordinates.

A delimiter piece counts the cells of its strips outside the delimiter
runs once (a strip inside one run holds its run's code alone).  It is
not swept when it has one candidate cut, and not re-scored when one cut
is near the minimum.  Coalescing indexes regions by their full edges, so
a region's merge partners are a few dictionary lookups and R regions
coalesce in O(R log R).
"""

from __future__ import annotations

import bisect
import heapq
import math
import operator
from collections import Counter
from functools import reduce
from itertools import chain, repeat
from dataclasses import dataclass
from typing import Callable, Collection, Hashable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .grid import FingerprintGrid
from .model import GridlintError, Rect


class NegativeCountError(GridlintError):
    """A histogram count was negative."""


class InvalidSplitError(GridlintError):
    """A requested cut line does not fall strictly inside the rectangle."""


class Region(NamedTuple):
    """A rectangle of cells that all carry the same fingerprint."""

    rect: Rect
    fingerprint: Hashable


def normalized_entropy(counts: Iterable[int], n: int) -> float:
    """Shannon entropy of a count histogram divided by log(n).

    The log-base cancels in the ratio.  Empty histograms have no defined
    distribution and come back as +inf so that any real split beats them;
    a single bucket, or n <= 1, is perfectly ordered and scores 0.
    """
    positive = []
    for c in counts:
        if c < 0:
            raise NegativeCountError(f"negative count {c}")
        if c > 0:
            positive.append(c)
    if not positive:
        return math.inf
    if n <= 1 or len(positive) == 1:
        return 0.0
    scale = 1.0 / math.log2(n)
    total = 0.0
    for c in positive:
        p = c / n
        total -= p * math.log2(p)
    return total * scale


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


@dataclass(frozen=True)
class EntropyLeaf:
    region: Rect


@dataclass(frozen=True)
class EntropyNode:
    """A cut of `region` after column (vertical) or row `index` into the
    subtrees `low` and `high`."""

    region: Rect
    low: "EntropyTree"
    high: "EntropyTree"
    vertical: bool
    index: int


EntropyTree = Union[EntropyLeaf, EntropyNode]


# The cut sweep scores every cut from running sums of c*log2(c) over the
# two halves' fingerprint counts, each term rounded to a multiple of
# 2**-_SWEEP_BITS and kept as an integer, so the running sums themselves
# are exact however many cells move across the cut.
_SWEEP_BITS = 32
_SWEEP_SCALE = float(1 << _SWEEP_BITS)
_UNIT_ROUNDOFF = 2.0**-53


class _XLogXTable(dict):
    """Maps a count c to round(c * log2(c) * 2**_SWEEP_BITS), computing
    each entry when it is first read: a sweep reads only the counts its
    histograms reach, often far fewer than its area."""

    def __missing__(self, c: int) -> int:
        value = self[c] = round(c * math.log2(c) * _SWEEP_SCALE) if c > 1 else 0
        return value


def _cut_margin(area: int) -> float:
    """How far above the sweep's minimum an exact minimizer can score.

    For a half of n cells with k >= 2 fingerprints (otherwise both ways
    give exactly 0.0), with u = 2**-53, B = _SWEEP_BITS and
    N = area >= n >= k:

    * `normalized_entropy` sums k terms -p*log2(p), each off by at most
      1.45u*p + 4u*|p*log2(p)|, with k - 1 roundings of partial sums at
      most H, then scales by 1/log2(n) (off by 4u).  With H <= log2(n)
      and log2(n) >= 1 its result is within (k + 10)u of the real value.
    * Each table entry is within 1/2 + 3u*c*log2(c)*2**B of
      c*log2(c)*2**B, so the sweep's exact integer sum S is within
      k/2 + 3u*S_real*2**B of the real one.  Dividing by
      n*log2(n)*2**B >= k*2**B, and the conversion, log2, product,
      division and subtraction, leave the half within 2**-(B+1) + 10u.

    So a half's sweep value is within 2**-(B+1) + (N + 20)u of what
    `normalized_entropy` returns, and a cut's, after each side adds two
    halves (values <= 2, so 2u each), within d = 2**-B + (2N + 44)u of
    its split entropy.  An exact minimizer therefore sweeps
    to at most the sweep minimum + 2d; the margin is twice that, 4d.
    """
    return 4.0 * (2.0**-_SWEEP_BITS + (2 * area + 44) * _UNIT_ROUNDOFF)


def _sweep(blocks: Sequence[Mapping[int, int]], sizes: Sequence[int], total: Mapping[int, int],
           table: _XLogXTable) -> list[float]:
    """Approximate split entropy after each block but the last.

    `blocks` are the code histograms of the consecutive strips, single lines or wider, that slice the rectangle
    along one axis, `sizes` their cell counts and `total` their sum.
    Moving a block from the right half to the left updates each half's
    integer sum of c*log2(c) only for the keys in that block, so the
    sweep costs O(sum of histogram sizes); a half of n cells then scores
    1 - S / (n * log2(n)), its normalized entropy.
    """
    n = sum(sizes)
    left: dict[int, int] = {}
    s_left = 0
    s_right = sum(table[c] for c in total.values())
    k_left = 0
    k_right = len(total)
    n_left = 0
    out = []
    for hist, size in zip(blocks[:-1], sizes):
        for key, c in hist.items():
            old = left.get(key, 0)
            new = left[key] = old + c
            t = total[key]
            s_left += table[new] - table[old]
            s_right += table[t - new] - table[t - old]
            if not old:
                k_left += 1
            if new == t:
                k_right -= 1
        n_left += size
        n_right = n - n_left
        e_left = 0.0 if n_left <= 1 or k_left == 1 else 1.0 - s_left / (_SWEEP_SCALE * n_left * math.log2(n_left))
        e_right = 0.0 if n_right <= 1 or k_right == 1 else 1.0 - s_right / (_SWEEP_SCALE * n_right * math.log2(n_right))
        out.append(e_left + e_right)
    return out


def _near_minimum(area: int, sweeps: Sequence[tuple[bool, Sequence[int], Sequence[float]]]) -> list[tuple[bool, int]]:
    """The cuts whose sweep score is within `_cut_margin` of the lowest.

    `sweeps` holds one (vertical, cut indices, their sweep scores) per
    axis, at least one cut each.  Every cut that minimizes the split
    entropy on a rectangle of `area` cells is among those returned (see
    `_cut_margin`), in the order of `sweeps`, then of index.
    """
    threshold = min([min(scores) for _, _, scores in sweeps]) + _cut_margin(area)
    return [(vertical, index) for vertical, indices, scores in sweeps
            for index, approx in zip(indices, scores) if approx <= threshold]


def _first_exact_minimum(cuts: Sequence[tuple[bool, int]], score: Callable[..., float],
                         *args) -> tuple[bool, int]:
    """(vertical, index) of the first of `cuts` to attain the lowest exact
    score, `score(vertical, index, *args)`; a lone cut is not scored.

    With `cuts` from `_near_minimum` in the pinned order, vertical before
    horizontal and smaller indices first, and a `score` equal to the
    split entropy, this is the cut that scoring every cut exactly in
    that order picks: a lone cut near the minimum is the only exact
    minimizer.
    """
    if len(cuts) == 1:
        return cuts[0]
    # min keeps the first of equal scores.
    return min(cuts, key=lambda cut: score(*cut, *args))


def _split_score(order: list[int], part: Mapping[int, int], total: Mapping[int, int], n_low: int,
                 area: int) -> float:
    """Split entropy of a cut of a rectangle of `area` cells, whose code
    histogram is `total`, into a low half of `n_low` cells and a high
    one; `part` is the code histogram of the smaller half (the low one
    when 2 * n_low <= area), and `order` the codes of `total` in code
    order.  Both halves' counts are read in that order, as `counts_in`
    returns them, so the float is the split entropy's."""
    # normalized_entropy skips the zero counts, as counts_in omits them.
    own = [part.get(c, 0) for c in order]
    rest = [total[c] - m for c, m in zip(order, own)]
    low, high = (own, rest) if 2 * n_low <= area else (rest, own)
    return normalized_entropy(low, n_low) + normalized_entropy(high, area - n_low)


def _strip_score(vertical: bool, index: int, strips: Mapping[bool, tuple], order: list[int],
                 total: Mapping[int, int], area: int) -> float:
    """Exact split entropy of the cut after line `index`, from the strip
    histograms of its smaller half; `strips[vertical]` holds one axis's
    (histograms, cell counts, last lines) as `_cut_search` takes them,
    and `order` is `sorted(total)`."""
    hists, sizes, lasts = strips[vertical]
    k = bisect.bisect_left(lasts, index) + 1
    n_low = sum(sizes[:k])
    part: Counter = Counter()
    for hist in hists[:k] if 2 * n_low <= area else hists[k:]:
        part.update(hist)
    return _split_score(order, part, total, n_low, area)


def _cut_search(area: int, total: Mapping[int, int], axes: Iterable[tuple], table: _XLogXTable) -> tuple[bool, int]:
    """(vertical, index) of the best cut of a rectangle of `area` cells
    whose code histogram is `total`.

    Each of `axes` slices the rectangle into consecutive strips:
    (vertical, their code histograms, cell counts, last lines).  A cut
    lies after each strip but the last.  Every cut is swept; only those
    within `_cut_margin` of the sweep's lowest are re-scored exactly
    (`_strip_score`), and none when just one is.
    """
    sweeps = []
    strips = {}
    for vertical, hists, sizes, lasts in axes:
        sweeps.append((vertical, lasts[:-1], _sweep(hists, sizes, total, table)))
        strips[vertical] = hists, sizes, lasts
    return _first_exact_minimum(_near_minimum(area, sweeps), _strip_score, strips, sorted(total), total, area)


class _DistinctCuts:
    """Cuts of all-distinct nodes, memoised per (width, height) as
    (vertical, offset from the node's first line).

    In a node whose every cell has a code of its own, a half of m cells
    holds m counts of 1.  It sweeps to 1.0 for m >= 2, since every table
    entry it reads is table[1] == 0, and to 0.0 for one cell; its exact
    score is `normalized_entropy([1] * m, m)`, 0.0 for one cell.  So the
    sweep, the cuts near its minimum and the exact re-scores of such a
    node depend on its shape alone, and so does its cut.  A line's cut
    is the first end cut, found with no exact score; a block of at least
    2 x 2 re-scores its cuts from the memoised half scores.  One instance
    serves every tree of a sheet.
    """

    def __init__(self) -> None:
        self._shapes: dict[tuple[int, int], tuple[bool, int]] = {}
        self._halves: dict[int, float] = {}

    def _half(self, m: int) -> float:
        """Exact score of a half of m distinct cells:
        `normalized_entropy([1] * m, m)`, whose loop subtracts the same
        term p * log2(p), p = 1 / m, m times.  Subtracting it m times in
        the same order gives the same float at a fraction of the cost."""
        e = self._halves.get(m)
        if e is None:
            if m == 1:
                e = 0.0
            else:
                p = 1 / m
                e = reduce(operator.sub, repeat(p * math.log2(p), m), 0.0) * (1.0 / math.log2(m))
            self._halves[m] = e
        return e

    @staticmethod
    def _sizes(vertical: bool, k: int, width: int, height: int) -> tuple[int, int]:
        """Cell counts of the halves of the cut after the k-th column (row)."""
        return (k * height, (width - k) * height) if vertical else (k * width, (height - k) * width)

    def _exact(self, vertical: bool, k: int, width: int, height: int) -> float:
        low, high = self._sizes(vertical, k, width, height)
        return self._half(low) + self._half(high)

    def _shape_cut(self, width: int, height: int) -> tuple[bool, int]:
        """(vertical, offset from the first line) of the cut."""
        if min(width, height) == 1:
            # On a line of m >= 3 cells the two end cuts sweep to 1.0 and
            # every other cut to 2.0, farther than `_cut_margin` (< 1 for
            # any grid that fits in memory).  The end cuts tie exactly, so
            # the first one wins; a line of two cells has no other cut.
            return width > 1, 0
        sweeps = [(vertical, range(1, length),
                   [sum(0.0 if m == 1 else 1.0 for m in self._sizes(vertical, k, width, height))
                    for k in range(1, length)])
                  for vertical, length in ((True, width), (False, height))]
        vertical, k = _first_exact_minimum(_near_minimum(width * height, sweeps), self._exact, width, height)
        return vertical, k - 1

    def cut(self, left: int, top: int, right: int, bottom: int) -> tuple[bool, int]:
        """(vertical, index) of the cut of the all-distinct rectangle with
        these corners."""
        shape = (right - left + 1, bottom - top + 1)
        decision = self._shapes.get(shape)
        if decision is None:
            decision = self._shapes[shape] = self._shape_cut(*shape)
        vertical, offset = decision
        return vertical, (left if vertical else top) + offset


# Up to this many codes in a node, one `count` per code takes a line's,
# a half's or a one-wide node's histogram faster than a `Counter` does
# (at 8 codes the two tie on perfbench's paper-style sheets); with more,
# the `Counter` keeps the cost linear in the cells.
_FEW_CODES = 7


def _histogram(cells: Sequence[int], codes: Collection[int]) -> Mapping[int, int]:
    """The code histogram of `cells`, whose codes are among `codes`;
    zero counts omitted."""
    if len(codes) > _FEW_CODES:
        return Counter(cells)
    return {code: n for code in codes if (n := cells.count(code))}


def _line_counts(block: list[list[int]], vertical: bool, codes: Collection[int]) -> list[Mapping[int, int]]:
    """The code histogram of each column (vertical) or row of `block`,
    whose codes are `codes`."""
    return [_histogram(line, codes) for line in (zip(*block) if vertical else block)]


def _block_cut(block: list[list[int]], left: int, top: int, inherited: Optional[tuple[bool, list]],
               table: _XLogXTable) -> tuple[Optional[tuple[bool, int]], bool, Optional[list]]:
    """(cut, all_distinct, lines) of a node at least two cells wide and
    tall whose code-row slices are `block`, its top-left cell at
    (left, top).

    The cut is None for a single-fingerprint node, and for an
    all-distinct one (every cell a fingerprint of its own, all_distinct
    True), whose cut comes from its shape.  Otherwise it is the best
    (vertical, index) by `_cut_search` over the node's single lines.  The
    line histograms along one axis may come from the parent
    (`inherited`: (vertical, histograms)); only those across it are
    counted from the cells.  `lines` are the histograms along the cut's
    axis, for the children.
    """
    total = Counter(chain.from_iterable(block))
    width, height = len(block[0]), len(block)
    area = width * height
    if len(total) == 1 or len(total) == area:
        return None, len(total) == area, None
    along, lines = inherited if inherited is not None else (None, None)
    cols = lines if along is True else _line_counts(block, True, total)
    rows = lines if along is False else _line_counts(block, False, total)
    cut = _cut_search(area, total, (
        (True, cols, [height] * width, range(left, left + width)),
        (False, rows, [width] * height, range(top, top + height)),
    ), table)
    return cut, False, cols if cut[0] else rows


def _line_score(vertical: bool, index: int, codes: list[int], first: int, order: list[int],
                total: Mapping[int, int]) -> float:
    """Exact split entropy of the cut of a one-wide node after line
    `index`, from the codes of its smaller half; `order` is
    `sorted(total)`."""
    k = index - first + 1
    n = len(codes)
    half = codes[:k] if 2 * k <= n else codes[k:]
    return _split_score(order, _histogram(half, order), total, k, n)


def _line_cut(codes: list[int], first: int, vertical: bool,
              table: _XLogXTable) -> tuple[Optional[tuple[bool, int]], bool]:
    """(cut, all_distinct) of a one-wide node of at least two cells whose
    codes, in order, are `codes`, the first on line `first`; `vertical`
    when the node is one row, whose cuts fall between columns.

    The cut is None, as in `_block_cut`, for a single-fingerprint or an
    all-distinct node.  Otherwise the node is swept cell by cell with one
    running count per code: each cell is a strip of one cell, so the
    scores are `_sweep`'s over single-cell histograms, without building
    them.  The cuts near the minimum are re-scored exactly from the codes
    of their smaller half (`_line_score`), as `_cut_search` does.
    """
    n = len(codes)
    kinds = set(codes)
    if len(kinds) == 1 or len(kinds) == n:
        return None, len(kinds) == n
    total = _histogram(codes, kinds)
    left = dict.fromkeys(total, 0)
    s_left = 0
    s_right = sum(table[c] for c in total.values())
    k_left = 0
    k_right = len(total)
    scores = []
    for n_left, code in enumerate(codes[:-1], 1):
        old = left[code]
        new = left[code] = old + 1
        t = total[code]
        s_left += table[new] - table[old]
        s_right += table[t - new] - table[t - old]
        if not old:
            k_left += 1
        if new == t:
            k_right -= 1
        n_right = n - n_left
        e_left = 0.0 if n_left <= 1 or k_left == 1 else 1.0 - s_left / (_SWEEP_SCALE * n_left * math.log2(n_left))
        e_right = 0.0 if n_right <= 1 or k_right == 1 else 1.0 - s_right / (_SWEEP_SCALE * n_right * math.log2(n_right))
        scores.append(e_left + e_right)
    near = _near_minimum(n, [(vertical, range(first, first + n - 1), scores)])
    return _first_exact_minimum(near, _line_score, codes, first, sorted(total), total), False


def entropy_tree(grid: FingerprintGrid, region: Optional[Rect] = None, *, table: Optional[_XLogXTable] = None,
                 distinct: Optional[_DistinctCuts] = None) -> EntropyTree:
    """Full guillotine decomposition tree of `region` (default: whole grid).

    Each node costs O(area) for its histograms and cut sweep, with no
    `counts_in` call, so a tree costs O(sum of node areas):
    O(area x depth).  Nodes travel as (left, top, right, bottom) tuples,
    and each node of the tree gets its `Rect` once, when the tree is
    built.  A node one cell wide or tall is swept cell by cell from its
    codes (`_line_cut`), which it takes from its parent when that is
    one-wide too, and builds no line histograms.  A wider node counts
    only its total and its lines across its parent's cut (`_block_cut`);
    its lines along that cut are a slice of its parent's.  Either
    re-scores its cuts exactly only when more than one is near the
    sweep's minimum.
    Below an all-distinct node every node is all-distinct too; such
    nodes build no histogram and take their cut from a memo per
    (width, height) (`_DistinctCuts`), so a 1 x n column of distinct
    fingerprints, peeled one cell per node, costs one set of its codes.
    `table` and `distinct` may be shared by the trees of one sheet.
    Built with an explicit stack; deep, skewed cut sequences on long
    thin sheets would overflow Python's recursion limit otherwise.
    """
    if region is None:
        region = grid.full_rect()
    if table is None:
        table = _XLogXTable()
    if distinct is None:
        distinct = _DistinctCuts()
    code_rows, grid_left, grid_top = grid.code_rows, grid.left, grid.top
    # Decide every node's cut top-down; stack order is preorder.  A
    # pending node is (left, top, right, bottom, all_distinct, inherited):
    # inherited is a one-wide node's codes, or a wider node's (vertical,
    # line histograms) along its parent's cut, or None if not known.
    order: list[tuple[int, int, int, int, Optional[tuple[bool, int]]]] = []
    pending: list[tuple] = [(region.left, region.top, region.right, region.bottom, False, None)]
    while pending:
        left, top, right, bottom, all_distinct, inherited = pending.pop()
        lines = None
        if left == right and top == bottom:
            cut = None
        elif all_distinct:
            cut = distinct.cut(left, top, right, bottom)
        else:
            if left == right or top == bottom:
                if inherited is not None:
                    lines = inherited
                elif top == bottom:
                    lines = code_rows[top - grid_top][left - grid_left:right - grid_left + 1]
                else:
                    lines = list(map(operator.itemgetter(left - grid_left),
                                     code_rows[top - grid_top:bottom - grid_top + 1]))
                cut, all_distinct = _line_cut(lines, left if top == bottom else top, top == bottom, table)
            else:
                block = list(map(operator.getitem, code_rows[top - grid_top:bottom - grid_top + 1],
                                 repeat(slice(left - grid_left, right - grid_left + 1))))
                cut, all_distinct, lines = _block_cut(block, left, top, inherited, table)
            if all_distinct:
                cut, lines = distinct.cut(left, top, right, bottom), None
        order.append((left, top, right, bottom, cut))
        if cut is None:
            continue
        vertical, index = cut
        k = index - (left if vertical else top) + 1
        low_lines = high_lines = None
        if lines is not None:
            if left == right or top == bottom:
                low_lines, high_lines = lines[:k], lines[k:]
            else:
                # A child one line wide reads its codes from the grid.
                low_lines = (vertical, lines[:k]) if k > 1 else None
                high_lines = (vertical, lines[k:]) if len(lines) - k > 1 else None
        if vertical:
            pending.append((index + 1, top, right, bottom, all_distinct, high_lines))
            pending.append((left, top, index, bottom, all_distinct, low_lines))
        else:
            pending.append((left, index + 1, right, bottom, all_distinct, high_lines))
            pending.append((left, top, right, index, all_distinct, low_lines))
    # In reversed preorder a node's high subtree, then its low one, is
    # built just before it, so both sit on top of the stack.
    built: list[EntropyTree] = []
    while order:
        left, top, right, bottom, cut = order.pop()
        rect = Rect(left, top, right, bottom)
        if cut is None:
            built.append(EntropyLeaf(rect))
        else:
            low_tree = built.pop()
            built.append(EntropyNode(rect, low_tree, built.pop(), *cut))
    return built[0]


def tree_leaves(tree: EntropyTree) -> list[EntropyLeaf]:
    """Leaves in left-to-right (low-before-high) order, iteratively."""
    out: list[EntropyLeaf] = []
    stack: list[EntropyTree] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, EntropyLeaf):
            out.append(node)
        else:
            stack.append(node.high)
            stack.append(node.low)
    return out


def _region_key(region: Region) -> tuple[int, int, int, int]:
    # Live regions of a tiling never share a rectangle, and a region only
    # grows, so no two regions ever compared share this key.
    r = region.rect
    return (r.top, r.left, r.bottom, r.right)


def _union_rect(a: Rect, b: Rect) -> Rect:
    return Rect(min(a.left, b.left), min(a.top, b.top), max(a.right, b.right), max(a.bottom, b.bottom))


class _EdgeIndex:
    """Live regions of a tiling, each found by any of its four full edges.

    A full edge is a side with its whole span, keyed by span and line
    alone: in a tiling at most one region owns it.  Two disjoint
    rectangles tile a rectangle exactly when one's bottom (right) full
    edge sits just above (left of) the other's top (left) one, so
    `facing` finds all such regions in four lookups.  Coalescing merges
    the facing ones of the same fingerprint (`partners`); fix candidates
    target those of other fingerprints, so each merges with its target by
    construction.  Every region added gets a fresh serial number: a stale
    reference to a removed region is recognized by its serial, never by
    object identity.  A removed region may be added back under its old
    serial, which undoes its removal.
    """

    def __init__(self) -> None:
        self.live: dict[int, Region] = {}
        self._serial = 0
        # (column span, row) / (row span, column) -> serial
        self._tops: dict[tuple, int] = {}
        self._bottoms: dict[tuple, int] = {}
        self._lefts: dict[tuple, int] = {}
        self._rights: dict[tuple, int] = {}

    def add(self, region: Region, serial: Optional[int] = None) -> int:
        if serial is None:
            serial = self._serial = self._serial + 1
        r = region.rect
        self.live[serial] = region
        self._tops[(r.left, r.right, r.top)] = serial
        self._bottoms[(r.left, r.right, r.bottom)] = serial
        self._lefts[(r.top, r.bottom, r.left)] = serial
        self._rights[(r.top, r.bottom, r.right)] = serial
        return serial

    def remove(self, serial: int) -> Region:
        region = self.live.pop(serial)
        r = region.rect
        del self._tops[(r.left, r.right, r.top)]
        del self._bottoms[(r.left, r.right, r.bottom)]
        del self._lefts[(r.top, r.bottom, r.left)]
        del self._rights[(r.top, r.bottom, r.right)]
        return region

    def facing(self, left: int, top: int, right: int, bottom: int) -> list[int]:
        """Serials of the live regions whose full edge lies opposite one of
        the rectangle's four sides, with the same span: above, below, left,
        right.  Each one and the rectangle tile a rectangle."""
        found = (
            self._bottoms.get((left, right, top - 1)),
            self._tops.get((left, right, bottom + 1)),
            self._rights.get((top, bottom, left - 1)),
            self._lefts.get((top, bottom, right + 1)),
        )
        return [s for s in found if s is not None]

    def partners(self, serial: int) -> list[int]:
        """Serials of the live regions that can merge with this one."""
        region = self.live[serial]
        r = region.rect
        return [s for s in self.facing(r.left, r.top, r.right, r.bottom)
                if self.live[s].fingerprint == region.fingerprint]


def coalesce(regions: Sequence[Region]) -> list[Region]:
    """Merge same-fingerprint rectangle pairs whose union is a rectangle.

    `regions` must tile their area (no overlaps).  Runs to a fixed point.
    The order is pinned: of all pairs (a, b) that can merge, with
    _region_key(a) < _region_key(b), the one with the smallest
    (key(a), key(b)) merges first, exactly the first such pair of the
    list kept sorted by (top, left, bottom, right).  Pairs wait in a
    heap under that key; a pair whose region has since merged away is
    dropped when popped.  With the edge index each merge finds the new
    region's at most four partners directly, so the whole run costs
    O(R log R) for R regions.
    """
    index = _EdgeIndex()
    keys: dict[int, tuple] = {}
    heap: list[tuple] = []

    def push_pairs(serial: int, only_larger: bool) -> None:
        key = keys[serial]
        for other in index.partners(serial):
            if keys[other] > key:
                heapq.heappush(heap, (key, keys[other], serial, other))
            elif not only_larger:
                heapq.heappush(heap, (keys[other], key, other, serial))

    for region in regions:
        serial = index.add(region)
        keys[serial] = _region_key(region)
    for serial in list(index.live):
        push_pairs(serial, only_larger=True)
    while heap:
        _, _, first, second = heapq.heappop(heap)
        if first not in index.live or second not in index.live:
            continue
        a = index.remove(first)
        b = index.remove(second)
        union = Region(_union_rect(a.rect, b.rect), a.fingerprint)
        serial = index.add(union)
        keys[serial] = _region_key(union)
        push_pairs(serial, only_larger=False)
    return sorted(index.live.values(), key=_region_key)


def _axis_runs(grid: FingerprintGrid, vertical: bool) -> dict[int, int]:
    """Run ids of the delimiter lines along one axis, by column (row).

    A column (row) is a delimiter line when every cell on it carries the
    same fingerprint.  Consecutive delimiter lines with the same
    fingerprint share a run id; other lines have none.
    """
    lines = zip(*grid.code_rows) if vertical else grid.code_rows
    ids: dict[int, int] = {}
    run_id = 0
    prev_code: Optional[int] = None
    for i, line in enumerate(lines, grid.left if vertical else grid.top):
        code = line[0]
        if line.count(code) != len(line):
            prev_code = None
            continue
        if code != prev_code:
            run_id += 1
        ids[i] = run_id
        prev_code = code
    return ids


def _run_cuts(ids: dict[int, int], first: int, last: int) -> list[int]:
    """Cut after line i, first <= i < last, exactly when lines i and
    i + 1 differ in run id; two lines of no run both read None, so no
    cut falls between them."""
    runs = list(map(ids.get, range(first, last + 1)))
    return [i for i, run, following in zip(range(first, last), runs, runs[1:]) if run != following]


def _inside_run(ids: dict[int, int], first: int, last: int) -> bool:
    """Whether lines first..last all lie in one delimiter run."""
    run = ids.get(first)
    return run is not None and run == ids.get(last)


def _gaps(grid: FingerprintGrid, r: Rect, cuts: list[int], ids: dict[int, int],
          vertical: bool) -> tuple:
    """One axis of `r` for `_cut_search`: the strips between its
    consecutive `cuts`, edges included, counted off the code rows.

    Cuts sit at every run boundary, so a strip is either one whole
    delimiter run, which holds its run's code alone, or lines of no run,
    whose code-row slices are counted once.
    """
    first, last, depth = (r.left, r.right, r.height) if vertical else (r.top, r.bottom, r.width)
    lasts = cuts + [last]
    hists: list[Mapping[int, int]] = []
    sizes: list[int] = []
    for lo, hi in zip([first] + [i + 1 for i in cuts], lasts):
        size = (hi - lo + 1) * depth
        if _inside_run(ids, lo, hi):
            hists.append({grid.code_at(lo, r.top) if vertical else grid.code_at(r.left, lo): size})
        else:
            strip = Rect(lo, r.top, hi, r.bottom) if vertical else Rect(r.left, lo, r.right, hi)
            hists.append(Counter(chain.from_iterable(grid.block(strip))))
        sizes.append(size)
    return vertical, hists, sizes, lasts


def delimiter_splits(grid: FingerprintGrid, *, table: Optional[_XLogXTable] = None) -> list[Rect]:
    """Cut the grid along delimiter-run boundaries into work pieces.

    Candidate cut lines sit only at edges of uniform single-fingerprint
    full-height (full-width) runs, and are chosen recursively by the same
    rule as the decomposition itself: lowest summed half entropy, vertical
    before horizontal on ties, smallest index on ties.  A piece lying
    entirely inside one run needs no further cutting and is kept whole.

    A piece with more than one candidate cut searches them as the tree
    does (`_cut_search`), over the strips between them (`_gaps`) instead
    of single lines, and re-scores exactly only the cuts near the sweep's
    minimum, none when just one is.  So a piece counts each cell of its
    strips outside the runs once, plus the strips of one half per exact
    re-score, and makes no `counts_in` call.  `table` may be shared with
    the sheet's trees.
    """
    full = grid.full_rect()
    col_ids = _axis_runs(grid, True)
    row_ids = _axis_runs(grid, False)
    v_cuts = _run_cuts(col_ids, full.left, full.right)
    h_cuts = _run_cuts(row_ids, full.top, full.bottom)
    if table is None:
        table = _XLogXTable()
    pieces: list[Rect] = []
    stack = [full]
    while stack:
        r = stack.pop()
        if _inside_run(col_ids, r.left, r.right) or _inside_run(row_ids, r.top, r.bottom):
            pieces.append(r)
            continue
        cand_v = [i for i in v_cuts if r.left <= i < r.right]
        cand_h = [i for i in h_cuts if r.top <= i < r.bottom]
        cuts = [(True, i) for i in cand_v] + [(False, i) for i in cand_h]
        if not cuts:
            pieces.append(r)
            continue
        if len(cuts) > 1:
            axes = [_gaps(grid, r, cand, ids, vertical)
                    for vertical, cand, ids in ((True, cand_v, col_ids), (False, cand_h, row_ids)) if cand]
            total: Counter = Counter()
            for hist in axes[0][1]:
                total.update(hist)
            cuts = [_cut_search(r.area, total, axes, table)]
        vertical, index = cuts[0]
        low, high = split_halves(r, index, vertical)
        stack.append(high)
        stack.append(low)
    pieces.sort(key=lambda p: (p.top, p.left))
    return pieces


def _piece_regions(grid: FingerprintGrid, piece: Rect, table: _XLogXTable,
                   distinct: _DistinctCuts) -> list[Region]:
    # A leaf holds one fingerprint, so any of its cells names it.
    return [
        Region(leaf.region, grid.fingerprint_at(leaf.region.left, leaf.region.top))
        for leaf in tree_leaves(entropy_tree(grid, piece, table=table, distinct=distinct))
    ]


def decompose_grid(grid: FingerprintGrid, preprocess: bool = True) -> list[Region]:
    """Single-fingerprint rectangles covering the grid, coalesced.

    With preprocess=True the grid is first split along delimiter runs and
    each piece decomposed independently; the piece list and the final
    coalesce order are both pinned.  The sheet's pieces and trees share
    one table of c*log2(c) terms and one memo of all-distinct cuts.
    """
    table, distinct = _XLogXTable(), _DistinctCuts()
    pieces = delimiter_splits(grid, table=table) if preprocess else [grid.full_rect()]
    leaves = [region for piece in pieces for region in _piece_regions(grid, piece, table, distinct)]
    return coalesce(leaves)
