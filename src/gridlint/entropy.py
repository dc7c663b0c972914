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
between consecutive candidate cuts for a delimiter piece.  Each axis is
swept from both ends (`_half_scores`), keeping a running histogram of
the half and an exact integer running sum of c*log2(c), which scores
every half, and so every cut, approximately; only the cuts within a
proven rounding margin of the best are re-scored exactly, and none when
just one is.  A re-score sums the strip histograms of the cut's smaller
half and reads the counts in code order, as `counts_in` returns them;
so cuts and entropy floats are those of the plain search that scores
each cut's split entropy (the summed normalized entropy of both halves'
counts) with two `counts_in` calls, and neither the tree nor the
preprocessing calls `counts_in`.  The chosen cut's entropy decides
nothing, so no node keeps it.

Every cut hands its two children the counts they share with it
(`_hand_down`, which proves them exact), so only a tree's root, or a
delimiter pass's first search, counts all its cells, and a search costs
O(lines x codes) besides.  Every histogram is a plain dict filled by
`collections._count_elements`, zero counts dropped.  The sheet's pieces
and trees share one table of c*log2(c) terms, which also memoises
all-distinct half scores.

All-distinct nodes.  In a node whose every cell has a fingerprint of its
own, a half of m cells holds m counts of 1, so its scores depend on m
alone and the node's cut on its width and height (`_distinct_cut`).
Every node below it is all-distinct too, so its subtree builds no
histogram: a 1 x n column of distinct fingerprints, which the tree peels
one cell per node, costs at most one count of its codes and no exact
score.

The grid sits at its sheet coordinates (`FingerprintGrid.left`, `top`)
and every rectangle here is read through it, so cuts, pieces and
regions come out in sheet coordinates.

A delimiter piece whose candidate cuts lie on one axis is split at all
of them without a search (`delimiter_splits`).  Coalescing indexes
regions by their full edges, so a region's merge partners are a few
dictionary lookups and R regions coalesce in O(R log R).
"""

from __future__ import annotations

import bisect
import heapq
import math
import operator
from collections import _count_elements
from functools import reduce
from itertools import chain, repeat
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .grid import FingerprintGrid
from .model import GridlintError, Rect


class NegativeCountError(GridlintError):
    """A histogram count was negative."""


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


class EntropyNode(NamedTuple):
    """A cut of `rect` after column (vertical) or row `index` into the
    subtrees `low` and `high`.  A leaf is the `Region` of its rectangle;
    `index` shadows `tuple.index`, which no caller uses on a node."""

    rect: Rect
    low: "EntropyTree"
    high: "EntropyTree"
    vertical: bool
    index: int


EntropyTree = Union[Region, EntropyNode]


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
    histograms reach, often far fewer than its area.  `halves` memoises
    the exact scores of all-distinct halves by cell count
    (`_distinct_half`)."""

    def __init__(self) -> None:
        super().__init__()
        self.halves: dict[int, float] = {}

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


def _half_scores(blocks: Iterable[Mapping[int, int]], sizes: Iterable[int], table: _XLogXTable) -> list[float]:
    """Sweep score of each leading run of `blocks`: the first one, the
    first two, and so on to the last.

    `blocks` are code histograms of consecutive strips of a rectangle,
    single lines or wider, without zero counts, and `sizes` their cell
    counts.  Adding a block updates the half's integer sum S of
    c*log2(c) only for the keys in that block, so the sweep costs
    O(sum of histogram sizes); a half of n cells holding k codes then
    scores 1 - S / (n * log2(n)), its normalized entropy, or 0.0 when
    k == 1, as `normalized_entropy` gives (n == 1 implies k == 1).  S, n
    and k depend only on the half's histogram, not on the order its
    blocks came in, so a cut's low half is swept from the first block and
    its high half from the last (`_cut_search`), and any node that holds
    the same half scores it to the same float.
    """
    counts: dict[int, int] = {}
    get = counts.get
    s = n = 0
    out = []
    for hist, size in zip(blocks, sizes):
        for key, c in hist.items():
            old = get(key, 0)
            new = counts[key] = old + c
            s += table[new] - table[old]
        n += size
        out.append(0.0 if len(counts) == 1 else 1.0 - s / (_SWEEP_SCALE * n * math.log2(n)))
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
    return _split_score(order, _summed(hists[:k] if 2 * n_low <= area else hists[k:]), total, n_low, area)


def _cut_search(area: int, total: Mapping[int, int], axes: Iterable[tuple], table: _XLogXTable,
                known: Optional[tuple[bool, Optional[list], Optional[list]]] = None
                ) -> tuple[tuple[bool, int], tuple[list[float], list[float]]]:
    """((vertical, index), (low, high)): the best cut of a rectangle of
    `area` cells whose code histogram is `total`, and the half scores
    of every cut on its axis.

    Each of `axes` slices the rectangle into consecutive strips:
    (vertical, their code histograms, cell counts, last lines).  A cut
    lies after each strip but the last; `low[i]` scores the half before
    cut i and `high[i]` the half after it (`_half_scores`), and the cut
    sweeps to low[i] + high[i].  `known` may hold one axis's low or high
    half scores, (vertical, low or None, high or None), taken from a
    parent that shares those halves; only the other side is swept.
    Every cut is swept; only those within `_cut_margin` of the sweep's
    lowest are re-scored exactly (`_strip_score`), and none when just
    one is; the codes are sorted only for a re-score.
    """
    sweeps, strips, halves = [], {}, {}
    for vertical, hists, sizes, lasts in axes:
        _, low, high = known if known is not None and known[0] == vertical else (vertical, None, None)
        if low is None:
            low = _half_scores(hists[:-1], sizes, table)
        if high is None:
            high = _half_scores(hists[:0:-1], sizes[:0:-1], table)[::-1]
        sweeps.append((vertical, lasts[:-1], list(map(operator.add, low, high))))
        strips[vertical] = hists, sizes, lasts
        halves[vertical] = low, high
    near = _near_minimum(area, sweeps)
    cut = _first_exact_minimum(near, _strip_score, strips, sorted(total) if len(near) > 1 else None, total, area)
    return cut, halves[cut[0]]


def _distinct_half(m: int, halves: dict[int, float]) -> float:
    """Exact score of a half of m >= 2 distinct cells, memoised in
    `halves`: `normalized_entropy([1] * m, m)`, whose loop subtracts the
    same term p * log2(p), p = 1 / m, m times.  Subtracting it m times in
    the same order gives the same float at a fraction of the cost."""
    e = halves.get(m)
    if e is None:
        p = 1 / m
        e = halves[m] = reduce(operator.sub, repeat(p * math.log2(p), m), 0.0) * (1.0 / math.log2(m))
    return e


def _distinct_cut(left: int, top: int, right: int, bottom: int, table: _XLogXTable) -> tuple[bool, int]:
    """(vertical, index) of the cut of an all-distinct rectangle of at
    least two cells, each cell a fingerprint of its own.

    A half of m cells holds m counts of 1, so it sweeps to 1.0 for m >= 2
    (every table entry it reads is table[1] == 0) and to 0.0 for one cell.
    On a line of m >= 3 cells the two end cuts sweep to 1.0 and every other
    cut to 2.0, farther than `_cut_margin` (< 1 for any grid that fits in
    memory); the end cuts tie exactly, so the first one wins, and a line of
    two cells has no other cut.  Every cut of a block at least 2 x 2 sweeps
    to 2.0, so all are near the minimum and all are re-scored, from the
    half scores memoised on the sheet's `table`.
    """
    width, height = right - left + 1, bottom - top + 1
    if width == 1 or height == 1:
        return (True, left) if width > 1 else (False, top)
    area, halves = width * height, table.halves

    def score(vertical: bool, index: int) -> float:
        low = (index - left + 1) * height if vertical else (index - top + 1) * width
        return _distinct_half(low, halves) + _distinct_half(area - low, halves)

    return _first_exact_minimum([(True, i) for i in range(left, right)] + [(False, i) for i in range(top, bottom)],
                                score)


def _counted(cells: Iterable[int]) -> dict[int, int]:
    """The code histogram of `cells`: each code they hold and its count."""
    counts: dict[int, int] = {}
    _count_elements(counts, cells)
    return counts


def _summed(hists: Iterable[Mapping[int, int]]) -> dict[int, int]:
    """The histogram of the cells of all of `hists`."""
    out: dict[int, int] = {}
    get = out.get
    for hist in hists:
        for key, c in hist.items():
            out[key] = get(key, 0) + c
    return out


def _minus(whole: Mapping[int, int], part: Mapping[int, int]) -> dict[int, int]:
    """The histogram of the cells of `whole` outside `part`, which counts
    some of them; zero counts dropped."""
    out = dict(whole)
    for key, c in part.items():
        rest = out[key] - c
        if rest:
            out[key] = rest
        else:
            del out[key]
    return out


def _line_codes(grid: FingerprintGrid, left: int, top: int, right: int, bottom: int) -> list[int]:
    """The codes of a rectangle one cell wide or tall, in order."""
    if top == bottom:
        return grid.code_rows[top - grid.top][left - grid.left:right - grid.left + 1]
    return list(map(operator.itemgetter(left - grid.left), grid.code_rows[top - grid.top:bottom - grid.top + 1]))


def _hand_down(r: tuple, total: Mapping[int, int], axes: list[tuple], cut: tuple[bool, int], halves: tuple,
               count: Callable[[tuple, tuple], tuple], settle: bool) -> tuple[tuple, list[tuple]]:
    """(rects, counts): the low and the high child that `cut` leaves of a
    searched rectangle r = (left, top, right, bottom), and for each its
    (total, axes, known) as its own `_cut_search` takes them.  A child of
    one strip along the cut gets no axes nor known (None), and with
    `settle` (a tree's children) neither does one whose total holds one
    code or one per cell.  `total`, `axes` and `halves` are r's, as
    `_cut_search` takes and returns them, and `count(rect, axis)` counts
    the smaller child's strips along one of r's axes, as (histograms, cell
    counts).

    Along the cut a child's strips are a run of r's.  Across it, the
    smaller child by area (the low one on a tie) counts its strips, and
    the larger one takes r's less the smaller's; so do their totals, the
    smaller one's summed from its strips along the cut.  Each cell of r
    lies in exactly one child, so every count of r is the sum of its
    children's, and the difference is the larger child's count exactly;
    with zero counts dropped (`_minus`) it holds the codes a recount finds,
    in an order nothing reads (sweeps sum exact integers, exact re-scores
    read counts in code order).  So a cell is counted where the cutting
    starts (a tree's root, a delimiter pass's first search), then only in
    a smaller child, at most half its parent's area: at most
    1 + log2(area) times.  The low child keeps r's low half scores on the
    cut's axis, the high child its high ones: those halves hold the same
    cells in child and r, so they score to the same float.
    """
    vertical, index = cut
    (_, hists, sizes, lasts), across = axes if vertical else axes[::-1]
    left, top, right, bottom = r
    k = lasts.index(index) + 1
    if vertical:
        rects = (left, top, index, bottom), (index + 1, top, right, bottom)
        low_area = (index - left + 1) * (bottom - top + 1)
    else:
        rects = (left, top, right, index), (left, index + 1, right, bottom)
        low_area = (index - top + 1) * (right - left + 1)
    high_area = (right - left + 1) * (bottom - top + 1) - low_area
    small = low_area > high_area
    part = _summed(hists[k:] if small else hists[:k])
    totals = (_minus(total, part), part) if small else (part, _minus(total, part))
    crossing = None  # each child's strips across the cut, once a child needs them
    children = []
    for side, a, b, area in ((0, 0, k, low_area), (1, k, len(lasts), high_area)):
        if b - a == 1 or settle and not 1 < len(totals[side]) < area:
            children.append((totals[side], None, None))
            continue
        if crossing is None:
            counted = count(rects[small], across)
            rest = list(map(_minus, across[1], counted[0])), list(map(operator.sub, across[2], counted[1]))
            crossing = (rest, counted) if small else (counted, rest)
        along = vertical, hists[a:b], sizes[a:b], lasts[a:b]
        other = not vertical, *crossing[side], across[3]
        known = (vertical, halves[0][:k - 1], None) if side == 0 else (vertical, None, halves[1][k:])
        children.append((totals[side], [along, other] if vertical else [other, along], known))
    return rects, children


def _block_cut(grid: FingerprintGrid, left: int, top: int, right: int, bottom: int, counts: Optional[tuple],
               table: _XLogXTable, count: Callable) -> tuple[Optional[tuple[bool, int]], bool, Sequence]:
    """(cut, all_distinct, children) of a node at least two cells wide and
    tall, whose parent handed it `counts`, (total, axes, known); a root
    gets None and counts its cells.  The cut is None for a
    single-fingerprint node, and for an all-distinct one (every cell a
    fingerprint of its own, all_distinct True), whose cut comes from its
    shape; the total settles both before any line is counted.  Otherwise
    `_cut_search` picks it over the node's single lines, and `children`
    are its children's counts from `_hand_down`, `count` reading the
    smaller one's lines, or (total, codes, None) for a one-wide child
    that needs a cut (`_line_cut`).
    """
    width, height = right - left + 1, bottom - top + 1
    area = width * height
    if counts is None:
        cells = list(grid.block(Rect(left, top, right, bottom)))
        counts = _counted(chain.from_iterable(cells)), None, None
    total, axes, known = counts
    if len(total) == 1 or len(total) == area:
        return None, len(total) == area, (None, None)
    if axes is None:  # a root: a parent hands every block that needs a cut its axes
        axes = [(True, list(map(_counted, zip(*cells))), [height] * width, range(left, right + 1)),
                (False, list(map(_counted, cells)), [width] * height, range(top, bottom + 1))]
    cut, halves = _cut_search(area, total, axes, table, known)
    rects, children = _hand_down((left, top, right, bottom), total, axes, cut, halves, count, True)
    for side, (child_total, child_axes, _) in enumerate(children):
        l, t, r, b = rects[side]
        if child_axes is None and 1 < len(child_total) < (r - l + 1) * (b - t + 1):
            children[side] = child_total, _line_codes(grid, l, t, r, b), None
    return cut, False, children


def _line_score(vertical: bool, index: int, codes: list[int], first: int, order: list[int],
                total: Mapping[int, int]) -> float:
    """Exact split entropy of the cut of a one-wide node after line
    `index`, from the codes of its smaller half; `order` is
    `sorted(total)`."""
    k = index - first + 1
    n = len(codes)
    return _split_score(order, _counted(codes[:k] if 2 * k <= n else codes[k:]), total, k, n)


def _line_scores(codes: Iterable[int], table: _XLogXTable) -> list[float]:
    """`_half_scores` over single cells: the sweep score of each leading
    run of `codes`, without building a histogram per cell."""
    counts: dict[int, int] = {}
    get = counts.get
    s = 0
    out = []
    for n, code in enumerate(codes, 1):
        old = get(code, 0)
        counts[code] = old + 1
        s += table[old + 1] - table[old]
        out.append(0.0 if len(counts) == 1 else 1.0 - s / (_SWEEP_SCALE * n * math.log2(n)))
    return out


def _line_cut(first: int, vertical: bool, counts: tuple,
              table: _XLogXTable) -> tuple[Optional[tuple[bool, int]], bool, tuple]:
    """(cut, all_distinct, children) of a one-wide node of at least two
    cells, the first on line `first`; `vertical` when the node is one
    row, whose cuts fall between columns.  `counts` is (total, codes,
    known): its histogram, its codes (None when the total settles it) and
    the half scores it shares with its parent, if any, in `_cut_search`'s
    format.  The cut is None as in `_block_cut`.  Otherwise the node is
    swept cell by cell (`_line_scores`) from each end whose half scores
    it lacks, and the cuts near the minimum are re-scored exactly from
    their smaller half's codes (`_line_score`).  Its children take slices
    of its codes, and totals and half scores as `_hand_down` hands them
    down, the smaller total counted from its codes; so the larger child
    of a peel costs one subtraction and a sweep from one end.
    """
    total, codes, known = counts
    n = sum(total.values())
    if len(total) == 1 or len(total) == n:
        return None, len(total) == n, (None, None)
    low, high = known[1:] if known else (None, None)
    if low is None:
        low = _line_scores(codes[:-1], table)
    if high is None:
        high = _line_scores(codes[:0:-1], table)[::-1]
    near = _near_minimum(n, [(vertical, range(first, first + n - 1), list(map(operator.add, low, high)))])
    # A lone cut is not scored, so it needs no code order.
    cut = _first_exact_minimum(near, _line_score, codes, first, sorted(total) if len(near) > 1 else None, total)
    k = cut[1] - first + 1
    small = 2 * k > n
    part = _counted(codes[k:] if small else codes[:k])
    totals = (_minus(total, part), part) if small else (part, _minus(total, part))
    return cut, False, ((totals[0], codes[:k], (vertical, low[:k - 1], None)),
                        (totals[1], codes[k:], (vertical, None, high[k:])))


def entropy_tree(grid: FingerprintGrid, region: Optional[Rect] = None, *,
                 table: Optional[_XLogXTable] = None) -> EntropyTree:
    """Full guillotine decomposition tree of `region` (default: whole grid).

    Every cut hands its children the counts they share with it
    (`_hand_down`), so only the root counts all its cells: a one-wide
    node, most of a tree's nodes, gets its codes and total (`_line_cut`),
    a wider node its total and its lines on both axes, and costs
    O((width + height) x codes) plus its smaller child's area.  A line
    peeled one cell per node costs O(length^2): each node sweeps it from
    one end.  A one-wide root holding one code settles without a
    histogram.  Nodes travel as (left, top, right, bottom) tuples and get
    their `Rect` once, when the tree is built: an `EntropyNode`, or a
    leaf's `Region` with the fingerprint of its top-left code.  `table`
    may be shared by the trees of one sheet.  Built with an explicit
    stack; deep, skewed cut sequences on long thin sheets would overflow
    Python's recursion limit otherwise.
    """
    if region is None:
        region = grid.full_rect()
    if table is None:
        table = _XLogXTable()

    def count(rect: tuple, axis: tuple) -> tuple[list[dict[int, int]], list[int]]:
        """The lines of `rect` along `axis` as `_hand_down` counts them."""
        cells = list(grid.block(Rect(*rect)))
        if axis[0]:
            return list(map(_counted, zip(*cells))), [len(cells)] * len(cells[0])
        return list(map(_counted, cells)), [len(cells[0])] * len(cells)

    # Decide every node's cut top-down; stack order is preorder.  A
    # pending node is (left, top, right, bottom, all_distinct, counts):
    # counts are (total, axes or codes, known) as its parent handed them
    # down, or None at the root.
    order: list[tuple[int, int, int, int, Optional[tuple[bool, int]]]] = []
    pending: list[tuple] = [(*region, False, None)]
    while pending:
        left, top, right, bottom, all_distinct, counts = pending.pop()
        cut, children = None, (None, None)
        if left < right or top < bottom:
            if not all_distinct and (left == right or top == bottom):
                if counts is None:
                    codes = _line_codes(grid, left, top, right, bottom)
                    one = codes.count(codes[0]) == len(codes)
                    counts = {codes[0]: len(codes)} if one else _counted(codes), codes, None
                cut, all_distinct, children = _line_cut(left if top == bottom else top, top == bottom, counts, table)
            elif not all_distinct:
                cut, all_distinct, children = _block_cut(grid, left, top, right, bottom, counts, table, count)
            if all_distinct:
                cut = _distinct_cut(left, top, right, bottom, table)
        order.append((left, top, right, bottom, cut))
        if cut is None:
            continue
        vertical, index = cut
        if vertical:
            pending.append((index + 1, top, right, bottom, all_distinct, children[1]))
            pending.append((left, top, index, bottom, all_distinct, children[0]))
        else:
            pending.append((left, index + 1, right, bottom, all_distinct, children[1]))
            pending.append((left, top, right, index, all_distinct, children[0]))
    # In reversed preorder a node's high subtree, then its low one, is
    # built just before it, so both sit on top of the stack.  A leaf holds
    # one fingerprint, so its top-left cell names it.
    code_rows, grid_left, grid_top = grid.code_rows, grid.left, grid.top
    palette = grid.palette
    built: list[EntropyTree] = []
    while order:
        left, top, right, bottom, cut = order.pop()
        rect = Rect(left, top, right, bottom)
        if cut is None:
            built.append(Region(rect, palette[code_rows[top - grid_top][left - grid_left]]))
        else:
            low_tree = built.pop()
            built.append(EntropyNode(rect, low_tree, built.pop(), *cut))
    return built[0]


def tree_leaves(tree: EntropyTree) -> list[Region]:
    """Leaf regions in left-to-right (low-before-high) order, iteratively."""
    out: list[Region] = []
    stack: list[EntropyTree] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Region):
            out.append(node)
        else:
            stack.append(node.high)
            stack.append(node.low)
    return out


def _region_key(region: Region) -> tuple[int, int, int, int]:
    """A region's corners in reading order, (top, left, bottom, right):
    its name in an `_EdgeIndex` and the key of every pinned order."""
    r = region.rect
    return (r.top, r.left, r.bottom, r.right)


def _union_rect(a: Rect, b: Rect) -> Rect:
    return Rect(min(a.left, b.left), min(a.top, b.top), max(a.right, b.right), max(a.bottom, b.bottom))


class _EdgeIndex:
    """Live regions of a tiling by `_region_key`, each found by any of its
    four full edges.

    A full edge is a side with its whole span, keyed by span and line
    alone: in a tiling at most one region owns it.  Two disjoint
    rectangles tile a rectangle exactly when one's bottom (right) full
    edge sits just above (left of) the other's top (left) one, so
    `facing` finds all such regions in four lookups.  Coalescing merges
    the facing ones of the same fingerprint (`partners`); fix candidates
    target those of other fingerprints, so each merges with its target by
    construction.  No two live regions of a tiling share a key, and
    regions only grow, so a key that has merged away never names a live
    region again: a stale key is simply one missing from `live`.
    """

    def __init__(self) -> None:
        self.live: dict[tuple, Region] = {}
        # (column span, row) / (row span, column) -> key
        self._tops: dict[tuple, tuple] = {}
        self._bottoms: dict[tuple, tuple] = {}
        self._lefts: dict[tuple, tuple] = {}
        self._rights: dict[tuple, tuple] = {}

    def add(self, region: Region) -> tuple:
        key = _region_key(region)
        self.live[key] = region
        r = region.rect
        self._tops[(r.left, r.right, r.top)] = key
        self._bottoms[(r.left, r.right, r.bottom)] = key
        self._lefts[(r.top, r.bottom, r.left)] = key
        self._rights[(r.top, r.bottom, r.right)] = key
        return key

    def remove(self, key: tuple) -> Region:
        region = self.live.pop(key)
        r = region.rect
        del self._tops[(r.left, r.right, r.top)]
        del self._bottoms[(r.left, r.right, r.bottom)]
        del self._lefts[(r.top, r.bottom, r.left)]
        del self._rights[(r.top, r.bottom, r.right)]
        return region

    def facing(self, left: int, top: int, right: int, bottom: int) -> list[tuple]:
        """Keys of the live regions whose full edge lies opposite one of
        the rectangle's four sides, with the same span: above, below, left,
        right.  Each one and the rectangle tile a rectangle."""
        found = (
            self._bottoms.get((left, right, top - 1)),
            self._tops.get((left, right, bottom + 1)),
            self._rights.get((top, bottom, left - 1)),
            self._lefts.get((top, bottom, right + 1)),
        )
        return [key for key in found if key is not None]

    def partners(self, rect: Rect, fingerprint: Hashable) -> list[tuple]:
        """Keys of the live regions that can merge with a region of this
        rectangle and fingerprint, whether or not it is live itself."""
        return [key for key in self.facing(*rect) if self.live[key].fingerprint == fingerprint]


def coalesce(regions: Sequence[Region]) -> list[Region]:
    """Merge same-fingerprint rectangle pairs whose union is a rectangle.

    `regions` must tile their area (no overlaps).  Runs to a fixed point.
    The order is pinned: of all pairs (a, b) that can merge, with
    _region_key(a) < _region_key(b), the one with the smallest
    (key(a), key(b)) merges first, exactly the first such pair of the
    list kept sorted by (top, left, bottom, right).  Pairs of keys wait
    in a heap; a pair whose region has since merged away names a key no
    longer live (see `_EdgeIndex`) and is dropped when popped.  With the
    edge index each merge finds the new region's at most four partners
    directly, so the whole run costs O(R log R) for R regions.
    """
    index = _EdgeIndex()
    for region in regions:
        index.add(region)
    heap = [(key, other) for key, region in index.live.items()
            for other in index.partners(region.rect, region.fingerprint) if other > key]
    heapq.heapify(heap)
    while heap:
        first, second = heapq.heappop(heap)
        if first not in index.live or second not in index.live:
            continue
        a = index.remove(first)
        b = index.remove(second)
        union = Region(_union_rect(a.rect, b.rect), a.fingerprint)
        key = index.add(union)
        for other in index.partners(union.rect, union.fingerprint):
            heapq.heappush(heap, (key, other) if key < other else (other, key))
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


def _strips(r: Rect, vertical: bool, cuts: list[int]) -> list[Rect]:
    """The strips of `r` between its consecutive cuts after columns
    (vertical) or rows `cuts`, edges included."""
    first, last = (r.left, r.right) if vertical else (r.top, r.bottom)
    spans = zip([first] + [i + 1 for i in cuts], cuts + [last])
    return [Rect(lo, r.top, hi, r.bottom) if vertical else Rect(r.left, lo, r.right, hi) for lo, hi in spans]


def _gaps(grid: FingerprintGrid, r: Rect, cuts: list[int], col_ids: dict[int, int], row_ids: dict[int, int],
          vertical: bool) -> tuple:
    """One axis of `r` for `_cut_search`: the strips between its
    consecutive `cuts`, edges included, counted off the code rows.

    Cuts sit at every run boundary, so a strip is either one whole
    delimiter run, which holds its run's code alone, or lines of no run,
    whose code-row slices are counted once.  Every strip holds one code
    alone too when `r` lies inside one run of the other axis.
    """
    ids, other = (col_ids, row_ids) if vertical else (row_ids, col_ids)
    uniform = _inside_run(other, *((r.top, r.bottom) if vertical else (r.left, r.right)))
    strips = _strips(r, vertical, cuts)
    hists = [{grid.code_at(s.left, s.top): s.area}
             if uniform or _inside_run(ids, *((s.left, s.right) if vertical else (s.top, s.bottom)))
             else _counted(chain.from_iterable(grid.block(s))) for s in strips]
    return vertical, hists, [s.area for s in strips], cuts + [r.right if vertical else r.bottom]


def delimiter_splits(grid: FingerprintGrid, *, table: Optional[_XLogXTable] = None) -> list[Rect]:
    """Cut the grid along delimiter-run boundaries into work pieces.

    Candidate cut lines sit only at edges of uniform single-fingerprint
    full-height (full-width) runs, and are chosen recursively by the same
    rule as the decomposition itself: lowest summed half entropy, vertical
    before horizontal on ties, smallest index on ties.  A piece lying
    entirely inside one run needs no further cutting and is kept whole.

    A piece whose candidates all lie on one axis, or that has none, is
    split at all of them at once, into the strips between consecutive
    candidates, without a search.  That gives the recursion's pieces,
    whichever cut it would take first: every piece cut from it keeps its
    span on the other axis, so never gets a candidate there nor lies
    inside a run there, and a piece is cut again exactly while a candidate
    lies inside it.  The closing (top, left) sort fixes their order.

    A piece with candidates on both axes searches them as the tree does
    (`_cut_search`), over the strips between them (`_gaps`) instead of
    single lines.  Only the first piece searched counts its cells outside
    the runs; the pieces cut from it take their counts from it
    (`_hand_down`), so a search costs O(strips x codes), plus the cells
    of the smaller piece it cuts off that lie in no run.  A piece of one
    strip along the cut has no candidate on that axis, so it needs no
    strips.  No search calls `counts_in`.  `table` may be shared with the
    sheet's trees.
    """
    full = grid.full_rect()
    col_ids = _axis_runs(grid, True)
    row_ids = _axis_runs(grid, False)
    v_cuts = _run_cuts(col_ids, full.left, full.right)
    h_cuts = _run_cuts(row_ids, full.top, full.bottom)
    if table is None:
        table = _XLogXTable()

    def count(piece: tuple, axis: tuple) -> tuple[list[dict[int, int]], list[int]]:
        """The strips of `piece` along `axis` as `_hand_down` counts them."""
        return _gaps(grid, Rect(*piece), axis[3][:-1], col_ids, row_ids, axis[0])[1:3]

    pieces: list[Rect] = []
    stack: list[tuple] = [(full, None)]
    while stack:
        r, counts = stack.pop()
        if _inside_run(col_ids, r.left, r.right) or _inside_run(row_ids, r.top, r.bottom):
            pieces.append(r)
            continue
        cand_v = [i for i in v_cuts if r.left <= i < r.right]
        cand_h = [i for i in h_cuts if r.top <= i < r.bottom]
        if not (cand_v and cand_h):
            pieces += _strips(r, bool(cand_v), cand_v or cand_h)
            continue
        if counts is None:
            axes = [_gaps(grid, r, cand_v, col_ids, row_ids, True), _gaps(grid, r, cand_h, col_ids, row_ids, False)]
            counts = _summed(axes[0][1]), axes, None
        total, axes, known = counts
        cut, halves = _cut_search(r.area, total, axes, table, known)
        rects, children = _hand_down(r, total, axes, cut, halves, count, False)
        stack += [(Rect(*piece), counts) for piece, counts in zip(rects, children)]
    pieces.sort(key=lambda p: (p.top, p.left))
    return pieces


def decompose_grid(grid: FingerprintGrid, preprocess: bool = True) -> list[Region]:
    """Single-fingerprint rectangles covering the grid, coalesced.

    With preprocess=True the grid is first split along delimiter runs and
    each piece decomposed independently; the piece list and the final
    coalesce order are both pinned.  The leaf regions of every piece's
    tree go to `coalesce` as the tree built them, and all of them share
    one `_XLogXTable`.  `delimiter_splits`, `entropy_tree` and `coalesce`
    are called through this module's attributes, where a caller may wrap
    them.
    """
    table = _XLogXTable()
    pieces = delimiter_splits(grid, table=table) if preprocess else [grid.full_rect()]
    leaves = [region for piece in pieces for region in tree_leaves(entropy_tree(grid, piece, table=table))]
    return coalesce(leaves)
