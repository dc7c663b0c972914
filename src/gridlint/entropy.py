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

Costs.  A node of the tree finds its cut in O(area): one sweep per axis
keeps running fingerprint histograms of the two halves and an exact
integer running sum of c*log2(c), which scores every cut approximately;
only the cuts within a proven rounding margin of the best are re-scored
exactly (`split_entropy`), so trees and entropy floats are those of the
plain per-cut search.  Preprocessing runs the same sweep over the strips
between consecutive candidate cuts instead of single lines: a strip
inside one delimiter run needs no counting and any other costs one
`counts_in`, so a piece with c candidate cuts pays at most c + 1 counts
for its sweep, plus two per cut re-scored near the minimum (none when
only one is near it), where scoring every cut exactly pays 2c.
Coalescing indexes regions by their full edges, so a region's merge
partners are a few dictionary lookups and R regions coalesce in
O(R log R).
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from itertools import chain
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

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


def split_entropy(grid: FingerprintGrid, region: Rect, index: int, vertical: bool) -> float:
    """Summed normalized entropy of the two halves of a candidate cut."""
    first, second = split_halves(region, index, vertical)
    e1 = normalized_entropy(grid.counts_in(first).values(), first.area)
    e2 = normalized_entropy(grid.counts_in(second).values(), second.area)
    return e1 + e2


@dataclass(frozen=True)
class EntropyLeaf:
    region: Rect


@dataclass(frozen=True)
class EntropyNode:
    region: Rect
    low: "EntropyTree"
    high: "EntropyTree"
    vertical: bool
    index: int
    entropy: float


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
    what `split_entropy` returns.  An exact minimizer therefore sweeps
    to at most the sweep minimum + 2d; the margin is twice that, 4d.
    """
    return 4.0 * (2.0**-_SWEEP_BITS + (2 * area + 44) * _UNIT_ROUNDOFF)


def _sweep(blocks: Sequence[Mapping[Hashable, int]], sizes: Sequence[int], total: Mapping[Hashable, int],
           table: _XLogXTable) -> list[float]:
    """Approximate split entropy after each block but the last.

    `blocks` are the histograms (fingerprint or code -> count) of the
    consecutive strips, single lines or wider, that slice the rectangle
    along one axis, `sizes` their cell counts and `total` their sum.
    Moving a block from the right half to the left updates each half's
    integer sum of c*log2(c) only for the keys in that block, so the
    sweep costs O(sum of histogram sizes); a half of n cells then scores
    1 - S / (n * log2(n)), its normalized entropy.
    """
    n = sum(sizes)
    left: dict[Hashable, int] = {}
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


def _near_minimum(region: Rect, cuts: Sequence[tuple[bool, int]],
                  scores: Sequence[float]) -> list[tuple[bool, int]]:
    """The cuts whose sweep score is within `_cut_margin` of the lowest.

    Every cut that minimizes `split_entropy` is among them (see
    `_cut_margin`), in the order of `cuts`.
    """
    threshold = min(scores) + _cut_margin(region.area)
    return [cut for cut, approx in zip(cuts, scores) if approx <= threshold]


def _first_exact_minimum(grid: FingerprintGrid, region: Rect,
                         cuts: Sequence[tuple[bool, int]]) -> tuple[bool, int, float]:
    """(vertical, index, entropy) of the first of `cuts` to attain the
    lowest `split_entropy`.

    With `cuts` from `_near_minimum` in the pinned order, vertical before
    horizontal and smaller indices first, this is the cut that scoring
    every cut exactly in that order picks.
    """
    best: Optional[tuple[bool, int, float]] = None
    for vertical, index in cuts:
        e = split_entropy(grid, region, index, vertical)
        if best is None or e < best[2]:
            best = (vertical, index, e)
    assert best is not None
    return best


def _decide(grid: FingerprintGrid, region: Rect, table: _XLogXTable) -> Optional[tuple[bool, int, float]]:
    """None for a single-fingerprint rectangle, else its best cut.

    Sweeps both axes once, line by line, for approximate cut scores,
    then re-scores exactly only the cuts near the minimum.
    """
    block = [row[region.left - 1:region.right] for row in grid.code_rows[region.top - 1:region.bottom]]
    total = Counter(chain.from_iterable(block))
    if len(total) == 1:
        return None
    v_scores = _sweep([Counter(col) for col in zip(*block)], [region.height] * region.width, total, table)
    h_scores = _sweep([Counter(row) for row in block], [region.width] * region.height, total, table)
    cuts = [(True, i) for i in range(region.left, region.right)]
    cuts += [(False, i) for i in range(region.top, region.bottom)]
    return _first_exact_minimum(grid, region, _near_minimum(region, cuts, v_scores + h_scores))


def best_split(grid: FingerprintGrid, region: Rect) -> tuple[bool, int, float]:
    """(vertical, index, entropy) of the winning cut for a mixed rectangle.

    The cut with the lowest `split_entropy`; vertical candidates win ties
    against horizontal ones, and within an axis the smallest index
    attaining the minimum wins.  Costs O(area) for the sweep plus two
    `counts_in` per cut re-scored near the minimum (see `_decide`).
    """
    if region.area == 1:
        raise InvalidSplitError(f"{region} has no interior cut line")
    decision = _decide(grid, region, _XLogXTable())
    if decision is None:
        # One fingerprint: every cut scores 0.0, so the first one wins.
        if region.right > region.left:
            return True, region.left, split_entropy(grid, region, region.left, True)
        return False, region.top, split_entropy(grid, region, region.top, False)
    return decision


def entropy_tree(grid: FingerprintGrid, region: Optional[Rect] = None) -> EntropyTree:
    """Full guillotine decomposition tree of `region` (default: whole grid).

    Each node costs O(area) for its histograms and cut sweep, so a tree
    costs O(sum of node areas): O(area x depth).  Built with an explicit
    stack; deep, skewed cut sequences on long thin sheets would overflow
    Python's recursion limit otherwise.
    """
    if region is None:
        region = grid.full_rect()
    table = _XLogXTable()
    # Pass 1: decide every node's cut top-down, stack order = preorder.
    plan: dict[tuple[int, int, int, int], Optional[tuple[bool, int, float, Rect, Rect]]] = {}
    order: list[Rect] = []
    pending = [region]
    while pending:
        r = pending.pop()
        order.append(r)
        key = (r.left, r.top, r.right, r.bottom)
        decision = None if r.area == 1 else _decide(grid, r, table)
        if decision is None:
            plan[key] = None
            continue
        vertical, index, entropy = decision
        low, high = split_halves(r, index, vertical)
        plan[key] = (vertical, index, entropy, low, high)
        pending.append(high)
        pending.append(low)
    # Pass 2: assemble bottom-up; children precede parents in reversed preorder.
    built: dict[tuple[int, int, int, int], EntropyTree] = {}
    for r in reversed(order):
        key = (r.left, r.top, r.right, r.bottom)
        decision = plan[key]
        if decision is None:
            built[key] = EntropyLeaf(r)
        else:
            vertical, index, entropy, low, high = decision
            built[key] = EntropyNode(
                r,
                built[(low.left, low.top, low.right, low.bottom)],
                built[(high.left, high.top, high.right, high.bottom)],
                vertical,
                index,
                entropy,
            )
    return built[(region.left, region.top, region.right, region.bottom)]


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


def _region_key(region: Region) -> tuple:
    r = region.rect
    return (r.top, r.left, r.bottom, r.right, repr(region.fingerprint))


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


def _axis_runs(grid: FingerprintGrid, vertical: bool) -> list[Optional[int]]:
    """Run ids for delimiter lines along one axis.

    A column (row) is a delimiter line when every cell on it carries the
    same fingerprint.  Consecutive delimiter lines with the same
    fingerprint share a run id; other lines get None.  Index 0 unused.
    """
    lines = zip(*grid.code_rows) if vertical else grid.code_rows
    ids: list[Optional[int]] = [None]
    run_id = 0
    prev_code: Optional[int] = None
    for line in lines:
        code = line[0]
        if line.count(code) != len(line):
            ids.append(None)
            prev_code = None
            continue
        if code != prev_code:
            run_id += 1
        ids.append(run_id)
        prev_code = code
    return ids


def _run_cuts(ids: list[Optional[int]], length: int) -> list[int]:
    """Cut lines at run boundaries: after the line preceding a run start,
    and after a run end, when those fall strictly inside the grid."""
    cuts = set()
    for i in range(1, length + 1):
        if ids[i] is None:
            continue
        starts = i == 1 or ids[i - 1] != ids[i]
        ends = i == length or (i + 1 <= length and ids[i + 1] != ids[i])
        if starts and i > 1:
            cuts.add(i - 1)
        if ends and i < length:
            cuts.add(i)
    return sorted(cuts)


def _gaps(grid: FingerprintGrid, r: Rect, cuts: list[int], ids: list[Optional[int]],
          vertical: bool) -> tuple[list[dict], list[int]]:
    """Fingerprint histogram and cell count of each strip of `r` between
    its consecutive `cuts` along one axis, edges included.

    Cuts sit at every run boundary, so a strip is either one whole
    delimiter run, which holds its run's fingerprint alone, or lines of
    no run, which cost one `counts_in`.
    """
    first, last, depth = (r.left, r.right, r.height) if vertical else (r.top, r.bottom, r.width)
    hists: list[dict] = []
    sizes: list[int] = []
    for lo, hi in zip([first] + [i + 1 for i in cuts], cuts + [last]):
        size = (hi - lo + 1) * depth
        if ids[lo] is not None and ids[lo] == ids[hi]:
            hists.append({grid.fingerprint_at(lo, 1) if vertical else grid.fingerprint_at(1, lo): size})
        else:
            hists.append(grid.counts_in(Rect(lo, r.top, hi, r.bottom) if vertical else Rect(r.left, lo, r.right, hi)))
        sizes.append(size)
    return hists, sizes


def delimiter_splits(grid: FingerprintGrid) -> list[Rect]:
    """Cut the grid along delimiter-run boundaries into work pieces.

    Candidate cut lines sit only at edges of uniform single-fingerprint
    full-height (full-width) runs, and are chosen recursively by the same
    rule as the decomposition itself: lowest summed half entropy, vertical
    before horizontal on ties, smallest index on ties.  A piece lying
    entirely inside one run needs no further cutting and is kept whole.

    A piece scores its candidate cuts with one blockwise sweep per axis
    over the strips between them (`_gaps`).  Only the cuts near the
    sweep's minimum are re-scored exactly, and none when just one is.  So
    a piece costs one `counts_in` per strip outside the runs, the
    fingerprints of its strips, and rarely more than one exact re-score,
    where scoring every cut exactly takes two counts per cut.
    """
    col_ids = _axis_runs(grid, True)
    row_ids = _axis_runs(grid, False)
    v_cuts = _run_cuts(col_ids, grid.width)
    h_cuts = _run_cuts(row_ids, grid.height)
    table = _XLogXTable()
    pieces: list[Rect] = []
    stack = [grid.full_rect()]
    while stack:
        r = stack.pop()
        inside_col_run = col_ids[r.left] is not None and col_ids[r.left] == col_ids[r.right]
        inside_row_run = row_ids[r.top] is not None and row_ids[r.top] == row_ids[r.bottom]
        if inside_col_run or inside_row_run:
            pieces.append(r)
            continue
        cand_v = [i for i in v_cuts if r.left <= i < r.right]
        cand_h = [i for i in h_cuts if r.top <= i < r.bottom]
        cuts = [(True, i) for i in cand_v] + [(False, i) for i in cand_h]
        if not cuts:
            pieces.append(r)
            continue
        if len(cuts) > 1:
            scores: list[float] = []
            total: Optional[dict] = None
            for vertical, cand, ids in ((True, cand_v, col_ids), (False, cand_h, row_ids)):
                if not cand:
                    continue
                hists, sizes = _gaps(grid, r, cand, ids, vertical)
                if total is None:
                    total = {}
                    for hist in hists:
                        for fp, c in hist.items():
                            total[fp] = total.get(fp, 0) + c
                scores += _sweep(hists, sizes, total, table)
            cuts = _near_minimum(r, cuts, scores)
        # A lone cut near the minimum is the only exact minimizer.
        vertical, index = cuts[0] if len(cuts) == 1 else _first_exact_minimum(grid, r, cuts)[:2]
        low, high = split_halves(r, index, vertical)
        stack.append(high)
        stack.append(low)
    pieces.sort(key=lambda p: (p.top, p.left))
    return pieces


def _piece_regions(grid: FingerprintGrid, piece: Rect) -> list[Region]:
    # A leaf holds one fingerprint, so any of its cells names it.
    return [
        Region(leaf.region, grid.fingerprint_at(leaf.region.left, leaf.region.top))
        for leaf in tree_leaves(entropy_tree(grid, piece))
    ]


def decompose_grid(grid: FingerprintGrid, preprocess: bool = True) -> list[Region]:
    """Single-fingerprint rectangles covering the grid, coalesced.

    With preprocess=True the grid is first split along delimiter runs and
    each piece decomposed independently; the piece list and the final
    coalesce order are both pinned.
    """
    pieces = delimiter_splits(grid) if preprocess else [grid.full_rect()]
    leaves = [region for piece in pieces for region in _piece_regions(grid, piece)]
    return coalesce(leaves)
