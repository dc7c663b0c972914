"""Reference implementations the analysis is tested against.

None of this runs in the analysis itself.  Each function is the plain,
cell-by-cell or rebuild-everything definition of something `gridlint`
computes in closed form or incrementally:

* formula references expanded cell by cell, their offset vectors and
  fingerprints (`vectors.rects_fingerprint` sums them per rectangle);
* a sheet's vector table with every formula parsed
  (`vectors.analyze_sheet_vectors` parses each formula shape once);
* the formula printer used by the parser's round-trip tests;
* fingerprint counts in a rectangle by a scan of its cells
  (`FingerprintGrid.counts_in` masks bitvectors);
* delimiter preprocessing that scores every run-boundary cut with two
  full counts (`entropy.delimiter_splits` sweeps one count per gap);
* fix candidates from every ordered pair of regions, screened by the
  bounding-box rule C1 (`fixes.candidate_fixes` reads only the pairs
  that pass it off an edge index);
* fix scoring that rebuilds the region layout for every candidate
  (`fixes.entropy_delta` edits one persistent layout and undoes it).
"""

from __future__ import annotations

import heapq
import re
from typing import Iterable, Optional, Sequence

from gridlint.entropy import (
    Region,
    _EdgeIndex,
    _axis_runs,
    _region_key,
    _run_cuts,
    _union_rect,
    normalized_entropy,
    split_entropy,
    split_halves,
)
from gridlint.fixes import (
    CandidateFix,
    ProposedFix,
    admissible,
    fix_distance,
    impact_score,
    rect_minus_cell,
)
from gridlint.formula import (
    BinaryOp,
    BoolLit,
    CellRef,
    FormulaParseError,
    FunctionCall,
    Node,
    NumberLit,
    Paren,
    RangeRef,
    RawReference,
    StringLit,
    UnaryOp,
    _walk,
    numeric_constant_count,
    parse_formula,
    ref_rects,
)
from gridlint.grid import FingerprintGrid
from gridlint.model import CellAddress, CellKind, GridlintError, Rect, Workbook, Worksheet, column_to_letters, to_a1
from gridlint.vectors import (
    TEXT_FINGERPRINT,
    Fingerprint,
    RefVector,
    SheetVectors,
    is_off_sheet,
    null_fingerprint,
    rects_fingerprint,
)

MAX_RANGE_CELLS = 2**20


# -- formula references, cell by cell ----------------------------------------


class RangeTooLargeError(GridlintError):
    """Range expansion would exceed MAX_RANGE_CELLS cells."""


def references(node: Node) -> list[RawReference]:
    """All references in source order; ranges expand to their member cells.

    Duplicates are preserved.  Expansion normalizes reversed corners, and
    each expanded cell inherits an absolute flag only when both corners
    agree on it.  The analysis uses ref_rects; this cell-by-cell form is
    the reference the closed forms are tested against.
    """
    out: list[RawReference] = []
    for item in _walk(node):
        if isinstance(item, CellRef):
            out.append(item.ref)
        elif isinstance(item, RangeRef):
            out.extend(expand_range(item.start, item.end))
    return out


def expand_range(start: RawReference, end: RawReference) -> list[RawReference]:
    lo_col, hi_col = sorted((start.column, end.column))
    lo_row, hi_row = sorted((start.row, end.row))
    count = (hi_col - lo_col + 1) * (hi_row - lo_row + 1)
    if count > MAX_RANGE_CELLS:
        raise RangeTooLargeError(f"range expands to {count} cells (limit {MAX_RANGE_CELLS})")
    col_abs = start.column_absolute and end.column_absolute
    row_abs = start.row_absolute and end.row_absolute
    return [
        RawReference(col, row, col_abs, row_abs, start.sheet, start.workbook)
        for row in range(lo_row, hi_row + 1)
        for col in range(lo_col, hi_col + 1)
    ]


# -- formula printing ---------------------------------------------------------


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _needs_quoting(sheet: str) -> bool:
    return not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.]*", sheet)


def _format_prefix(ref: RawReference) -> str:
    parts = []
    if ref.workbook is not None:
        parts.append(f"[{ref.workbook}]")
    if ref.sheet is not None:
        name = ref.sheet.replace("'", "''")
        parts.append(f"'{name}'!" if _needs_quoting(ref.sheet) else f"{ref.sheet}!")
    elif ref.workbook is not None:
        parts.append("!")
    return "".join(parts)


def _format_ref(ref: RawReference, with_prefix: bool = True) -> str:
    prefix = _format_prefix(ref) if with_prefix else ""
    col_anchor = "$" if ref.column_absolute else ""
    row_anchor = "$" if ref.row_absolute else ""
    return f"{prefix}{col_anchor}{column_to_letters(ref.column)}{row_anchor}{ref.row}"


def _format_line(ref: RawReference, whole: str) -> str:
    """One end of a whole-column or whole-row range: $B or 3."""
    if whole == "columns":
        return ("$" if ref.column_absolute else "") + column_to_letters(ref.column)
    return ("$" if ref.row_absolute else "") + str(ref.row)


_BINOP_LEVEL = {"=": 1, "<>": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
                "&": 2, "+": 3, "-": 3, "*": 4, "/": 4, "^": 5}


def _level(node: Node) -> int:
    if isinstance(node, BinaryOp):
        return _BINOP_LEVEL[node.op]
    if isinstance(node, UnaryOp):
        return 7 if node.op == "%" else 6
    return 8


def to_text(node: Node) -> str:
    """Print an AST back to formula text.  parse(to_text(n)) reproduces n
    whenever n does not need extra grouping; parentheses are inserted
    otherwise so the printed text always means what the tree means."""
    return "=" + _to_text(node, 0)


def _to_text(node: Node, required: int) -> str:
    if _level(node) < required:
        return f"({_to_text(node, 0)})"
    if isinstance(node, NumberLit):
        return _format_number(node.value)
    if isinstance(node, StringLit):
        return '"' + node.value.replace('"', '""') + '"'
    if isinstance(node, BoolLit):
        return "TRUE" if node.value else "FALSE"
    if isinstance(node, CellRef):
        return _format_ref(node.ref)
    if isinstance(node, RangeRef) and node.whole:
        return (f"{_format_prefix(node.start)}{_format_line(node.start, node.whole)}"
                f":{_format_line(node.end, node.whole)}")
    if isinstance(node, RangeRef):
        return f"{_format_ref(node.start)}:{_format_ref(node.end, with_prefix=False)}"
    if isinstance(node, FunctionCall):
        return f"{node.name}({','.join(_to_text(a, 0) for a in node.args)})"
    if isinstance(node, BinaryOp):
        level = _BINOP_LEVEL[node.op]
        if node.op == "^":
            return f"{_to_text(node.left, level + 1)}^{_to_text(node.right, level)}"
        return f"{_to_text(node.left, level)}{node.op}{_to_text(node.right, level + 1)}"
    if isinstance(node, UnaryOp):
        if node.op == "%":
            return f"{_to_text(node.operand, 7)}%"
        return f"{node.op}{_to_text(node.operand, 6)}"
    if isinstance(node, Paren):
        return f"({_to_text(node.inner, 0)})"
    raise TypeError(f"unknown node type: {type(node).__name__}")


# -- offset vectors and fingerprints, cell by cell ----------------------------


def reference_vector(ref: RawReference, column: int, row: int, sheet: str, workbook: str) -> RefVector:
    """Offset vector for one reference written in the cell at (column, row)."""
    if is_off_sheet(ref, sheet, workbook):
        return RefVector(ref.column - 1, ref.row - 1, 1, 0)
    dx = ref.column - 1 if ref.column_absolute else ref.column - column
    dy = ref.row - 1 if ref.row_absolute else ref.row - row
    return RefVector(dx, dy, 0, 0)


def reference_vectors(refs: Iterable[RawReference], column: int, row: int,
                      sheet: str, workbook: str) -> tuple[RefVector, ...]:
    return tuple(reference_vector(r, column, row, sheet, workbook) for r in refs)


def formula_fingerprint(vectors: Iterable[RefVector], has_numeric_constant: bool) -> Fingerprint:
    x = y = z = c = 0
    for v in vectors:
        x += v.dx
        y += v.dy
        z += v.dz
        c += v.dc
    if has_numeric_constant:
        c = 1
    return Fingerprint(x, y, z, c)


def constant_count(node: Node) -> int:
    """Number of literal constants (numeric, string or boolean) in the formula."""
    return sum(1 for item in _walk(node) if isinstance(item, (NumberLit, StringLit, BoolLit)))


def naive_analyze_sheet_vectors(workbook: Workbook, sheet: Worksheet) -> SheetVectors:
    """`analyze_sheet_vectors` with every formula cell parsed from its own text."""
    rect = sheet.used_range()
    table = SheetVectors(sheet.name, workbook.name, rect, {}, {}, {})
    for (column, row), content in sorted(sheet.cells.items(), key=lambda item: (item[0][1], item[0][0])):
        kind = content.kind
        if kind is CellKind.FORMULA:
            try:
                ast = parse_formula(content.value)
            except FormulaParseError as exc:
                table.diagnostics.append(
                    f"{sheet.name}!{to_a1(column, row)}: unparseable formula treated as text ({exc})"
                )
                table.kinds[(column, row)] = CellKind.TEXT
                table.fingerprints[(column, row)] = TEXT_FINGERPRINT
                continue
            refs = tuple(ref_rects(ast))
            table.kinds[(column, row)] = CellKind.FORMULA
            table.refs[(column, row)] = refs
            table.fingerprints[(column, row)] = rects_fingerprint(
                refs, column, row, sheet.name, workbook.name, numeric_constant_count(ast) > 0
            )
        else:
            table.kinds[(column, row)] = kind
            table.fingerprints[(column, row)] = null_fingerprint(kind)
    return table


def resolve_reference(ref: RawReference, cell: CellAddress) -> CellAddress:
    """Absolute address a reference points at, inheriting the cell's sheet
    and workbook when the reference leaves them implicit."""
    return CellAddress(
        column=ref.column,
        row=ref.row,
        sheet=ref.sheet if ref.sheet is not None else cell.sheet,
        workbook=ref.workbook if ref.workbook is not None else cell.workbook,
    )


# -- fingerprint counts, cell by cell -----------------------------------------


def naive_counts_in(grid: FingerprintGrid, rect: Rect) -> dict:
    """Fingerprint -> cell count inside rect, by a plain cell-by-cell scan."""
    out: dict = {}
    for x, y in rect.cells():
        fp = grid.fingerprint_at(x, y)
        out[fp] = out.get(fp, 0) + 1
    return out


# -- delimiter cuts, each scored with two full counts -------------------------


def naive_delimiter_splits(grid: FingerprintGrid) -> list[Rect]:
    """Delimiter pieces, every candidate cut scored with `split_entropy`:
    lowest score wins, vertical before horizontal, then smallest index."""
    col_ids = _axis_runs(grid, True)
    row_ids = _axis_runs(grid, False)
    v_cuts = _run_cuts(col_ids, grid.width)
    h_cuts = _run_cuts(row_ids, grid.height)
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
        if not cand_v and not cand_h:
            pieces.append(r)
            continue
        best_v: Optional[tuple[float, int]] = None
        for i in cand_v:
            e = split_entropy(grid, r, i, True)
            if best_v is None or e < best_v[0]:
                best_v = (e, i)
        best_h: Optional[tuple[float, int]] = None
        for i in cand_h:
            e = split_entropy(grid, r, i, False)
            if best_h is None or e < best_h[0]:
                best_h = (e, i)
        if best_h is None or (best_v is not None and best_v[0] <= best_h[0]):
            assert best_v is not None
            low, high = split_halves(r, best_v[1], True)
        else:
            low, high = split_halves(r, best_h[1], False)
        stack.append(high)
        stack.append(low)
    pieces.sort(key=lambda p: (p.top, p.left))
    return pieces


# -- fix candidates from all region pairs -------------------------------------

REASON_NOT_RECTANGULAR = "C1"


def mergeable(a: Rect, b: Rect) -> bool:
    """True when the union of the two rectangles is itself a rectangle."""
    if a.left == b.left and a.right == b.right:
        return a.bottom + 1 == b.top or b.bottom + 1 == a.top
    if a.top == b.top and a.bottom == b.bottom:
        return a.right + 1 == b.left or b.right + 1 == a.left
    return False


def facing_strip(a: Rect, b: Rect) -> Optional[Rect]:
    """The line of cells of `a` whose edge-neighbour lies inside `b`, or
    None when the rectangles share no edge of at least one cell."""
    if a.right + 1 == b.left or b.right + 1 == a.left:
        top, bottom = max(a.top, b.top), min(a.bottom, b.bottom)
        if top > bottom:
            return None
        x = a.right if a.right + 1 == b.left else a.left
        return Rect(x, top, x, bottom)
    if a.bottom + 1 == b.top or b.bottom + 1 == a.top:
        left, right = max(a.left, b.left), min(a.right, b.right)
        if left > right:
            return None
        y = a.bottom if a.bottom + 1 == b.top else a.top
        return Rect(left, y, right, y)
    return None


def naive_candidate_fixes(regions: Sequence[Region]) -> list[CandidateFix]:
    """All (source, target) proposals over ordered adjacent region pairs.

    For each pair this emits the whole source region, plus each single
    boundary cell facing the target in reading order (skipped for
    one-cell regions, where the whole-region candidate is the same thing).
    Most of them fail C1.
    """
    ordered = sorted(regions, key=lambda r: (r.rect.top, r.rect.left, r.rect.bottom, r.rect.right))
    out: list[CandidateFix] = []
    for a in ordered:
        for b in ordered:
            if a is b or a.fingerprint == b.fingerprint:
                continue
            strip = facing_strip(a.rect, b.rect)
            if strip is None:
                continue
            out.append(CandidateFix(a.rect, a, b))
            if a.rect.area > 1:
                for x, y in strip.cells():
                    out.append(CandidateFix(Rect(x, y, x, y), a, b))
    return out


def naive_admissible(fix: CandidateFix, table: SheetVectors) -> Optional[str]:
    """`fixes.admissible` with screen C1 first: the source and the target
    must tile an exact rectangle.  Being disjoint, they do so exactly when
    coalescing could merge them."""
    if not mergeable(fix.source, fix.target.rect):
        return REASON_NOT_RECTANGULAR
    return admissible(fix, table)


# -- fix scoring, rebuilding the layout per candidate ------------------------


def _coalesce_targeted(stable: Sequence[Region], dirty: Sequence[Region]) -> list[Region]:
    """Coalesce when `stable` is already a fixed point and only `dirty`
    regions are new or reshaped; only pairs involving a dirty region can
    merge, which keeps incremental re-coalescing cheap.

    Dirty regions are taken smallest key first; each merges with its
    smallest-keyed partner, found through a fresh edge index, and the
    union is queued as dirty in turn.  Together `stable` and `dirty` must
    tile their area.
    """
    index = _EdgeIndex()
    for region in stable:
        index.add(region)
    queue = []
    for region in dirty:
        serial = index.add(region)
        heapq.heappush(queue, (_region_key(region), serial))
    while queue:
        _, serial = heapq.heappop(queue)
        if serial not in index.live:
            continue
        partners = index.partners(serial)
        if not partners:
            continue
        partner = min(partners, key=lambda s: _region_key(index.live[s]))
        current = index.remove(serial)
        other = index.remove(partner)
        union = Region(_union_rect(current.rect, other.rect), current.fingerprint)
        heapq.heappush(queue, (_region_key(union), index.add(union)))
    return sorted(index.live.values(), key=_region_key)


def naive_coalesce_targeted(stable, dirty):
    """Take the smallest dirty region; merge it with the first mergeable
    region of the sorted list; queue the union; repeat."""
    items = sorted(list(stable) + list(dirty), key=_region_key)
    queue = sorted(dirty, key=_region_key)
    while queue:
        current = queue.pop(0)
        if current not in items:
            continue
        partner = next(
            (o for o in items
             if o != current and o.fingerprint == current.fingerprint and mergeable(o.rect, current.rect)),
            None,
        )
        if partner is None:
            continue
        items.remove(current)
        items.remove(partner)
        a, b = current.rect, partner.rect
        union = Region(
            Rect(min(a.left, b.left), min(a.top, b.top), max(a.right, b.right), max(a.bottom, b.bottom)),
            current.fingerprint,
        )
        items.append(union)
        items.sort(key=_region_key)
        queue = [q for q in queue if q != partner]
        queue.append(union)
        queue.sort(key=_region_key)
    return items


def hypothetical_regions(fix: CandidateFix, regions: Sequence[Region]) -> list[Region]:
    """The region set after rewriting the source to the target's
    fingerprint, re-coalesced around the touched regions only."""
    stable = [r for r in regions if r != fix.source_region and r != fix.target]
    dirty: list[Region] = [Region(_union_rect(fix.source, fix.target.rect), fix.target.fingerprint)]
    if fix.source != fix.source_region.rect:
        for frag in rect_minus_cell(fix.source_region.rect, (fix.source.left, fix.source.top)):
            dirty.append(Region(frag, fix.source_region.fingerprint))
    return _coalesce_targeted(stable, dirty)


def layout_entropy(regions: Sequence[Region], total_cells: int) -> float:
    """Normalized entropy of the region-size histogram of a layout."""
    return normalized_entropy([r.rect.area for r in regions], total_cells)


def rebuilt_entropy_delta(fix: CandidateFix, regions: Sequence[Region], total_cells: int,
                          before: Optional[float] = None) -> float:
    """Layout entropy after the fix minus before it, from a rebuilt layout.

    `before`, when given, must be layout_entropy(regions, total_cells).
    """
    if before is None:
        before = layout_entropy(regions, total_cells)
    after = layout_entropy(hypothetical_regions(fix, regions), total_cells)
    return after - before


def rebuilt_score_candidates(
    candidates: Sequence[CandidateFix],
    table: SheetVectors,
    regions: Sequence[Region],
    total_cells: int,
) -> list[ProposedFix]:
    """`fixes.score_candidates` with the layout rebuilt for each candidate."""
    out: list[ProposedFix] = []
    before = layout_entropy(regions, total_cells)
    for fix in candidates:
        if admissible(fix, table) is not None:
            continue
        delta = rebuilt_entropy_delta(fix, regions, total_cells, before)
        if delta >= 0:
            continue
        distance = fix_distance(fix, table)
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
                score=impact_score(fix.target.rect.area, delta, distance),
            )
        )
    return out
